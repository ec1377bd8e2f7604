"""Simulation-as-a-service: a long-lived batching server over the result cache.

PRs 1–4 made one experiment process fast (hot-path overhaul), parallel
(``run_many`` over a process pool), durable (disk cache + crash-safe
checkpoints), and observable (tracing + metrics) — but every consumer
still had to fork the whole CLI.  This package turns that machinery
into a service, the same way the paper's virtual hierarchy filters
translation traffic before the shared IOMMU TLB: requests are filtered
through the warm in-memory memo and the persistent disk cache, and only
genuine misses reach the simulation pool.

* :mod:`repro.service.protocol` — the JSON wire protocol: design-name
  resolution, request validation, and result payloads with cache-tier
  provenance (``memo`` / ``disk`` / ``computed``).
* :mod:`repro.service.frontend` — :class:`~repro.service.frontend.Frontend`,
  the one stdlib ``asyncio`` HTTP front end both servers below run:
  routing, jobs (with an optional journal), ``/metrics`` +
  ``/healthz`` endpoints, and graceful drain on SIGTERM.
* :mod:`repro.service.server` — :class:`ExperimentService`, the front
  end over the memo, single-flight request coalescing and wave
  batching into :meth:`ResultCache.run_many`.
* :mod:`repro.service.gateway` — :class:`ShardGateway`, the front end
  as a consistent-hash front door that shards the point-fingerprint
  keyspace across N replicas (``repro-experiment serve --replicas N``),
  answers points its replicas already answered from a bounded point
  memo, health-checks and evicts/re-admits the replicas, and hedges
  in-flight points to the rebuilt ring so a killed replica costs zero
  client failures.
* :mod:`repro.service.client` — :class:`ServiceClient`, a stdlib-only
  typed client (submit/poll/fetch and synchronous simulate).
* :mod:`repro.service.http11` — the shared HTTP/1.1 framing.

Start a server with ``repro-experiment serve --port 8000 --jobs 4
--cache-dir ~/.cache/repro``, or embed one in-process::

    from repro.service import ExperimentService, ServiceClient

    service = ExperimentService(jobs=2, scale=0.05)
    host, port = service.start_in_thread()
    with ServiceClient(host, port) as client:
        reply = client.simulate([{"workload": "bfs", "design": "Baseline 512"}])
        print(reply.points[0].tier)   # "computed", then "memo" on a rerun
    service.shutdown()
"""

from __future__ import annotations

from repro.service.chaosnet import ChaosProxy, NetFaultPlan
from repro.service.client import (
    HealthReport,
    JobReply,
    PointReply,
    ServiceClient,
    ServiceError,
    SimulateReply,
    TransportError,
    parse_target,
)
from repro.service.gateway import (
    HashRing,
    Replica,
    ReplicaError,
    ShardGateway,
    launch_local_gateway,
    replicas_from_urls,
    run_gateway,
    spawn_subprocess_replicas,
    spawn_thread_replicas,
)
from repro.service.jobs import JobJournal
from repro.service.protocol import (
    DESIGNS_BY_NAME,
    PointSpec,
    ProtocolError,
    design_slug,
)
from repro.service.server import ExperimentService

__all__ = [
    "ChaosProxy",
    "DESIGNS_BY_NAME",
    "ExperimentService",
    "HashRing",
    "HealthReport",
    "JobJournal",
    "JobReply",
    "NetFaultPlan",
    "PointReply",
    "PointSpec",
    "ProtocolError",
    "Replica",
    "ReplicaError",
    "ServiceClient",
    "ServiceError",
    "ShardGateway",
    "SimulateReply",
    "TransportError",
    "design_slug",
    "launch_local_gateway",
    "parse_target",
    "replicas_from_urls",
    "run_gateway",
    "spawn_subprocess_replicas",
    "spawn_thread_replicas",
]
