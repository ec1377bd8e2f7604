"""The HTTP front end both servers run: listener, routing, jobs, drain.

:class:`~repro.service.server.ExperimentService` and
:class:`~repro.service.gateway.ShardGateway` differ only in how they
answer a request's points: the service through its memo and wave
batcher over :meth:`ResultCache.run_many`, the gateway by forwarding
each point to the replica that owns its fingerprint on the hash ring.
Everything in front of that is this one class, the way the paper puts
one filter in front of one shared resource.

Endpoints:

* ``POST /v1/simulate`` — run/fetch points (the subclass's ``_simulate``).
* ``POST /v1/jobs`` or ``POST /v1/sweep`` (a SweepSpec) → ``GET
  /v1/jobs/<id>`` — submit → poll → fetch.  With ``serve
  --jobs-journal PATH`` a job is journaled before its 202 and replayed
  after a restart.
* ``GET /metrics`` — Prometheus text exposition of the
  :class:`~repro.obs.MetricsRegistry`; ``Accept: application/json``
  returns the raw JSON snapshot instead.
* ``GET /healthz`` — status, uptime, busy requests and running jobs,
  plus each server's own fields (queue depth, pool, replicas, …).
* ``POST /v1/drain`` — programmatic graceful drain (same path as SIGTERM).

Graceful shutdown: SIGTERM (or ``/v1/drain``) stops the listener,
rejects new work with 503, waits until every in-flight request and
running job has delivered its response, stops the backend (the
service's batcher; the gateway's health loop and managed replicas),
and exits 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
import uuid
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import JsonLinesTracer, Observability
from repro.obs.trace_context import TraceContext
from repro.service import http11, protocol
from repro.service.jobs import JobJournal
from repro.service.protocol import ProtocolError

__all__ = ["Frontend", "run_frontend"]

#: Completed job records kept for polling before the oldest are evicted.
_MAX_JOBS = 1024


class Frontend:
    """One asyncio HTTP/1.1 server with jobs, health, metrics and drain.

    A subclass sets :attr:`NAME` and :attr:`PREFIX` and fills in the
    hooks below.  Run it three ways: :meth:`serve_forever` (the CLI
    path, installs SIGTERM/SIGINT drain handlers), :meth:`start_in_thread`
    / :meth:`shutdown` (embedding in tests and examples), or ``await
    start()`` inside an existing event loop.
    """

    #: Banner and thread name (``<NAME> listening on http://…``).
    NAME = "repro-frontend"
    #: Metric and span prefix (``<PREFIX>.requests``, ``<PREFIX>.request``).
    PREFIX = "frontend"

    def __init__(self, host: str, port: int,
                 obs: Optional[Observability] = None,
                 jobs_journal: Optional[str] = None) -> None:
        self.host = host
        self.port = port
        self.obs = obs if obs is not None else Observability()
        self._journal = JobJournal(jobs_journal) if jobs_journal else None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._drained_event: Optional[asyncio.Event] = None
        self._jobs: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._writers: set = set()
        self._busy_requests = 0
        self._draining = False
        self._started_at = time.time()
        self._thread: Optional[threading.Thread] = None
        # Metric and span names, built once instead of per request.
        prefix = self.PREFIX
        self._metric_requests = f"{prefix}.requests"
        self._metric_http = f"{prefix}.http."
        self._metric_seconds = f"{prefix}.request_seconds"
        self._metric_internal = f"{prefix}.errors.internal"
        self._metric_draining = f"{prefix}.rejected.draining"
        self._metric_jobs = f"{prefix}.jobs.submitted"
        self._metric_uptime = f"{prefix}.uptime_seconds"
        self._span_request = f"{prefix}.request"

    # -- hooks ------------------------------------------------------------
    async def _simulate(self, body: bytes, ctx: TraceContext,
                        deadline: Optional[float] = None,
                        admitted: bool = False) -> Tuple[int, Any]:
        """Answer a ``/v1/simulate`` body: ``(status, payload)``.

        ``deadline`` is the absolute :func:`time.monotonic` instant from
        ``X-Deadline-Ms``; ``admitted`` marks a job whose points were
        already admitted when it was accepted.
        """
        raise NotImplementedError

    def _accept_job(self, body: bytes, admit: bool = True) -> int:
        """Validate a job body (and admit it, if ``admit``); its point count.

        Raises :class:`ProtocolError` to refuse the job.  A journal
        replay passes ``admit=False``: a journaled job was accepted.
        """
        raise NotImplementedError

    async def _metrics(self, headers: Dict[str, str]) -> Tuple[int, Any]:
        """Answer ``GET /metrics`` (JSON when the client accepts it)."""
        raise NotImplementedError

    def _health(self) -> Dict[str, Any]:
        """The server's own ``/healthz`` fields."""
        raise NotImplementedError

    def _start_backend(self) -> None:
        """Start background work; runs once the listener is bound."""

    def _idle(self) -> bool:
        """True once the backend holds no queued or in-flight work."""
        return True

    async def _stop_backend(self) -> None:
        """Stop background work once a drain has let everything finish."""

    # -- lifecycle --------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the listener and start the backend; returns (host, port)."""
        self._loop = asyncio.get_running_loop()
        self._drained_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            start_serving=False)
        self.port = self._server.sockets[0].getsockname()[1]
        self._start_backend()
        self._started_at = time.time()
        if self._journal is not None:
            self._replay_journal()
        await self._server.start_serving()
        return self.host, self.port

    def request_drain(self) -> None:
        """Begin graceful shutdown (idempotent; safe from a signal handler).

        New work is rejected with 503 immediately; in-flight requests
        and jobs finish and deliver their responses; the drain completes
        once the backend is idle and every response has been written.
        """
        if self._draining or self._loop is None:
            return
        self._draining = True
        self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        if self._server is not None:
            self._server.close()  # stop accepting new connections
        while (self._busy_requests or not self._idle()
               or any(r["status"] == "running"
                      for r in self._jobs.values())):
            await asyncio.sleep(0.01)
        await self._stop_backend()
        # Idle keep-alive connections would outlive the loop otherwise.
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        if self._server is not None:
            await self._server.wait_closed()
        self._drained_event.set()

    async def serve_until_drained(self) -> None:
        """Block until a drain (SIGTERM, /v1/drain, or shutdown()) finishes."""
        await self._drained_event.wait()

    def start_in_thread(self, timeout: float = 30.0) -> Tuple[str, int]:
        """Run the server on a dedicated event-loop thread; returns the address."""
        started = threading.Event()
        failure: List[BaseException] = []

        def _run() -> None:
            loop = asyncio.new_event_loop()
            try:
                asyncio.set_event_loop(loop)
                loop.run_until_complete(self.start())
            except BaseException as exc:  # surface bind errors to the caller
                failure.append(exc)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_until_complete(self.serve_until_drained())
                loop.run_until_complete(loop.shutdown_default_executor())
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=_run, name=self.NAME, daemon=True)
        self._thread.start()
        if not started.wait(timeout):
            raise RuntimeError(f"{self.PREFIX} did not start in time")
        if failure:
            raise failure[0]
        return self.host, self.port

    def shutdown(self, timeout: float = 120.0) -> None:
        """Drain a :meth:`start_in_thread` server and join its thread."""
        if self._loop is not None and not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(self.request_drain)
            except RuntimeError:
                pass  # loop already closed between the check and the call
        if self._thread is not None:
            self._thread.join(timeout)

    def _banner(self) -> str:
        return f"{self.NAME} listening on http://{self.host}:{self.port}"

    async def _amain(self) -> None:
        await self.start()
        print(self._banner(), flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await self.serve_until_drained()
        print(f"{self.NAME} drained cleanly", flush=True)

    def serve_forever(self) -> int:
        """The CLI entry: serve until SIGTERM/SIGINT drains it; exit 0."""
        asyncio.run(self._amain())
        return 0

    # -- HTTP layer -------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            while True:
                request = await http11.read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                self._busy_requests += 1
                try:
                    status, payload, trace_id, extra = await self._route(
                        method, path, headers, body)
                    # Established connections stay alive through a drain
                    # (so clients see a clean 503, not a reset); _drain()
                    # force-closes them once the last response is written.
                    keep_alive = (headers.get("connection", "").lower()
                                  != "close")
                    await http11.write_response(
                        writer, status, payload, keep_alive, trace_id,
                        extra_headers=extra)
                finally:
                    self._busy_requests -= 1
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError, asyncio.LimitOverrunError):
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    async def _route(self, method: str, path: str, headers: Dict[str, str],
                     body: bytes) -> Tuple[int, Any, str, Dict[str, str]]:
        # Adopt the caller's trace context (X-Trace-Id/X-Parent-Span)
        # when present; otherwise this request starts a fresh trace.
        ctx = TraceContext.from_headers(headers)
        metrics = self.obs.metrics
        metrics.add(self._metric_requests)
        started = time.perf_counter()
        extra: Dict[str, str] = {}
        try:
            status, payload = await self._dispatch(
                method, path, headers, body, ctx)
        except ProtocolError as exc:
            status, payload, extra = exc.status, exc.body(), exc.headers()
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            metrics.add(self._metric_internal)
            status, payload = 500, {
                "error": protocol.ERROR_INTERNAL,
                "message": f"{type(exc).__name__}: {exc}",
            }
        if isinstance(payload, dict):
            payload.setdefault("trace_id", ctx.trace_id)
        metrics.add(f"{self._metric_http}{status}")
        dur = time.perf_counter() - started
        metrics.histogram(self._metric_seconds).record(dur)
        if self.obs.tracing:
            self.obs.tracer.emit(
                "span", time.time(), name=self._span_request, dur=dur,
                method=method, path=path, status=status,
                **ctx.span_fields())
        return status, payload, ctx.trace_id, extra

    async def _dispatch(self, method: str, path: str,
                        headers: Dict[str, str], body: bytes,
                        ctx: TraceContext) -> Tuple[int, Any]:
        if path == "/healthz":
            self._require(method, "GET")
            return 200, self._health_payload()
        if path == "/metrics":
            self._require(method, "GET")
            self.obs.metrics.set_gauge(self._metric_uptime,
                                       time.time() - self._started_at)
            return await self._metrics(headers)
        if path == "/v1/simulate":
            self._require(method, "POST")
            self._reject_if_draining()
            return await self._simulate(
                body, ctx, protocol.parse_deadline_header(headers))
        if path == "/v1/jobs":
            self._require(method, "POST")
            self._reject_if_draining()
            return self._submit_job(body, ctx)
        if path == "/v1/sweep":
            # A sweep is a job whose body is a SweepSpec: it is
            # journaled like any job and replays through the same
            # sweep-aware parser.
            self._require(method, "POST")
            self._reject_if_draining()
            decoded = self._decode(body)
            if not isinstance(decoded, dict) or "sweep" not in decoded:
                raise ProtocolError(
                    400, protocol.ERROR_BAD_REQUEST,
                    "request needs a 'sweep' object (a SweepSpec)")
            return self._submit_job(body, ctx)
        if path.startswith("/v1/jobs/"):
            self._require(method, "GET")
            return self._job_status(path[len("/v1/jobs/"):])
        if path == "/v1/drain":
            self._require(method, "POST")
            self.request_drain()
            return 202, {"status": "draining"}
        raise ProtocolError(404, protocol.ERROR_NOT_FOUND,
                            f"no route for {path!r}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise ProtocolError(
                405, protocol.ERROR_BAD_REQUEST,
                f"method {method} not allowed here (use {expected})")

    def _reject_if_draining(self) -> None:
        if self._draining:
            self.obs.metrics.add(self._metric_draining)
            raise ProtocolError(
                503, protocol.ERROR_DRAINING,
                f"{self.PREFIX} is draining; no new work accepted")

    @staticmethod
    def _decode(body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                400, protocol.ERROR_BAD_REQUEST,
                f"request body is not valid JSON: {exc}")

    def _health_payload(self) -> Dict[str, Any]:
        payload = {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": time.time() - self._started_at,
            "busy_requests": self._busy_requests,
            "jobs_running": sum(1 for r in self._jobs.values()
                                if r["status"] == "running"),
        }
        payload.update(self._health())
        return payload

    # -- jobs -------------------------------------------------------------
    def _submit_job(self, body: bytes,
                    ctx: TraceContext) -> Tuple[int, Dict[str, Any]]:
        n_points = self._accept_job(body)  # refuse before journaling
        job_id = uuid.uuid4().hex
        submitted = time.time()
        if self._journal is not None:
            # Journal before acknowledging: an accepted job is on disk
            # by definition, so a crash after the 202 cannot lose it.
            self._journal.record_submitted(
                job_id, body, ctx.trace_id, submitted)
        record: Dict[str, Any] = {
            "job_id": job_id,
            "status": "running",
            "trace_id": ctx.trace_id,
            "submitted_unix": submitted,
            "n_points": n_points,
            "result": None,
        }
        self._jobs[job_id] = record
        while len(self._jobs) > _MAX_JOBS:
            self._evict_one_job()
        self._loop.create_task(self._run_job(record, body, ctx))
        self.obs.metrics.add(self._metric_jobs)
        return 202, {"job_id": job_id, "status": "running",
                     "n_points": n_points, "trace_id": ctx.trace_id}

    def _evict_one_job(self) -> None:
        for job_id, record in self._jobs.items():
            if record["status"] != "running":
                del self._jobs[job_id]
                return
        self._jobs.popitem(last=False)  # all running: drop the oldest

    async def _run_job(self, record: Dict[str, Any], body: bytes,
                       ctx: TraceContext) -> None:
        try:
            # Admission was decided when the job was accepted (and
            # journaled); an accepted job always runs, even if interactive
            # load has since filled the inflight budget.
            status, payload = await self._simulate(body, ctx, admitted=True)
        except ProtocolError as exc:
            status, payload = exc.status, exc.body()
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # the job must always settle
            status = 500
            payload = {"error": protocol.ERROR_INTERNAL,
                       "message": f"{type(exc).__name__}: {exc}"}
        self._settle(record, "done" if status == 200 else "failed", payload)

    def _settle(self, record: Dict[str, Any], status: str,
                payload: Dict[str, Any]) -> None:
        """Finish a job's record and journal it, so restarts serve it as is."""
        record["result"] = payload
        record["status"] = status
        record["completed_unix"] = time.time()
        if self._journal is not None:
            self._journal.record_finished(
                record["job_id"], status, payload, record["completed_unix"])

    def _job_status(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        record = self._jobs.get(job_id)
        if record is None:
            raise ProtocolError(404, protocol.ERROR_NOT_FOUND,
                                f"unknown job {job_id!r}")
        payload = {key: record[key] for key in
                   ("job_id", "status", "n_points", "submitted_unix")}
        if record["status"] != "running":
            payload["result"] = record["result"]
            payload["completed_unix"] = record["completed_unix"]
        return 200, payload

    def _replay_journal(self) -> None:
        """Rebuild the job table from the journal on restart.

        Finished jobs are served straight from their recorded payloads;
        submitted-but-unfinished jobs (the server died mid-run) are
        re-validated and re-run under their original job IDs and trace
        IDs.  Their points are fingerprint-keyed, so anything that
        reached the disk cache before the crash costs nothing to
        "recompute".  A body that fails re-validation is journaled as
        failed, so replay is idempotent: every later restart serves that
        same record instead of judging the body again.
        """
        metrics = self.obs.metrics
        for job in self._journal.replay():
            record: Dict[str, Any] = {
                "job_id": job.job_id,
                "status": "running",
                "trace_id": job.trace_id,
                "submitted_unix": job.submitted_at,
                "n_points": None,
                "result": None,
            }
            self._jobs[job.job_id] = record
            if job.finished:
                record["status"] = job.status
                record["result"] = job.payload
                record["completed_unix"] = job.completed_at
                if isinstance(job.payload, dict):
                    record["n_points"] = len(job.payload.get("points") or [])
                metrics.add(f"{self.PREFIX}.jobs.recovered")
                continue
            try:
                record["n_points"] = self._accept_job(job.body, admit=False)
            except ProtocolError as exc:
                record["n_points"] = 0  # as later restarts read the payload
                self._settle(record, "failed",
                             {"error": protocol.ERROR_BAD_REQUEST,
                              "message": f"journal replay: {exc}"})
                continue
            ctx = TraceContext.from_headers({"x-trace-id": job.trace_id})
            self._loop.create_task(self._run_job(record, job.body, ctx))
            metrics.add(f"{self.PREFIX}.jobs.resumed")
        if self._journal.repaired_bytes:
            metrics.add(f"{self.PREFIX}.journal.repaired_bytes",
                        self._journal.repaired_bytes)


def run_frontend(build: Callable[[Optional[Observability]], Frontend],
                 trace_out: Optional[str] = None,
                 metrics_out: Optional[str] = None) -> int:
    """Serve ``build(obs)`` until SIGTERM/SIGINT drains it (the CLI path).

    ``trace_out`` streams every span to a JSON-lines file (view with
    ``repro-experiment trace show``); ``metrics_out`` writes the final
    metrics snapshot on drain.  Without either, ``build`` gets ``None``
    and the server makes its own :class:`Observability`.
    """
    obs = None
    if trace_out or metrics_out:
        obs = Observability(
            tracer=JsonLinesTracer(trace_out) if trace_out else None)
    front = build(obs)
    try:
        return front.serve_forever()
    finally:
        if obs is not None:
            obs.close()
        if metrics_out:
            with open(metrics_out, "w", encoding="utf-8") as handle:
                json.dump(front.obs.metrics.snapshot(), handle,
                          indent=2, sort_keys=True)
                handle.write("\n")
