"""Compiled binary traces: precoalesced, mmap-able workload replays.

A :class:`CompiledTrace` is the one trace type: what every workload
generator returns, built by :class:`~repro.workloads.device.TraceBuilder`
or :func:`compile_arrays`.  Four structure-of-arrays NumPy containers
hold each instruction's flags and its coalesced line requests, computed
once for the whole trace in one vectorized pass
(:func:`~repro.gpu.coalescer.coalesce_arrays`).  Lane addresses are
only the coalescer's input: as in the modelled GPU, where the coalescer
sits in front of the per-CU TLB, nothing downstream of it sees a lane,
so a trace keeps none.  The dict :class:`~repro.gpu.coalescer.Coalescer`
survives only as the reference the tests check that pass against.
:func:`~repro.system.run.simulate` replays the request arrays
themselves, as plain lists
(:meth:`CompiledTrace.coalesced_per_cu`): no request object is built
on any access path.  Generation — *running the algorithm*, BFS
over a generated graph, Floyd-Warshall over a matrix, … — can cost as
much as simulating the result, so :class:`TraceStore` persists
compilations as plain ``.npy`` files that later processes **mmap
read-only** instead of regenerating: a warm ``registry.load``, a
rerun, and every ``run_many`` pool worker then share one on-disk
compilation.

The on-disk layout is one directory per compilation key
``(workload, scale, seed, line_size)`` under ``<cache-dir>/traces/``::

    <root>/bfs-s0.1-seeddefault-ls128-v2/
        meta.json            # identity, counts, address-space log
        cu_bounds.npy        # (n_cus+1,) instruction offsets per CU
        inst_flags.npy       # (n_insts,) bit0 = write, bit1 = scratchpad
        inst_req_counts.npy  # (n_insts,) coalesced requests per instruction
        req_line.npy         # (n_reqs,) coalesced line addresses

The key carries the format version, so a process never opens a
directory written in another format.

Directories are written to a temp name and renamed into place, so
concurrent writers are safe; a corrupt or truncated compilation is
deleted and treated as a miss — the caller regenerates.  The address
space is not pickled but replayed from its allocation log
(:func:`mapping_rows`, :func:`rebuild_address_space`); frame allocation
is deterministic, so the virtual→physical layout — and therefore every
simulated cycle — is bit-identical to a freshly generated trace.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.gpu.coalescer import coalesce_arrays
from repro.memsys.address_space import AddressSpace
from repro.memsys.addressing import DEFAULT_LINE_SIZE, PAGE_SIZE
from repro.memsys.permissions import Permissions

__all__ = [
    "COMPILED_FORMAT_VERSION",
    "CompiledTrace",
    "TraceStore",
    "TraceValidationError",
    "compile_arrays",
    "load_compiled",
    "mapping_rows",
    "rebuild_address_space",
    "save_compiled",
    "store_key",
]

COMPILED_FORMAT_VERSION = 2

#: The array files every compilation directory must contain.
_ARRAY_FILES = (
    ("cu_bounds", np.int64),
    ("inst_flags", np.int8),
    ("inst_req_counts", np.int64),
    ("req_line", np.int64),
)


class TraceValidationError(ValueError):
    """A compiled trace (usually loaded from disk) is structurally invalid."""


class CompiledTrace:
    """A workload trace: one instruction stream per CU, as flat arrays.

    What every workload generator returns and every ``registry.load``
    hands back, whether generated in this process or mmapped from a
    :class:`TraceStore`.  ``simulate()`` and the experiment drivers read
    ``name``, ``issue_interval`` (mean compute cycles between a CU's
    memory instructions: the workload's arithmetic-intensity knob),
    ``metadata``, ``address_space``, ``n_cus``, ``n_instructions`` and
    :meth:`coalesced_per_cu`; the summary statistics are reductions
    over the same arrays.  A scratchpad instruction (flag bit 1) never
    reaches the TLB or the caches (§2.1) and has no requests.
    """

    def __init__(
        self,
        name: str,
        issue_interval: float,
        metadata: Dict[str, object],
        address_space,
        line_size: int,
        cu_bounds,
        inst_flags,
        inst_req_counts,
        req_line,
    ) -> None:
        self.name = name
        self.issue_interval = issue_interval
        self.metadata = metadata
        self.address_space = address_space
        self.line_size = line_size
        self._cu_bounds = cu_bounds
        self._inst_flags = inst_flags
        self._inst_req_counts = inst_req_counts
        self._req_line = req_line

    # -- the simulate-facing surface --------------------------------------
    @property
    def n_cus(self) -> int:
        return len(self._cu_bounds) - 1

    @property
    def n_instructions(self) -> int:
        return len(self._inst_flags)

    def coalesced_per_cu(self) -> tuple:
        """The request arrays as plain lists: what ``simulate()`` replays.

        Returns ``(lines, inst_end, inst_flags, cu_bounds)``: every
        coalesced line address in CU-major instruction order; for each
        instruction, one past the index of its last request in
        ``lines`` (a scratchpad instruction has zero requests); each
        instruction's flags (bit0 = write, bit1 = scratchpad); and the
        instruction offset where each CU's stream starts, plus the
        total.  The lists are built afresh on every call: converting is
        cheap next to simulating, and a memo would keep them alive as
        long as the trace.
        """
        return (self._req_line.tolist(),
                np.cumsum(self._inst_req_counts).tolist(),
                self._inst_flags.tolist(),
                self._cu_bounds.tolist())

    # -- summary statistics ------------------------------------------------
    def footprint_pages(self) -> int:
        """Distinct 4 KB virtual pages the memory instructions touch."""
        return int(np.unique(
            self._req_line // (PAGE_SIZE // self.line_size)).size)

    def mean_divergence(self) -> float:
        """Average coalesced line requests per global-memory instruction."""
        memory = self.n_instructions - self._scratchpad_count()
        return int(self._req_line.size) / memory if memory else 0.0

    def scratchpad_fraction(self) -> float:
        """Fraction of instructions that hit only the scratchpad."""
        total = self.n_instructions
        return self._scratchpad_count() / total if total else 0.0

    def _scratchpad_count(self) -> int:
        return int(np.count_nonzero(self._inst_flags & 2))

    # -- validation --------------------------------------------------------
    def validate_fast(self) -> None:
        """Vectorized structural validation of the backing arrays.

        Every check runs as one NumPy reduction.  Raises
        :class:`TraceValidationError` on the first problem.
        """
        where = f"compiled trace {self.name!r}"
        if self.n_instructions == 0:
            raise TraceValidationError(f"{where}: empty (zero instructions)")
        if self.n_cus <= 0:
            raise TraceValidationError(f"{where}: no CU streams")
        bounds = self._cu_bounds
        if int(bounds[0]) != 0 or int(bounds[-1]) != self.n_instructions:
            raise TraceValidationError(f"{where}: CU bounds do not tile the "
                                       f"instruction arrays")
        if bool(np.any(np.diff(bounds) < 0)):
            raise TraceValidationError(f"{where}: CU bounds not monotonic")
        counts = self._inst_req_counts
        if len(counts) != self.n_instructions:
            raise TraceValidationError(
                f"{where}: inst_req_counts has {len(counts)} rows for "
                f"{self.n_instructions} instructions")
        if bool(np.any(np.bitwise_and(self._inst_flags, ~np.int8(3)))):
            raise TraceValidationError(
                f"{where}: unknown instruction flag bits (only is_write=1 "
                f"and scratchpad=2 are defined)")
        scratch = (self._inst_flags & 2) != 0
        if bool(np.any(counts[scratch])):
            raise TraceValidationError(
                f"{where}: scratchpad instruction with coalesced requests")
        if counts.size and int(counts.min()) < 0:
            raise TraceValidationError(
                f"{where}: negative request count")
        n_reqs = int(counts.sum())
        if n_reqs != self._req_line.size:
            raise TraceValidationError(
                f"{where}: req_line holds {self._req_line.size} lines but "
                f"instructions claim {n_reqs}")
        if bool(np.any(~scratch & (counts == 0))):
            raise TraceValidationError(
                f"{where}: memory instruction with zero coalesced requests")
        if self._req_line.size and int(self._req_line.min()) < 0:
            raise TraceValidationError(
                f"{where}: negative line address {int(self._req_line.min())}")

    def __repr__(self) -> str:
        return (f"CompiledTrace(name={self.name!r}, n_cus={self.n_cus}, "
                f"n_instructions={self.n_instructions}, "
                f"line_size={self.line_size})")


def compile_arrays(name: str, issue_interval: float,
                   metadata: Dict[str, object], address_space,
                   lanes, lane_counts, flags, cu_bounds,
                   line_size: int = DEFAULT_LINE_SIZE) -> CompiledTrace:
    """Compile flat instruction arrays into a :class:`CompiledTrace`.

    ``lanes`` concatenates every instruction's lane addresses,
    ``lane_counts[i]`` and ``flags[i]`` (bit0 = write, bit1 =
    scratchpad) describe instruction ``i``, and ``cu_bounds`` holds the
    instruction offset where each CU's stream starts, plus the total.
    The coalesced request arrays come from a single vectorized
    :func:`~repro.gpu.coalescer.coalesce_arrays` call over every
    instruction at once; the lanes themselves are not kept.  Scratchpad
    instructions contribute zero requests (they never reach the memory
    hierarchy).
    """
    if address_space is None:
        raise ValueError("only traces with an address space can be compiled")
    flags = np.asarray(flags, dtype=np.int8)
    req_line, counts = coalesce_arrays(lanes, lane_counts, line_size)
    scratch = (flags & 2) != 0
    if bool(scratch.any()):
        # Drop scratchpad instructions' requests: they coalesce to None.
        inst_of_req = np.repeat(
            np.arange(len(counts), dtype=np.int64), counts)
        req_line = req_line[~scratch[inst_of_req]]
        counts = np.where(scratch, 0, counts)
    return CompiledTrace(
        name=name,
        issue_interval=issue_interval,
        metadata=metadata,
        address_space=address_space,
        line_size=line_size,
        cu_bounds=np.asarray(cu_bounds, dtype=np.int64),
        inst_flags=flags,
        inst_req_counts=np.asarray(counts, dtype=np.int64),
        req_line=np.asarray(req_line, dtype=np.int64),
    )


def store_key(name: str, scale: float, seed: Optional[int],
              line_size: int = DEFAULT_LINE_SIZE) -> str:
    """Directory name for one compilation: workload, scale, seed, line size."""
    seed_part = "default" if seed is None else str(seed)
    return (f"{name}-s{scale!r}-seed{seed_part}-ls{line_size}"
            f"-v{COMPILED_FORMAT_VERSION}")


def mapping_rows(space: AddressSpace) -> List[dict]:
    """JSON-able allocation log of ``space``.

    Each row records one mapping (base VA, page count, permissions,
    large flag) with synonym sources identified by physical equality,
    so :func:`rebuild_address_space` can replay the exact layout.
    """
    rows = []
    for m in space.mappings:
        source = -1
        pa = space.translate(m.base_va)
        for j, other in enumerate(space.mappings):
            if other is m:
                break
            if space.translate(other.base_va) == pa:
                source = j
                break
        rows.append({
            "base_va": m.base_va,
            "n_pages": m.n_pages,
            "permissions": int(m.permissions),
            "large": m.large,
            "synonym_of": source,
        })
    return rows


def rebuild_address_space(asid: int, rows: List[dict]) -> AddressSpace:
    """Replay a :func:`mapping_rows` log through a fresh address space.

    Frame allocation is deterministic, so the replay reproduces the
    exact virtual→physical layout; a row whose base VA disagrees with
    the replayed allocation raises ``ValueError``.
    """
    space = AddressSpace(asid=asid)
    rebuilt = []
    for row in rows:
        if row["synonym_of"] >= 0:
            m = space.map_synonym(rebuilt[row["synonym_of"]],
                                  permissions=Permissions(row["permissions"]))
        else:
            m = space.mmap(row["n_pages"],
                           permissions=Permissions(row["permissions"]),
                           large_pages=row["large"])
        if m.base_va != row["base_va"]:
            raise ValueError(
                f"address-space replay diverged: expected base "
                f"{row['base_va']:#x}, got {m.base_va:#x}"
            )
        rebuilt.append(m)
    return space


def save_compiled(compiled: CompiledTrace, directory: Union[str, Path],
                  scale: float, seed: Optional[int]) -> Path:
    """Write one compilation directory atomically; returns its path.

    The arrays land in a temp directory first and are renamed into
    place, so a reader never sees a half-written compilation and a
    concurrent writer race resolves to whichever rename wins.
    """
    directory = Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=str(directory.parent), prefix=".tmp-"))
    try:
        arrays = {
            "cu_bounds": compiled._cu_bounds,
            "inst_flags": compiled._inst_flags,
            "inst_req_counts": compiled._inst_req_counts,
            "req_line": compiled._req_line,
        }
        for stem, dtype in _ARRAY_FILES:
            np.save(tmp / f"{stem}.npy",
                    np.ascontiguousarray(arrays[stem], dtype=dtype))
        meta = {
            "format": COMPILED_FORMAT_VERSION,
            "name": compiled.name,
            "scale": scale,
            "seed": seed,
            "line_size": compiled.line_size,
            "issue_interval": compiled.issue_interval,
            "asid": compiled.address_space.asid,
            "metadata": compiled.metadata,
            "mappings": mapping_rows(compiled.address_space),
            "counts": {
                "instructions": compiled.n_instructions,
                "cus": compiled.n_cus,
                "requests": int(compiled._req_line.size),
            },
        }
        (tmp / "meta.json").write_text(json.dumps(meta, indent=1,
                                                  sort_keys=True))
        try:
            os.replace(tmp, directory)
        except OSError:
            # A concurrent writer won the race (or the target is
            # otherwise occupied): keep theirs, discard ours.
            shutil.rmtree(tmp, ignore_errors=True)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return directory


def load_compiled(directory: Union[str, Path]) -> Optional[CompiledTrace]:
    """Load (mmap) one compilation directory; ``None`` if absent/corrupt.

    Arrays are opened with ``mmap_mode='r'`` so concurrent processes
    replaying the same compilation share the page cache instead of
    each holding a private copy.  Any structural problem — unreadable
    JSON, missing array, shape mismatch, failed validation — deletes
    the directory and returns ``None``: the caller regenerates and the
    next save repairs the cache.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    try:
        meta = json.loads((directory / "meta.json").read_text())
        if meta.get("format") != COMPILED_FORMAT_VERSION:
            raise ValueError(f"format {meta.get('format')!r}")
        arrays = {}
        for stem, dtype in _ARRAY_FILES:
            arr = np.load(directory / f"{stem}.npy", mmap_mode="r")
            if arr.dtype != np.dtype(dtype) or arr.ndim != 1:
                raise ValueError(f"{stem}.npy has dtype {arr.dtype}, "
                                 f"ndim {arr.ndim}")
            arrays[stem] = arr
        counts = meta["counts"]
        if (len(arrays["inst_flags"]) != counts["instructions"]
                or len(arrays["cu_bounds"]) != counts["cus"] + 1
                or len(arrays["req_line"]) != counts["requests"]):
            raise ValueError("array lengths disagree with recorded counts")
        space = rebuild_address_space(meta["asid"], meta["mappings"])
        compiled = CompiledTrace(
            name=meta["name"],
            issue_interval=meta["issue_interval"],
            metadata=meta["metadata"],
            address_space=space,
            line_size=meta["line_size"],
            cu_bounds=arrays["cu_bounds"],
            inst_flags=arrays["inst_flags"],
            inst_req_counts=arrays["inst_req_counts"],
            req_line=arrays["req_line"],
        )
        compiled.validate_fast()
        return compiled
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception:
        # Corrupt, truncated, foreign, or version-skewed: drop it so
        # the next save rebuilds a good compilation.
        shutil.rmtree(directory, ignore_errors=True)
        return None


class TraceStore:
    """A directory of compiled traces keyed by (workload, scale, seed).

    ``hits``/``misses``/``stores`` count this process's traffic;
    :func:`~repro.workloads.registry.trace_cache_stats` reports them.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def path_for(self, name: str, scale: float, seed: Optional[int],
                 line_size: int = DEFAULT_LINE_SIZE) -> Path:
        return self.root / store_key(name, scale, seed, line_size)

    def load(self, name: str, scale: float, seed: Optional[int],
             line_size: int = DEFAULT_LINE_SIZE) -> Optional[CompiledTrace]:
        compiled = load_compiled(self.path_for(name, scale, seed, line_size))
        if compiled is None:
            self.misses += 1
        else:
            self.hits += 1
        return compiled

    def store(self, trace: CompiledTrace, scale: float,
              seed: Optional[int]) -> Optional[Path]:
        """Persist ``trace`` under its own line size; ``None`` on failure.

        I/O failures (full disk, permissions) are swallowed — losing a
        compilation only costs a regeneration next time.
        """
        try:
            path = save_compiled(
                trace, self.path_for(trace.name, scale, seed, trace.line_size),
                scale, seed)
        except (KeyboardInterrupt, SystemExit):
            raise
        except (OSError, ValueError):
            return None
        self.stores += 1
        return path
