"""Per-layer measurement from outside the package.

Nothing inside ``repro`` is edited.  :class:`Probes` replaces a few
public names where their callers look them up, counts and times each
call, and puts the originals back on exit:

* ``repro.bench.runner.run_bulk_exchange``: turns ``obs.metrics`` on
  and sums the metric catalog's series over experiments; splits host
  time into set-up (entry to ``Simulator.run``) and verification
  (``Simulator.run`` to return);
* ``Simulator.run``: drain time and events fired;
* ``repro.gpu.kernels.pack_bytes`` / ``unpack_bytes``: calls, bytes, time;
* ``LayoutCache.lookup``: hits and misses;
* ``DeviceMemory.alloc``: bytes allocated;
* ``Rank.isend`` / ``Rank.irecv`` and ``Request.done``: requests posted
  and completion polls.

:func:`fold_self_time` covers layers entered only through engine
callbacks: it folds a profile's self time by ``repro`` package.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, DefaultDict, Dict, List, Tuple

import numpy

import repro
from repro.bench import runner
from repro.datatypes.cache import LayoutCache
from repro.gpu import kernels
from repro.gpu.memory import DeviceMemory
from repro.mpi.communicator import Rank
from repro.mpi.request import Request
from repro.sim.engine import Simulator

#: per-layer count -> metric-catalog series summed over experiments
CATALOG_COUNTS = {
    "mpi.rts_sent": "proto_rts_sent_total",
    "mpi.rts_retransmits": "rts_retransmits_total",
    "mpi.cts_resends": "cts_resends_total",
    "core.fused_launches": "fusion_launches_total",
    "core.relaunches": "sched_relaunches_total",
    "core.batch_splits": "sched_batch_splits_total",
    "core.sync_fallbacks": "sched_sync_fallbacks_total",
    "core.deadline_relaunches": "sched_deadline_relaunches_total",
    "gpu.kernel_launches": "kernel_launches_total",
    "schemes.launch_retries": "scheme_launch_retries_total",
    "net.link_transfers": "link_transfers_total",
    "net.link_bytes": "link_bytes_total",
    "net.retransmits": "link_retransmits_total",
}
QUEUE_WAIT = "fusion_queue_latency_seconds"


class Probes:
    """Counters and span times gathered while installed (a context manager)."""

    def __init__(self) -> None:
        self.count: DefaultDict[str, float] = defaultdict(float)
        self.seconds: DefaultDict[str, float] = defaultdict(float)
        self._saved: List[Tuple[Any, str, Any]] = []
        self._run_start = 0.0
        self._run_end = 0.0

    def __enter__(self) -> "Probes":
        self._patch(runner, "run_bulk_exchange", self._wrap_exchange)
        self._patch(Simulator, "run", self._wrap_sim_run)
        self._patch(kernels, "pack_bytes", self._wrap_pack("pack"))
        self._patch(kernels, "unpack_bytes", self._wrap_pack("unpack"))
        self._patch(LayoutCache, "lookup", self._wrap_lookup)
        self._patch(DeviceMemory, "alloc", self._wrap_alloc)
        self._patch(Rank, "isend", self._wrap_request)
        self._patch(Rank, "irecv", self._wrap_request)
        self._patch(Request, "done", self._wrap_done)
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _patch(self, owner: Any, name: str, wrap: Callable[[Any], Any]) -> None:
        original = vars(owner)[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, wrap(original))

    # -- wrappers ----------------------------------------------------------------
    def _wrap_exchange(self, original: Callable[..., Any]) -> Callable[..., Any]:
        def run_bulk_exchange(cfg: Any, **kwargs: Any) -> Any:
            cfg = cfg.with_overrides({"obs.metrics": True})
            entered = time.perf_counter()
            self._run_start = self._run_end = 0.0
            result = original(cfg, **kwargs)
            left = time.perf_counter()
            if self._run_start:
                self.seconds["bench.setup"] += self._run_start - entered
                self.seconds["bench.verify"] += left - self._run_end
            plane = "wet" if cfg.harness.data_plane else "dry"
            self.seconds[f"bench.{plane}"] += left - entered
            self.count["bench.shards"] += 1
            self._absorb(result.metrics)
            return result

        return run_bulk_exchange

    def _absorb(self, snapshot: Any) -> None:
        for name, series in CATALOG_COUNTS.items():
            self.count[name] += snapshot.total(series)
        self.count["core.fused_requests"] += snapshot.total("fusion_fused_requests_total")
        self.seconds["net.fault_delay"] += snapshot.total("link_fault_delay_seconds_total")
        family = snapshot.family(QUEUE_WAIT)
        if family is not None:
            for value in family["series"].values():
                self.seconds["core.queue_wait"] += value["sum"]
                self.count["core.queue_waits"] += value["count"]

    def _wrap_sim_run(self, original: Callable[..., Any]) -> Callable[..., Any]:
        count, seconds = self.count, self.seconds

        def run(sim: Simulator, until: Any = None) -> Any:
            before = sim.events_processed
            start = time.perf_counter()
            if not self._run_start:
                self._run_start = start
            try:
                return original(sim, until)
            finally:
                self._run_end = time.perf_counter()
                seconds["sim.drain"] += self._run_end - start
                count["sim.events"] += sim.events_processed - before

        return run

    def _wrap_pack(self, kind: str) -> Callable[[Any], Any]:
        span = f"datatypes.{kind}"
        calls, nbytes = f"{span}_calls", f"{span}ed_bytes"
        count, seconds = self.count, self.seconds

        def wrap(original: Callable[..., Any]) -> Callable[..., Any]:
            def probe(buffer: Any, layout: Any, *args: Any, **kwargs: Any) -> Any:
                start = time.perf_counter()
                out = original(buffer, layout, *args, **kwargs)
                seconds[span] += time.perf_counter() - start
                count[calls] += 1
                count[nbytes] += layout.size
                return out

            return probe

        return wrap

    def _wrap_lookup(self, original: Callable[..., Any]) -> Callable[..., Any]:
        count = self.count

        def lookup(cache: LayoutCache, key: Any) -> Any:
            entry = original(cache, key)
            count["datatypes.layout_hits" if entry is not None else "datatypes.layout_misses"] += 1
            return entry

        return lookup

    def _wrap_alloc(self, original: Callable[..., Any]) -> Callable[..., Any]:
        count = self.count

        def alloc(memory: DeviceMemory, nbytes: int, *args: Any, **kwargs: Any) -> Any:
            count["gpu.alloc_bytes"] += nbytes
            return original(memory, nbytes, *args, **kwargs)

        return alloc

    def _wrap_request(self, original: Callable[..., Any]) -> Callable[..., Any]:
        count = self.count

        def post(rank: Rank, *args: Any, **kwargs: Any) -> Any:
            count["mpi.requests"] += 1
            return original(rank, *args, **kwargs)

        return post

    def _wrap_done(self, original: property) -> property:
        count, fget = self.count, original.fget
        assert fget is not None

        def done(request: Request) -> bool:
            count["mpi.done_polls"] += 1
            return fget(request)

        return property(done, doc=original.__doc__)


# -- profile folding -------------------------------------------------------------

_REPRO = str(Path(repro.__file__).resolve().parent) + "/"
_NUMPY = str(Path(numpy.__file__).resolve().parent) + "/"
_PERFBENCH = str(Path(__file__).resolve().parent) + "/"


def layer_of(filename: str, function: str) -> str:
    """The layer a profiled function's self time belongs to.

    ``repro`` packages name themselves (``sim``, ``mpi`` ...); NumPy's
    Python files and C functions are ``numpy``; the benchmark's own code
    is ``perfbench``; everything else (builtins, stdlib) is ``other``.
    """
    path = str(Path(filename).resolve()) if filename.startswith("/") else filename
    if path.startswith(_REPRO):
        rest = path[len(_REPRO):]
        return rest.split("/", 1)[0] if "/" in rest else "repro"
    if path.startswith(_NUMPY) or "numpy" in function:
        return "numpy"
    if path.startswith(_PERFBENCH):
        return "perfbench"
    return "other"


def fold_self_time(stats: Dict[Tuple[str, int, str], Tuple[Any, ...]]) -> Dict[str, float]:
    """Self seconds by layer from ``pstats.Stats(...).stats``."""
    layers: DefaultDict[str, float] = defaultdict(float)
    for (filename, _line, function), (_cc, _nc, tottime, _ct, _callers) in stats.items():
        layers[layer_of(filename, function)] += tottime
    return dict(layers)
