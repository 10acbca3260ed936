"""Per-layer spans installed from the benchmark's own files.

:func:`install` wraps the public functions at each module boundary of
the program (and the few private helpers that are the only seam for a
layer, such as the sidecar lane lookup).  Each wrapper records one span:
its duration, and the time its child spans covered on the same thread.
A layer's self time is its spans' durations minus their children's.
The benchmark's own operation span is the root; time inside it that no
wrapped call covers is the unattributed residual.

Wrappers are installed only in the traced run, and removed afterwards.
A wrap target that no longer exists is listed in ``missing``; ``run.py``
then fails the traced run (as it does when a wrapped layer records no
call in the workload it does most work in), so a refactor of the
program never reads as a layer time of 0.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Set

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self.wrapped: Set[str] = set()
        self._undo: List = []
        self.root_s = 0.0
        self.root_self_s = 0.0
        self.ops = 0

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def root(self):
        """The benchmark's span around one workload operation."""
        stack = self._stack()
        stack.append(0.0)
        began = _clock()
        try:
            yield
        finally:
            elapsed = _clock() - began
            child = stack.pop()
            self.root_s += elapsed
            self.root_self_s += elapsed - child
            self.ops += 1
            if stack:
                stack[-1] += elapsed

    def wrap(
        self,
        owner,
        attr: str,
        metric: str,
        observe: Optional[Callable] = None,
    ) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            began = _clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = _clock() - began
                child = stack.pop()
                tracer.self_s[metric] += elapsed - child
                tracer.incl_s[metric] += elapsed
                tracer.calls[metric] += 1
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(tracer, args, result, elapsed)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        self.wrapped.add(metric)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _count_nodes(tracer: Tracer, args, result, elapsed) -> None:
    tracer.counts["index.nodes_out"] += len(result)


def _count_frame(tracer: Tracer, args, result, elapsed) -> None:
    tracer.counts["protocol.response_bytes"] += len(result)
    tracer.counts["protocol.frames"] += 1


def _count_lanes(tracer: Tracer, args, result, elapsed) -> None:
    tracer.counts["segment.sidecar_hits" if result is not None else "segment.sidecar_misses"] += 1


def _count_batch(tracer: Tracer, args, result, elapsed) -> None:
    tracer.counts["executor.batches"] += 1
    tracer.counts["executor.chunks"] += len(result.chunks)
    tracer.counts["executor.degraded_chunks"] += sum(1 for c in result.chunks if c.fell_back)
    tracer.counts["executor.retries"] += sum(c.retries for c in result.chunks)
    tracer.incl_s["executor.outside_chunks"] += elapsed - sum(c.seconds for c in result.chunks)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the per-layer metrics name."""
    import repro.corpus.executor as executor
    import repro.corpus.segment as segment
    import repro.corpus.store as store
    import repro.engine.fo as fo
    import repro.engine.index as index
    import repro.engine.ir as ir
    import repro.engine.walk as walk
    import repro.engine.xpath as xpath
    import repro.service.admission as admission
    import repro.service.cache as cache
    import repro.service.server as server
    import repro.service.session as session

    wrap = tracer.wrap
    # service layers
    wrap(session.Dispatcher, "handle", "session.self_us")
    wrap(server, "encode_frame", "protocol.encode_us", _count_frame)
    wrap(admission.AdmissionController, "admit", "admission.admit_us")
    wrap(cache.ResultCache, "get", "cache.lookup_us")
    # planning
    wrap(session, "plan_queries", "planner.plan_us")
    wrap(executor, "plan_queries", "planner.plan_us")
    # executor
    import repro.corpus.corpus as corpus

    for owner in (executor, corpus, store):  # each imported it by name
        wrap(owner, "run_batch", "executor.self_us", _count_batch)
    wrap(executor, "_shard_lanes", "executor.self_us", _count_lanes)
    wrap(executor, "evaluate_cell", "executor.cell_us")
    # IR kernel
    wrap(executor, "evaluate_shard", "ir.evaluate_us")
    wrap(ir.StackedShard, "__init__", "ir.stack_us")
    wrap(ir.StackedShard, "split", "ir.stack_us")
    # indexes
    wrap(index.TreeIndex, "__init__", "index.build_us")
    wrap(index.TreeIndex, "to_nodes", "index.to_nodes_us", _count_nodes)
    wrap(index.PackedIndex, "to_nodes", "index.to_nodes_us", _count_nodes)
    wrap(index.PackedIndex, "__init__", "index.packed_us")
    wrap(store, "repair_index", "index.repair_us")
    wrap(store, "serialize_index", "index.serialize_us")
    # disk store
    wrap(segment.Segment, "trees", "segment.unpickle_us")
    wrap(segment.Segment, "tree", "segment.unpickle_us")
    wrap(store.CorpusStore, "replace", "store.replace_us")
    wrap(store.CorpusStore, "append", "store.append_us")
    # per-tree engines
    wrap(xpath, "select", "xpath.select_us")
    wrap(fo, "select", "fo.select_us")
    wrap(fo, "evaluate", "fo.evaluate_us")
    wrap(walk, "walk", "walk.walk_us")
    wrap(walk, "relation", "walk.relation_us")
    return tracer
