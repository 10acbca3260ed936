"""Child-process side of the benchmark.

``run.py`` starts this script once per task so that every measured
process is fresh and its peak memory is its own:

* ``prep-pool`` / ``prep-oracle`` build the cached document pool and
  its oracle tables, ``prep-store`` / ``prep-store-plan`` one seed's
  store and write plan (see :mod:`inputs`);
* ``batch`` hosts ``batch-ask`` or ``batch-gaps`` in-process;
* ``store`` hosts ``store-rw``: a read-only handle, a writer handle and
  the reader's worker pool;
* ``serve-replay`` hosts the served path in-thread for the traced run
  of ``serve-nodes``.

The measuring tasks take one JSON argument and print one JSON line.
With ``"setup_only"`` they stop after the first answered operation.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from typing import Optional

import common
from common import (
    WrongAnswer,
    COLDPATH_QUERIES,
    FULL,
    KERNEL_QUERIES,
    SMOKE,
    corpus_queries,
    emit,
    row_digest,
    median,
    tail,
    wire_queries,
)
from speed import Speed

_clock = time.perf_counter

PROFILES = {FULL.name: FULL, SMOKE.name: SMOKE}


def _corrupt(digests, position: int):
    """A copy of ``digests`` with one oracle row deliberately wrong (the
    smoke tests' proof that a mismatch fails the run)."""
    digests = list(digests)
    digests[position] = row_digest("corrupt")
    return digests


def _check_rows(rows, digests, start: int) -> Optional[int]:
    """Offset of the first row that differs from the oracle, or None."""
    for offset, row in enumerate(rows):
        if row_digest(row) != digests[start + offset]:
            return offset
    return None


# -- batch-ask / batch-gaps ---------------------------------------------------


def host_batch(config: dict) -> dict:
    import inputs
    from repro.corpus import TreeCorpus

    sizes = PROFILES[config["sizes"]]
    seed = config["seed"]
    name = "ask" if config["workload"] == "batch-ask" else "gaps"
    queries = corpus_queries(common.ORACLE_SETS[name])
    width = sizes.ask_window if name == "ask" else sizes.gaps_window
    rate = sizes.batch_ask_rate if name == "ask" else sizes.batch_gaps_rate
    count = max(12, int(round(config["seconds"] * rate)))
    windows = inputs.batch_windows(sizes, seed, name, width, count + 1)
    oracle = inputs.corpus_oracle(sizes, seed, name)
    if config.get("corrupt"):
        oracle = _corrupt(oracle, windows[0][0])
    files = inputs.tree_files(sizes, seed)

    def check(result, window) -> None:
        offset = _check_rows(result.rows, oracle, window[0])
        if offset is not None:
            raise WrongAnswer(
                f"{config['workload']} tree {window[0] + offset} differs from the oracle"
            )

    speed = Speed()
    speed.sample()
    began = _clock()
    corpus = TreeCorpus(inputs.load_trees(files))
    corpus.prepare()
    corpus.statistics()
    first = corpus.run(queries, engine="auto", start=windows[0][0], stop=windows[0][1])
    ended = _clock()
    speed.sample()
    setup_s, setup_raw_s = speed.scaled(began, ended), ended - began
    check(first, windows[0])
    if config.get("setup_only"):
        return {"setup_s": setup_s, "setup_raw_s": setup_raw_s}

    ops = windows[1:]
    spans, outside = [], []
    chunks = degraded = retries = 0
    for window in ops:
        began = _clock()
        result = corpus.run(queries, engine="auto", start=window[0], stop=window[1])
        ended = _clock()
        speed.sample()
        spans.append((began, ended))
        outside.append(ended - began - sum(c.seconds for c in result.chunks))
        chunks += len(result.chunks)
        degraded += sum(1 for c in result.chunks if c.fell_back)
        retries += sum(c.retries for c in result.chunks)
        check(result, window)
    cells = sum(b - a for a, b in ops) * len(queries)
    out = _latency_block(spans, cells, speed)
    out.update(
        setup_s=setup_s,
        setup_raw_s=setup_raw_s,
        attempted=len(ops),
        failed=0,
        peak_rss_mb=common.self_peak_rss_mb() + common.children_peak_rss_mb(),
        layers={
            "failed_share": 0.0,
            "executor.ipc_us": 1e6 * sum(outside) / len(ops),
            "executor.chunks": chunks / len(ops),
            "executor.degraded_chunks": degraded,
            "executor.retries": retries,
        },
    )
    if config.get("trace"):
        out["trace"] = _traced_replay(
            ops, sum(speed.scale_spans(spans)),
            lambda window: corpus.run(queries, engine="auto", start=window[0], stop=window[1]),
            check, speed,
        )
    corpus.close()
    return out


def _latency_block(spans, cells, speed: Speed) -> dict:
    """End-to-end figures of timed ``(began, ended)`` operation spans at
    the reference speed; the raw figures go to the context line."""
    raw = [ended - began for began, ended in spans]
    latencies = speed.scale_spans(spans)
    value, percentile, samples = tail(latencies)
    return {
        "latency_p50_ms": 1000.0 * median(latencies),
        "latency_tail_ms": 1000.0 * value,
        "tail_percentile": percentile,
        "samples": samples,
        "throughput_cells_s": cells / sum(latencies),
        "raw": {
            "latency_p50_ms": 1000.0 * median(raw),
            "latency_tail_ms": 1000.0 * tail(raw)[0],
            "throughput_cells_s": cells / sum(raw),
            "probe_ms": 1000.0 * speed.median_s(),
        },
    }


def _traced_replay(ops, untraced_s: float, run_op, check, speed: Speed) -> dict:
    """Replay ``ops`` with every layer wrapped (answers still checked,
    outside the operation span); returns the tracer's accounting
    normalized per operation.  ``untraced_s`` is the same operations'
    time untraced, at the reference speed."""
    import tracer as tracing
    from repro.engine.plans import plan_cache_info

    tracer = tracing.install(tracing.Tracer())
    before = plan_cache_info()
    spans = []
    try:
        for op in ops:
            began = _clock()
            with tracer.root():
                result = run_op(op)
            spans.append((began, _clock()))
            speed.sample()
            check(result, op)
    finally:
        tracer.uninstall()
    after = plan_cache_info()
    return _trace_summary(tracer, untraced_s, before, after, sum(speed.scale_spans(spans)))


def _trace_summary(tracer, untraced_s, before, after, traced_s=None) -> dict:
    """Per-operation layer figures.  The overhead compares ``traced_s``
    (the root spans' time, by default raw) with ``untraced_s``."""
    ops = max(1, tracer.ops)
    layers = {
        metric: 1e6 * seconds / ops
        for metric, seconds in tracer.self_s.items()
    }
    layers["index.builds"] = tracer.calls["index.build_us"] / ops
    layers["index.nodes_out"] = tracer.counts["index.nodes_out"] / ops
    frames = tracer.counts["protocol.frames"]
    layers["protocol.response_bytes"] = (
        tracer.counts["protocol.response_bytes"] / frames if frames else 0.0
    )
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    layers["plans.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    lanes = tracer.counts["segment.sidecar_hits"] + tracer.counts["segment.sidecar_misses"]
    layers["segment.sidecar_hit_ratio"] = (
        tracer.counts["segment.sidecar_hits"] / lanes if lanes else 0.0
    )
    total = tracer.root_s
    unattributed = tracer.root_self_s
    layers["trace.unattributed_pct"] = 100.0 * unattributed / total if total else 0.0
    traced = total if traced_s is None else traced_s
    layers["trace.overhead_pct"] = (
        100.0 * (traced - untraced_s) / untraced_s if untraced_s else 0.0
    )
    return {
        "layers": layers,
        "missing": tracer.missing,
        "wrapped": sorted(tracer.wrapped),
        "calls": dict(tracer.calls),
        "traced_ops": tracer.ops,
    }


# -- store-rw -----------------------------------------------------------------


def _store_files(path: str) -> dict:
    out = {}
    for name in os.listdir(path):
        info = os.stat(os.path.join(path, name))
        out[name] = (info.st_ino, info.st_size, info.st_mtime_ns)
    return out


def _written_bytes(before: dict, after: dict) -> int:
    """Bytes of store files a write created, plus bytes files grew by."""
    total = 0
    for name, (inode, size, mtime) in after.items():
        old = before.get(name)
        if old is None or old[0] != inode:
            total += size
        elif old[2] != mtime:
            total += max(0, size - old[1])
    return total


class StoreRun:
    """One pass of the store-rw schedule over a fresh copy of the
    seed's store."""

    def __init__(self, sizes, seed, plan, scratch, corrupt=False) -> None:
        import inputs

        self.sizes = sizes
        self.plan = plan
        self.queries = corpus_queries(COLDPATH_QUERIES)
        self.rows = plan["rows"]
        if corrupt:
            self.rows = _corrupt(self.rows, 0)
        self.path = scratch
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(inputs.store_path(sizes, seed), scratch)
        #: position -> digests of every version ever committed there
        self.versions = {}
        self.reader = self.writer = None

    def open(self, workers: int, speed: Speed):
        """Open both handles and answer the first window; return the
        set-up time at the reference speed, and raw."""
        from repro.corpus import CorpusStore

        width = self.sizes.store_window
        speed.sample()
        began = _clock()
        self.writer = CorpusStore.open(self.path)
        self.reader = CorpusStore.open(self.path, readonly=True)
        self.reader.statistics()
        self.workers = workers
        first = self.read(0, width)
        ended = _clock()
        speed.sample()
        self.classify(first, 0)
        return speed.scaled(began, ended), ended - began

    def read(self, start: int, stop: int):
        return self.reader.run(
            self.queries, workers=self.workers, engine="auto",
            start=start, stop=stop,
        )

    def classify(self, result, start: int) -> str:
        """``ok`` when the window equals the model at the reader's
        token generation; ``stale`` when every differing cell equals a
        committed version of its tree; otherwise the run fails."""
        verdict = "ok"
        for offset, row in enumerate(result.rows):
            digest = row_digest(row)
            if digest == self.rows[start + offset]:
                continue
            if digest not in self.versions.get(start + offset, ()):
                raise WrongAnswer(
                    f"store-rw tree {start + offset} matches no committed version"
                )
            verdict = "stale"
        return verdict

    def write(self, index: int) -> None:
        kind, position, tree, site, digest = self.plan["writes"][index]
        if kind == "append":
            self.writer.append(tree)
        else:
            self.writer.replace(position, tree, site=site)
            self.versions.setdefault(position, []).append(digest)

    def close(self) -> None:
        for handle in (self.reader, self.writer):
            if handle is not None:
                handle.close()
        self.reader = self.writer = None

    def disk_bytes_per_node(self) -> float:
        total = sum(
            os.path.getsize(os.path.join(self.path, name))
            for name in os.listdir(self.path)
        )
        return total / self.writer.node_count


def host_store(config: dict) -> dict:
    import inputs

    sizes = PROFILES[config["sizes"]]
    seed = config["seed"]
    plan = inputs.load_pickle(inputs.store_plan_path(sizes, seed))
    scratch = os.path.join(common.WORK, f"run-{os.getpid()}")
    reads = max(12, int(round(config["seconds"] * sizes.store_read_rate)))
    ops = inputs.store_schedule(sizes, seed, reads, plan["writes"])
    run = StoreRun(sizes, seed, plan, os.path.join(scratch, "live"), config.get("corrupt"))
    speed = Speed()
    try:
        try:
            setup_s, setup_raw_s = run.open(1, speed)
            if config.get("setup_only"):
                return {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
            out = _store_pass(run, ops, speed)
            out.update(setup_s=setup_s, setup_raw_s=setup_raw_s)
            out["layers"]["disk_bytes_per_node"] = run.disk_bytes_per_node()
        finally:
            run.close()  # joins the worker, so its peak counts below
        out["rss_mb"] = {
            "host": common.self_peak_rss_mb(), "worker": common.children_peak_rss_mb(),
        }
        out["peak_rss_mb"] = sum(out["rss_mb"].values())
        if config.get("trace"):
            out["trace"] = _store_trace(sizes, seed, plan, ops, scratch)
        return out
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _store_pass(run: StoreRun, ops, speed: Speed, wrap=None) -> dict:
    spans, write_spans, outside = [], [], []
    written = chunks = degraded = retries = stale = lag = 0
    for op, value in ops:
        if op == "write":
            files = _store_files(run.path)
            began = _clock()
            if wrap is None:
                run.write(value)
            else:
                with wrap():
                    run.write(value)
            write_spans.append((began, _clock()))
            written += _written_bytes(files, _store_files(run.path))
            continue
        start = value
        speed.sample()
        began = _clock()
        if wrap is None:
            result = run.read(start, start + run.sizes.store_window)
        else:
            with wrap():
                result = run.read(start, start + run.sizes.store_window)
        ended = _clock()
        speed.sample()
        spans.append((began, ended))
        outside.append(ended - began - sum(c.seconds for c in result.chunks))
        chunks += len(result.chunks)
        degraded += sum(1 for c in result.chunks if c.fell_back)
        retries += sum(c.retries for c in result.chunks)
        lag += run.writer.generation - run.reader.generation
        if run.classify(result, start) == "stale":
            stale += 1
    reads = len(spans)
    cells = reads * run.sizes.store_window * len(run.queries)
    out = _latency_block(spans, cells, speed)
    writes = [ended - began for began, ended in write_spans]
    write_tail, write_pct, write_n = tail(writes)
    out.update(
        attempted=reads + len(writes),
        failed=stale,
        busy_s=sum(speed.scale_spans(spans + write_spans)),
        write_tail_percentile=write_pct,
        write_samples=write_n,
        layers={
            "failed_share": stale / (reads + len(writes)),
            "store.stale_windows": stale,
            "store.generation_lag": lag / reads,
            "store.bytes_per_write": written / len(writes) if writes else 0.0,
            "write_p50_ms": 1000.0 * median(writes),
            "write_tail_ms": 1000.0 * write_tail,
            "executor.ipc_us": 1e6 * sum(outside) / reads,
            "executor.chunks": chunks / reads,
            "executor.degraded_chunks": degraded,
            "executor.retries": retries,
        },
    )
    return out


def _store_trace(sizes, seed, plan, ops, scratch) -> dict:
    """Replay the first half of the operations serially (``workers=0``
    takes the same shard and sidecar route in-process): once untraced
    for the overhead baseline, once with every layer wrapped.  Half, as
    both replays keep their packed lanes in this process."""
    import tracer as tracing
    from repro.engine.plans import plan_cache_info

    ops = ops[: len(ops) // 2]

    speed = Speed()
    baseline = StoreRun(sizes, seed, plan, os.path.join(scratch, "baseline"))
    try:
        baseline.open(0, speed)
        untraced = _store_pass(baseline, ops, speed)
    finally:
        baseline.close()
    traced_run = StoreRun(sizes, seed, plan, os.path.join(scratch, "traced"))
    tracer = tracing.Tracer()
    try:
        traced_run.open(0, speed)
        tracing.install(tracer)
        before = plan_cache_info()
        traced = _store_pass(traced_run, ops, speed, wrap=tracer.root)
    finally:
        tracer.uninstall()
        traced_run.close()
    after = plan_cache_info()
    return _trace_summary(tracer, untraced["busy_s"], before, after, traced["busy_s"])


# -- serve-nodes, traced: the served path in-thread ---------------------------


def served_dispatcher(corpus):
    """A dispatcher configured as ``repro serve FILE…`` configures one,
    read from the CLI's own defaults."""
    from repro.__main__ import build_parser
    from repro.service import AdmissionController, Dispatcher

    args = build_parser().parse_args(["serve"])
    return Dispatcher(
        corpus,
        admission=AdmissionController(
            max_inflight=args.max_inflight,
            quota_steps=args.quota_steps or None,
            window_seconds=args.quota_window,
        ),
        workers=args.workers,
        default_timeout_ms=args.timeout_ms or None,
        allow_faults=args.allow_faults,
        result_cache=args.result_cache,
    )


def host_serve_replay(config: dict) -> dict:
    """Closed loop on one connection over the given windows, against an
    in-thread server: once untraced, once traced (each pass with a fresh
    dispatcher, so both start from an empty result cache)."""
    import contextlib

    import inputs
    import loadgen
    import tracer as tracing
    from repro.corpus import TreeCorpus
    from repro.engine.plans import plan_cache_info
    from repro.service import QueryServer
    from repro.service.protocol import decode_payload, encode_frame

    sizes = PROFILES[config["sizes"]]
    seed = config["seed"]
    windows = [tuple(w) for w in config["windows"]]
    expected = loadgen.oracle_json(inputs.corpus_oracle(sizes, seed, "kernel"))
    queries = wire_queries(KERNEL_QUERIES)
    frames = [
        encode_frame({
            "op": "query", "queries": queries,
            "options": {"start": a, "stop": b, "engine": "auto"},
        })
        for a, b in windows
    ]
    corpus = TreeCorpus(inputs.load_trees(inputs.tree_files(sizes, seed)))
    corpus.prepare()
    corpus.statistics()
    totals = []
    for traced in (False, True):
        server = QueryServer(served_dispatcher(corpus)).start_in_thread()
        tracer = tracing.install(tracing.Tracer()) if traced else None
        before = plan_cache_info()
        rt = 0.0
        try:
            with contextlib.closing(loadgen.connect(*server.address)) as sock:
                for frame, window in zip(frames, windows):
                    span = tracer.root() if traced else contextlib.nullcontext()
                    with span:
                        began = _clock()
                        sock.sendall(frame)
                        body = loadgen.read_body(sock)
                        rt += _clock() - began
                    loadgen.classify(decode_payload(body), window, expected)
        finally:
            if tracer is not None:
                tracer.uninstall()
            server.stop()
        totals.append(rt)
    after = plan_cache_info()
    summary = _trace_summary(tracer, totals[0], before, after)
    ops = max(1, tracer.ops)
    layers = summary["layers"]
    transport = rt - tracer.incl_s["session.self_us"] - tracer.incl_s["protocol.encode_us"]
    layers["server.transport_us"] = 1e6 * transport / ops
    layers["executor.chunks"] = tracer.counts["executor.chunks"] / ops
    layers["executor.degraded_chunks"] = tracer.counts["executor.degraded_chunks"]
    layers["executor.retries"] = tracer.counts["executor.retries"]
    # The client's operation span has no children on its own thread:
    # the server's spans run on the server's threads, strictly inside
    # the round trip (one connection, closed loop).  What no span
    # covers is therefore the transport.
    layers["trace.unattributed_pct"] = 100.0 * transport / tracer.root_s
    layers["executor.ipc_us"] = 1e6 * tracer.incl_s["executor.outside_chunks"] / ops
    return summary


TASKS = {
    "batch": host_batch,
    "store": host_store,
    "serve-replay": host_serve_replay,
}


def main(argv) -> int:
    common.ensure_program()
    task = argv[1]
    if task.startswith("prep-"):
        import inputs

        sizes = PROFILES[argv[2]]
        if task == "prep-pool":
            inputs.write_pool_files(sizes)
        elif task == "prep-oracle":
            inputs.write_oracle(sizes, argv[3], part=int(argv[4]))
        elif task == "prep-store":
            inputs.write_store(sizes, int(argv[3]))
        elif task == "prep-store-plan":
            inputs.write_store_plan(sizes, int(argv[3]))
        else:
            raise SystemExit(f"unknown task {task}")
        return 0
    config = json.loads(argv[2])
    try:
        result = TASKS[task](config)
    except WrongAnswer as exc:
        emit({"wrong_answer": str(exc)})
        return 3
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
