"""Concurrent-hammer regressions for the shared mutable state the
query service leans on: :class:`repro.caching.KeyedLRU` (plan and
index caches shared across session threads),
:class:`repro.resilience.log.ResilienceLog` (one log, many recorders)
and the executor's in-process stacked-shard memo (one corpus's
shards, many batch threads).

Each hammer drives many threads through the full API mix and then
checks *invariants*, not schedules: returned values are always correct
for their key, caches never exceed their bound, counters add up
exactly, and every mid-flight snapshot is internally consistent."""

import sys
import threading

from repro.caching import KeyedLRU
from repro.corpus import TreeCorpus, ask_query, stacked_cache_info, xpath_query
from repro.resilience.log import ResilienceLog

THREADS = 8
ROUNDS = 400


def _run_threads(target, count=THREADS):
    errors = []

    def wrapped(worker_id):
        try:
            target(worker_id)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert errors == []


class TestKeyedLRUHammer:
    def test_mixed_traffic_never_corrupts_the_cache(self):
        cache = KeyedLRU(maxsize=16, name="hammer")
        stop_clearing = threading.Event()

        def value_for(key):
            return ("value", key)

        def hammer(worker_id):
            for i in range(ROUNDS):
                key = (worker_id * 7 + i) % 40
                got = cache.get_or_compute(key, lambda k=key: value_for(k))
                # The factory races outside the lock by design; whoever
                # wins, the value handed back must belong to OUR key.
                assert got == value_for(key)
                peeked = cache.get(key)
                assert peeked is None or peeked == value_for(key)
                cache.put((worker_id, "private"), i)
                assert len(cache) <= 16
                if i % 50 == 0:
                    cache.cache_info()

        def clearer():
            while not stop_clearing.is_set():
                cache.cache_clear()
                stop_clearing.wait(0.002)

        clear_thread = threading.Thread(target=clearer)
        clear_thread.start()
        try:
            _run_threads(hammer)
        finally:
            stop_clearing.set()
            clear_thread.join(timeout=10)
        info = cache.cache_info()
        # cache_clear() resets statistics, so only the tail since the
        # last clear is visible — but it is never torn or negative.
        assert info.hits >= 0 and info.misses >= 0
        assert info.currsize == len(cache) <= 16

    def test_single_key_stampede_yields_one_coherent_value(self):
        cache = KeyedLRU(maxsize=4, name="stampede")
        barrier = threading.Barrier(THREADS)
        seen = []
        lock = threading.Lock()

        def hammer(worker_id):
            barrier.wait(timeout=30)
            value = cache.get_or_compute("hot", lambda: ("hot", "plan"))
            with lock:
                seen.append(value)

        _run_threads(hammer)
        # Several threads may have computed the miss concurrently (the
        # documented race), but everyone must still hold a correct value
        # and the cache exactly one coherent entry for the key.
        assert seen == [("hot", "plan")] * THREADS
        assert cache.get("hot") == ("hot", "plan")
        # Every call bumped exactly one of hits/misses — no lost or
        # double-counted probes.
        info = cache.cache_info()
        assert info.hits + info.misses == THREADS


class TestResilienceLogHammer:
    def test_counters_add_up_exactly_under_contention(self):
        log = ResilienceLog()
        operations = ("xpath", "ask", "select")
        per_thread = 120
        stop_reading = threading.Event()
        torn_snapshots = []

        def hammer(worker_id):
            operation = operations[worker_id % len(operations)]
            for i in range(per_thread):
                log.record_fast_success(operation)
                log.record_fallback(
                    operation, ValueError(f"boom {i}"), fallback_seconds=1.0
                )
                log.record_failure(operation, RuntimeError(f"dead {i}"))

        def reader():
            while not stop_reading.is_set():
                snap = log.snapshot()
                # A half-applied record would break this identity.
                if snap["calls"] != (
                    snap["fast_successes"]
                    + snap["fallbacks"]
                    + snap["failures"]
                ):
                    torn_snapshots.append(snap)

        read_thread = threading.Thread(target=reader)
        read_thread.start()
        try:
            _run_threads(hammer)
        finally:
            stop_reading.set()
            read_thread.join(timeout=10)
        assert torn_snapshots == []
        snap = log.snapshot()
        total = THREADS * per_thread
        assert snap["calls"] == total * 3
        assert snap["fast_successes"] == total
        assert snap["fallbacks"] == total
        assert snap["failures"] == total
        # 1.0 per fallback sums exactly in floating point.
        assert snap["fallback_seconds"] == float(total)
        assert sum(
            stats["calls"] for stats in snap["per_operation"].values()
        ) == total * 3
        assert snap["last_error"].startswith(("RuntimeError", "ValueError"))

    def test_clear_races_with_recording_without_corruption(self):
        log = ResilienceLog()

        def hammer(worker_id):
            for i in range(200):
                log.record_fast_success("op")
                if worker_id == 0 and i % 20 == 0:
                    log.clear()
                snap = log.snapshot()
                assert snap["calls"] == snap["fast_successes"]

        _run_threads(hammer)


class TestStackedMemoHammer:
    def test_overlapping_windows_answer_as_the_serial_oracle(self):
        queries = [
            xpath_query("//σ//δ"),
            ask_query("exists x exists y (x << y & O_σ(x) & O_δ(y))"),
        ]
        with TreeCorpus.random(48, max_size=24, seed=11) as corpus:
            oracle = corpus.run(queries, engine="fast").rows
            windows = [(0, 48), (0, 24), (12, 36), (24, 48), (0, 24), (5, 40)]

            finished = []

            def hammer(worker_id):
                for i in range(12):
                    start, stop = windows[(worker_id + i) % len(windows)]
                    rows = corpus.run(
                        queries, engine="auto", start=start, stop=stop,
                        chunk_size=8 + 4 * (worker_id % 2),
                    ).rows
                    assert rows == oracle[start:stop]
                    info = stacked_cache_info()
                    assert info.currsize <= len(corpus)
                finished.append(worker_id)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave inside the memo
            try:
                _run_threads(hammer)
            finally:
                sys.setswitchinterval(interval)
            assert sorted(finished) == list(range(THREADS))
            info = stacked_cache_info()
            assert info.maxsize == len(corpus)
            assert 0 < info.currsize <= len(corpus)
            assert info.hits > 0
