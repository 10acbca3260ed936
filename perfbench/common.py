"""Shared constants and helpers of the benchmark.

Nothing here imports the program: ``run.py`` must be able to start,
parse its arguments and fail cleanly in a directory that holds only the
benchmark.  Query sets are therefore kept as plain ``(kind, text,
context)`` triples and turned into :class:`repro.corpus.CorpusQuery`
values by :func:`corpus_queries` once the program is importable.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Generated inputs, cached per seed, and per-run scratch copies.
WORK = os.path.join(HERE, ".work")

#: Bumped whenever generation or oracle code changes, so cached inputs
#: from an older benchmark are never reused.
INPUT_VERSION = 8

QueryTriple = Tuple[str, str, Tuple[int, ...]]

#: The nine root-context queries of the repo's kernel bench (every
#: dialect the plan IR covers).  Served on ``serve-nodes``.
KERNEL_QUERIES: Tuple[QueryTriple, ...] = (
    ("xpath", "//δ", ()),
    ("xpath", "//σ//δ", ()),
    ("xpath", "//σ[.//δ]//σ", ()),
    ("ask", "exists x O_σ(x)", ()),
    ("ask", "forall x (leaf(x) -> O_δ(x))", ()),
    ("ask", "exists x exists y (x << y & O_σ(x) & O_δ(y))", ()),
    ("select", "x << y & O_δ(y)", ()),
    ("caterpillar", "down*", ()),
    ("caterpillar", "(down | right)* <δ>", ()),
)

#: The IR-eligible cold-path queries of the store bench (the packed
#: sidecar lane path engages only when every query lowers to the IR).
COLDPATH_QUERIES: Tuple[QueryTriple, ...] = (
    ("xpath", "//σ//δ", ()),
    ("ask", "exists x exists y (x << y & O_σ(x) & O_δ(y))", ()),
    ("select", "x << y & O_δ(y)", ()),
)

#: Boolean sentences the planner sends to the fast engine and the
#: executor upgrades to the stacked IR pass, so nothing is materialized.
#: Nested quantifiers over the descendant, following and child axes
#: give the IR kernel as much work per lane as the sentence language
#: allows while the reference oracle stays affordable; mixed truth
#: values across trees keep the answer check meaningful.
ASK_QUERIES: Tuple[QueryTriple, ...] = (
    ("ask", "exists x exists y (x << y & O_σ(x) & O_δ(y))", ()),
    ("ask", "forall x (O_δ(x) -> exists y (y << x & O_σ(y) & exists z (y << z & O_δ(z))))", ()),
    ("ask", "forall x (leaf(x) -> exists y (y << x & O_σ(y)))", ()),
    ("ask", "exists x exists y (E(x, y) & O_σ(x) & O_δ(y))", ()),
    ("ask", "forall x (O_σ(x) -> exists y (x << y & O_δ(y) & exists z (y << z & O_σ(z) & exists w (z << w & O_δ(w)))))", ()),
    ("ask", "exists x exists y (x << y & O_σ(x) & O_δ(y) & exists z (y < z & O_σ(z) & exists w (z << w & O_δ(w))))", ()),
    ("ask", "forall x (O_δ(x) -> exists y (x < y & exists z (y << z & O_σ(z))))", ()),
    ("ask", "exists x (O_σ(x) & exists y (E(x, y) & O_σ(y) & exists z (E(y, z) & O_δ(z))))", ()),
)

#: Queries outside the IR fragment, one per gap: a non-root context
#: (XPath and caterpillar), value-equality atoms (FO select and
#: sentence) and the all-pairs caterpillar relation.
GAP_QUERIES: Tuple[QueryTriple, ...] = (
    ("xpath", "//σ//δ", (0,)),
    ("select", "x << y & val_a(y) = 2", ()),
    ("ask", "exists x (O_δ(x) & val_a(x) = 2)", ()),
    ("caterpillar", "(down | right)* <δ>", (0,)),
    ("caterpillar-relation", "down <σ>", ()),
)


#: The query set of each oracle table, by table name.
ORACLE_SETS: Dict[str, Tuple[QueryTriple, ...]] = {
    "kernel": KERNEL_QUERIES,
    "ask": ASK_QUERIES,
    "gaps": GAP_QUERIES,
    "store": COLDPATH_QUERIES,
}


@dataclass(frozen=True)
class Sizes:
    """Every size knob of one benchmark profile."""

    name: str
    corpus_trees: int          # serve-nodes, batch-ask, batch-gaps
    store_trees: int           # store-rw
    store_segment: int         # trees per store segment
    min_nodes: int
    max_nodes: int
    serve_rate: float          # serve-nodes reference rate (requests/s)
    serve_requests: int        # floor of reference-phase requests
    serve_ladder: Tuple[float, ...]
    ladder_seconds: float
    serve_limit_ms: float      # latency limit of the rate ladder
    capacity_requests: int     # closed-loop capacity phase (2 connections), one wide
    capacity_round: int        # capacity requests between two speed probes
    narrow: int                # serve window widths: log-uniform [narrow, wide_cap]
    wide_cap: int
    wide: int                  # the rare very wide window
    replay_requests: int       # serve-nodes traced replay
    ask_window: int
    gaps_window: int
    store_window: int
    batch_ask_rate: float      # design operations per second
    batch_gaps_rate: float
    store_read_rate: float
    setups: int                # set-ups per run; setup_s is their median


FULL = Sizes(
    name="full",
    corpus_trees=2048,
    store_trees=10_000,
    store_segment=1024,
    min_nodes=24,
    max_nodes=64,
    serve_rate=5.0,
    serve_requests=120,
    serve_ladder=(8.0, 16.0, 24.0, 32.0, 40.0, 48.0),
    ladder_seconds=2.0,
    serve_limit_ms=500.0,
    capacity_requests=120,
    capacity_round=12,
    narrow=16,
    wide_cap=256,
    wide=1024,
    replay_requests=80,
    ask_window=2048,
    gaps_window=256,
    store_window=256,
    batch_ask_rate=6.0,
    batch_gaps_rate=8.0,
    store_read_rate=15.0,
    setups=3,
)

#: The tiny profile of ``--smoke``: same code paths, seconds not minutes.
SMOKE = Sizes(
    name="smoke",
    corpus_trees=96,
    store_trees=640,
    store_segment=64,
    min_nodes=24,
    max_nodes=40,
    serve_rate=20.0,
    serve_requests=20,
    serve_ladder=(20.0, 40.0),
    ladder_seconds=0.5,
    serve_limit_ms=500.0,
    capacity_requests=10,
    capacity_round=5,
    narrow=4,
    wide_cap=16,
    wide=64,
    replay_requests=8,
    ask_window=96,
    gaps_window=32,
    store_window=32,
    batch_ask_rate=10.0,
    batch_gaps_rate=10.0,
    store_read_rate=40.0,
    setups=2,
)


def corpus_queries(triples: Sequence[QueryTriple]):
    from repro.corpus import CorpusQuery

    return tuple(CorpusQuery(kind, text, context) for kind, text, context in triples)


def wire_queries(triples: Sequence[QueryTriple]) -> List[dict]:
    out = []
    for kind, text, context in triples:
        item = {"kind": kind, "text": text}
        if context:
            item["context"] = list(context)
        out.append(item)
    return out


def row_digest(row) -> bytes:
    """A compact fingerprint of one canonical result row, so a hosted
    workload's process holds 12 bytes per tree instead of the answers
    (its peak RSS is a measured metric)."""
    return hashlib.blake2b(repr(row).encode("utf-8"), digest_size=12).digest()


class WrongAnswer(AssertionError):
    """The program answered a cell differently from the oracle."""


# -- program access -----------------------------------------------------------


class ProgramMissing(RuntimeError):
    """The checkout holds no importable program next to the benchmark."""


def ensure_program() -> None:
    """Put the checkout's ``src`` first on the import path and import
    the program, or raise :class:`ProgramMissing`."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise ProgramMissing(f"no program sources at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import repro.corpus  # noqa: F401
        import repro.service  # noqa: F401
    except ImportError as exc:
        raise ProgramMissing(f"cannot import the program: {exc}") from exc


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's sources first."""
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + previous if previous else "")
    env["PYTHONHASHSEED"] = "0"
    return env


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile that
    has at least ten samples beyond it: the eleventh largest value.
    With twenty samples or fewer that percentile is not above the median
    (no tail to speak of), so the maximum is reported as percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 20:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n


def calibration_ms() -> float:
    """Best of five runs of a fixed pure-Python loop, in milliseconds —
    recorded beside every run so figures compare across machines."""
    best = float("inf")
    for _ in range(5):
        began = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += (i * i) % 7
        best = min(best, time.perf_counter() - began)
    return best * 1000.0


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak resident set among this process's waited-for
    children (its worker processes, once joined)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def emit(payload: dict) -> None:
    """One JSON line on standard output."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()
