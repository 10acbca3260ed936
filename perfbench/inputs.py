"""Seeded inputs, oracle answers and operation schedules.

Everything a run feeds the program derives from ``--seed``: which
documents it holds and in what order, the window schedules and the
store's write schedule.  Documents come from a fixed pool twice the size
a run needs (:data:`_POOL_FACTOR`); the seed samples and orders its
corpus or store from that pool.  The pool's documents and their
reference answers are built once per checkout by child processes and
cached under ``.work/``, so a new seed costs no oracle work: its
answers are the pool's, in the seed's order.  The one per-seed input is
the store, ingested through the program's own ``ingest``.

Oracle answers come from the reference evaluators (the paper's
semantics), one tree and one query at a time, before any timing.
"""

from __future__ import annotations

import math
import os
import pickle
import random
import shutil
import subprocess
import sys
from typing import List, Sequence, Tuple

from common import (
    HERE,
    INPUT_VERSION,
    ORACLE_SETS,
    WORK,
    Sizes,
    child_env,
)

Window = Tuple[int, int]
Spec = Tuple[int, int]

#: A pool holds this many times the documents one run uses.
_POOL_FACTOR = 2
#: Per-seed stores kept on disk before the oldest are removed.
_KEEP_SEEDS = 12
#: Pool oracle tables are computed by this many processes at once.
_ORACLE_PARTS = 2


def rng_for(seed: int, salt: str) -> random.Random:
    """One independent, reproducible stream per (seed, purpose)."""
    return random.Random(f"perfbench:{salt}:{seed}")


def document_specs(sizes: Sizes, count: int, rng: random.Random) -> List[Spec]:
    """``(nodes, generator seed)`` of ``count`` document-sized trees:
    ``min_nodes``–``max_nodes`` nodes."""
    return [
        (rng.randint(sizes.min_nodes, sizes.max_nodes), rng.getrandbits(32))
        for _ in range(count)
    ]


def document(spec: Spec):
    """The tree of one spec: σ/δ labels, attribute ``a`` over 1–3."""
    from repro.trees import random_tree

    size, seed = spec
    return random_tree(size, value_pool=(1, 2, 3), max_children=3, seed=seed)


def reference_row(queries, tree) -> tuple:
    from repro.corpus.executor import evaluate_cell

    return tuple(evaluate_cell(query, tree, "reference") for query in queries)


# -- the document pools -------------------------------------------------------


def pool_dir(sizes: Sizes) -> str:
    return os.path.join(WORK, f"pool-v{INPUT_VERSION}-{sizes.name}")


def pool_specs(sizes: Sizes, kind: str) -> List[Spec]:
    """The fixed pool of ``kind`` (``corpus`` or ``store``)."""
    count = sizes.corpus_trees if kind == "corpus" else sizes.store_trees
    return document_specs(sizes, _POOL_FACTOR * count, rng_for(0, f"pool-{kind}"))


def pool_files(sizes: Sizes) -> List[str]:
    folder = os.path.join(pool_dir(sizes), "trees")
    return [
        os.path.join(folder, f"tree-{i:05d}.txt")
        for i in range(_POOL_FACTOR * sizes.corpus_trees)
    ]


def pool_oracle_path(sizes: Sizes, name: str) -> str:
    return os.path.join(pool_dir(sizes), f"oracle-{name}.pickle")


def _run_host(task: str, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "host.py"), task, *args],
        env=child_env(),
    )


def _wait_all(children: Sequence[subprocess.Popen]) -> None:
    failed = []
    for child in children:
        if child.wait() != 0:
            failed.append(child.args[2])
    if failed:
        raise RuntimeError(f"input preparation failed: {failed}")


def _ensure_pool_oracle(sizes: Sizes, name: str) -> None:
    final = pool_oracle_path(sizes, name)
    if os.path.exists(final):
        return
    _wait_all([
        _run_host("prep-oracle", sizes.name, name, str(part))
        for part in range(_ORACLE_PARTS)
    ])
    rows = []
    for part in range(_ORACLE_PARTS):
        rows.extend(load_pickle(f"{final}.{part}"))
        os.unlink(f"{final}.{part}")
    _dump(final, rows)


def write_pool_files(sizes: Sizes) -> None:
    from repro.trees.parser import format_term

    files = pool_files(sizes)
    folder = os.path.dirname(files[0])
    staging = folder + ".partial"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    for path, spec in zip(files, pool_specs(sizes, "corpus")):
        with open(os.path.join(staging, os.path.basename(path)), "w", encoding="utf-8") as handle:
            handle.write(format_term(document(spec)))
    shutil.rmtree(folder, ignore_errors=True)
    os.replace(staging, folder)


def write_oracle(sizes: Sizes, name: str, part: int) -> None:
    """Reference answers of one contiguous share of a pool: full rows
    (``kernel``, compared as JSON), or their
    :func:`~common.row_digest` fingerprints."""
    from common import corpus_queries, row_digest

    if name == "store":
        specs = pool_specs(sizes, "store")
        share = -(-len(specs) // _ORACLE_PARTS)
        trees = [document(spec) for spec in specs[part * share:(part + 1) * share]]
    else:
        files = pool_files(sizes)
        share = -(-len(files) // _ORACLE_PARTS)
        trees = load_trees(files[part * share:(part + 1) * share])
    compiled = corpus_queries(ORACLE_SETS[name])
    rows = [reference_row(compiled, tree) for tree in trees]
    if name != "kernel":
        rows = [row_digest(row) for row in rows]
    _dump(f"{pool_oracle_path(sizes, name)}.{part}", rows)


def _dump(path: str, value) -> None:
    partial = path + ".partial"
    with open(partial, "wb") as handle:
        pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(partial, path)


def load_pickle(path: str):
    with open(path, "rb") as handle:
        return pickle.load(handle)


def load_trees(files: Sequence[str]):
    """Parse the document files, as ``repro serve FILE…`` does."""
    from repro.trees.parser import parse_term

    trees = []
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            trees.append(parse_term(handle.read()))
    return trees


# -- corpus inputs (serve-nodes, batch-ask, batch-gaps) ------------------------


def ensure_corpus_inputs(sizes: Sizes, name: str) -> None:
    """Write the pool's documents and its ``name`` oracle table unless
    already cached."""
    os.makedirs(WORK, exist_ok=True)
    if not os.path.exists(pool_files(sizes)[-1]):
        _wait_all([_run_host("prep-pool", sizes.name)])
    _ensure_pool_oracle(sizes, name)


def corpus_order(sizes: Sizes, seed: int) -> List[int]:
    """The pool documents of the seed's corpus, in corpus order."""
    pool = _POOL_FACTOR * sizes.corpus_trees
    return rng_for(seed, "corpus").sample(range(pool), sizes.corpus_trees)


def tree_files(sizes: Sizes, seed: int) -> List[str]:
    files = pool_files(sizes)
    return [files[i] for i in corpus_order(sizes, seed)]


def corpus_oracle(sizes: Sizes, seed: int, name: str) -> list:
    """The ``name`` oracle rows of the seed's corpus, in corpus order."""
    rows = load_pickle(pool_oracle_path(sizes, name))
    return [rows[i] for i in corpus_order(sizes, seed)]


# -- serve-nodes schedules ----------------------------------------------------


def serve_windows(sizes: Sizes, seed: int, salt: str, count: int, wide: int) -> List[Window]:
    """``count`` request windows.  Widths are log-uniform over
    ``[narrow, wide_cap]`` by stratified quantiles (every seed sends the
    same width mix in its own order); ``wide`` of them, at seeded
    positions, are ``sizes.wide`` trees wide; one in five repeats one of
    the narrower windows among the 32 before it (so the wide share stays
    ``wide / count``).  Repeats take every fifth width in width order,
    from a seeded offset, so every seed sends the same widths uncached
    and its latency tail does not depend on how many of the widest
    windows happened to be repeats."""
    rng = rng_for(seed, f"serve-{salt}")
    span = math.log(sizes.wide_cap / sizes.narrow)
    widths = [
        int(round(sizes.narrow * math.exp(span * (i + 0.5) / count)))
        for i in range(count)
    ]
    rng.shuffle(widths)
    wide = set(rng.sample(range(count), wide))
    fresh = sorted((i for i in range(4, count) if i not in wide), key=widths.__getitem__)
    repeat = set(fresh[rng.randrange(5)::5])
    windows: List[Window] = []
    for i, width in enumerate(widths):
        if i in repeat:
            recent = [w for w in windows[-32:] if w[1] - w[0] != sizes.wide]
            windows.append(recent[-rng.randint(1, len(recent))])
            continue
        if i in wide:
            width = sizes.wide
        width = min(width, sizes.corpus_trees)
        start = rng.randrange(0, sizes.corpus_trees - width + 1)
        windows.append((start, start + width))
    return windows


def batch_windows(sizes: Sizes, seed: int, salt: str, width: int, count: int) -> List[Window]:
    rng = rng_for(seed, f"batch-{salt}")
    width = min(width, sizes.corpus_trees)
    out = []
    for _ in range(count):
        start = rng.randrange(0, sizes.corpus_trees - width + 1)
        out.append((start, start + width))
    return out


# -- store-rw inputs -----------------------------------------------------------

#: Writes generated per seed; a run uses a prefix of the schedule.
_STORE_WRITES = 160
#: Reads between two writes of store-rw.
_READS_PER_WRITE = 10


def seed_dir(sizes: Sizes, seed: int) -> str:
    return os.path.join(WORK, f"inputs-v{INPUT_VERSION}-{sizes.name}-{seed}")


def store_path(sizes: Sizes, seed: int) -> str:
    return os.path.join(seed_dir(sizes, seed), "store")


def store_plan_path(sizes: Sizes, seed: int) -> str:
    return os.path.join(seed_dir(sizes, seed), "store-plan.pickle")


def store_order(sizes: Sizes, seed: int) -> List[int]:
    """The pool documents of the seed's store, in store order."""
    pool = _POOL_FACTOR * sizes.store_trees
    return rng_for(seed, "store").sample(range(pool), sizes.store_trees)


def _prune_cache() -> None:
    entries = [
        os.path.join(WORK, name)
        for name in os.listdir(WORK)
        if name.startswith("inputs-")
    ]
    entries.sort(key=os.path.getmtime)
    for stale in entries[:-_KEEP_SEEDS]:
        shutil.rmtree(stale, ignore_errors=True)


def ensure_store_inputs(sizes: Sizes, seed: int) -> None:
    """The store pool's oracle (once), then the seed's store, ingested
    through the program's own ``ingest``, beside its write plan."""
    os.makedirs(seed_dir(sizes, seed), exist_ok=True)
    _ensure_pool_oracle(sizes, "store")
    children = []
    if not os.path.exists(os.path.join(store_path(sizes, seed), "store.json")):
        children.append(_run_host("prep-store", sizes.name, str(seed)))
    if not os.path.exists(store_plan_path(sizes, seed)):
        children.append(_run_host("prep-store-plan", sizes.name, str(seed)))
    _wait_all(children)
    _prune_cache()


def write_store(sizes: Sizes, seed: int) -> None:
    from repro.corpus import CorpusStore

    specs = pool_specs(sizes, "store")
    final = store_path(sizes, seed)
    staging = final + ".partial"
    shutil.rmtree(staging, ignore_errors=True)
    store = CorpusStore.create(staging, segment_size=sizes.store_segment)
    try:
        store.ingest(document(specs[i]) for i in store_order(sizes, seed))
    finally:
        store.close()
    shutil.rmtree(final, ignore_errors=True)
    os.replace(staging, final)


def _store_writes(sizes: Sizes, seed: int) -> List[Tuple[str, int]]:
    """The write schedule: ``("replace", position)`` or
    ``("append", -1)``.  Every third write, starting with the first,
    replaces one tree; consecutive replaces edit distinct segments in a
    seeded order (edits spread over the store), so every run writes the
    same number of replaces and segments.  Replaces never edit the last
    segment, which the appends grow: a seed that edited it early read
    with a sixth less memory and a sixth more throughput than one that
    did not."""
    rng = rng_for(seed, "store-writes")
    segments = -(-sizes.store_trees // sizes.store_segment) - 1
    order = list(range(segments))
    rng.shuffle(order)
    if order[0] == 0:  # the first edit lands outside the reader's opening window
        order = order[1:] + order[:1]
    writes: List[Tuple[str, int]] = []
    for k in range(_STORE_WRITES):
        if k % 3:
            writes.append(("append", -1))
            continue
        low = order[(k // 3) % segments] * sizes.store_segment
        high = min(low + sizes.store_segment, sizes.store_trees)
        writes.append(("replace", rng.randrange(low, high)))
    return writes


def write_store_plan(sizes: Sizes, seed: int) -> None:
    """Oracle digests of every stored tree, and the write plan: the
    edited trees each replace commits (with its edit site and digest)
    and the appended trees."""
    from common import COLDPATH_QUERIES, corpus_queries, row_digest
    from repro.trees import random_tree

    queries = corpus_queries(COLDPATH_QUERIES)
    order = store_order(sizes, seed)
    specs = pool_specs(sizes, "store")
    pool_rows = load_pickle(pool_oracle_path(sizes, "store"))
    rows = [pool_rows[i] for i in order]
    edits = []
    rng = rng_for(seed, "store-edits")
    current = {}
    for kind, position in _store_writes(sizes, seed):
        if kind == "append":
            tree = document(document_specs(sizes, 1, rng)[0])
            edits.append(("append", -1, tree, None, None))
            continue
        if position not in current:
            current[position] = document(specs[order[position]])
        base = current[position]
        site = rng.choice(base.nodes[1:])
        replacement = random_tree(
            rng.randint(4, 12), value_pool=(1, 2, 3), max_children=3,
            seed=rng.getrandbits(32),
        )
        edited = base.replace_subtree(site, replacement)
        current[position] = edited
        edits.append(
            ("replace", position, edited, site, row_digest(reference_row(queries, edited)))
        )
    os.makedirs(seed_dir(sizes, seed), exist_ok=True)
    _dump(store_plan_path(sizes, seed), {"rows": rows, "writes": edits})


def store_schedule(sizes: Sizes, seed: int, reads: int, writes) -> List[Tuple[str, int]]:
    """The store-rw operation list: ``("read", start)`` windows and
    ``("write", k)`` for the k-th planned write.  The writer starts with
    the reader and writes once every :data:`_READS_PER_WRITE` reads;
    each replace is followed by a read of a window holding the edited
    tree (a reader following the writer).  The other reads cover the
    store evenly, one seeded start in each of ``reads`` equal strata in
    a seeded order, so every seed touches each segment about as often."""
    rng = rng_for(seed, "store-ops")
    width = sizes.store_window
    last = sizes.store_trees - width
    strata = (last + 1) / reads
    starts = [int((i + rng.random()) * strata) for i in range(reads)]
    rng.shuffle(starts)
    ops: List[Tuple[str, int]] = []
    next_write = 0
    write_index = 0
    done = 0
    while done < reads:
        if done >= next_write and write_index < len(writes):
            kind, position = writes[write_index][:2]
            ops.append(("write", write_index))
            write_index += 1
            next_write = done + _READS_PER_WRITE
            if kind == "replace":
                low = max(0, position - width + 1)
                ops.append(("read", rng.randint(low, min(position, last))))
                done += 1
            continue
        ops.append(("read", starts.pop()))
        done += 1
    return ops
