"""The in-process stacked-shard memo of serial ``TreeCorpus.run``.

A warm chunk of a corpus's pinned indexes is stacked into a
:class:`~repro.engine.ir.StackedShard` once and reused by every later
run of the same window.  These tests pin the memo's contract: a warm
repeat builds no shard and answers exactly as the per-tree engine and
a fresh corpus do; keys never alias across windows or corpora; only
the latest corpus is held, within its tree count, and ``close()``
releases it; a full memo stores no further window; a held shard keeps
no mask for a label its trees lack; and a fully stacked chunk does no
per-tree work at all (the global index LRU is never touched).
"""

import pytest

from repro.corpus import (
    TreeCorpus,
    ask_query,
    caterpillar_query,
    caterpillar_relation_query,
    select_query,
    stacked_cache_info,
    xpath_query,
)
from repro.corpus import executor
from repro.engine import index as engine_index
from repro.engine import ir

#: Every query here lowers to the IR, so a vectorized chunk of them is
#: fully stacked.
STACKED = [
    xpath_query("//σ//δ"),
    ask_query("exists x exists y (x << y & O_σ(x) & O_δ(y))"),
    select_query("x << y & O_δ(y)"),
    caterpillar_query("(down | right)* <δ>"),
]
#: Outside the IR fragment: forces the per-tree sweep of its chunk.
PER_TREE = caterpillar_relation_query("down <σ>")


@pytest.fixture
def stackings(monkeypatch):
    """Lane counts of every StackedShard built while the test runs."""
    built = []
    original = ir.StackedShard.__init__

    def counting(self, indexes):
        indexes = tuple(indexes)
        built.append(len(indexes))
        original(self, indexes)

    monkeypatch.setattr(ir.StackedShard, "__init__", counting)
    return built


@pytest.fixture
def corpus():
    corpus = TreeCorpus.random(40, max_size=24, seed=5)
    yield corpus
    corpus.close()


def _vectorized(corpus, queries=STACKED, **window):
    return corpus.run(queries, engine="vectorized", **window).rows


def test_warm_repeat_builds_no_shard(corpus, stackings):
    cold = _vectorized(corpus)
    assert len(stackings) == 4  # one per default chunk
    before = stacked_cache_info()
    warm = _vectorized(corpus)
    assert len(stackings) == 4
    after = stacked_cache_info()
    assert after.hits - before.hits == 4
    assert after.misses == before.misses
    assert warm == cold
    assert warm == corpus.run(STACKED, engine="fast").rows
    with TreeCorpus(corpus.trees) as fresh:
        assert warm == _vectorized(fresh)


def test_auto_repeat_hits_the_memo(corpus, stackings):
    first = corpus.run(STACKED, engine="auto").rows
    built = len(stackings)
    assert built > 0  # the planner's fast picks ride the stacked pass
    again = corpus.run(STACKED, engine="auto").rows
    assert len(stackings) == built
    assert again == first == corpus.run(STACKED, engine="fast").rows


def test_windows_and_corpora_never_alias(corpus):
    truth = corpus.run(STACKED, engine="fast").rows
    windows = [(0, 20), (5, 25), (0, 20), (5, 25), (20, 40), (3, 4)]
    for start, stop in windows:
        rows = _vectorized(corpus, start=start, stop=stop)
        assert rows == truth[start:stop]
    # Equal bounds, different trees: each corpus answers for its own.
    with TreeCorpus.random(40, max_size=24, seed=6) as other:
        other_truth = other.run(STACKED, engine="fast").rows
        assert other_truth != truth
        for _ in range(2):
            assert _vectorized(other, start=0, stop=20) == other_truth[:20]
            assert _vectorized(corpus, start=0, stop=20) == truth[:20]


def test_only_the_latest_corpus_is_held_and_close_releases_it(
    corpus, stackings
):
    _vectorized(corpus)
    assert stacked_cache_info().currsize == len(corpus)
    small = TreeCorpus.random(10, max_size=24, seed=7)
    _vectorized(small)
    info = stacked_cache_info()
    assert (info.maxsize, info.currsize) == (10, 10)
    corpus.close()  # not the held corpus: nothing to release
    assert stacked_cache_info().currsize == 10
    small.close()
    assert stacked_cache_info().currsize == 0
    built = len(stackings)
    _vectorized(corpus)  # a released corpus stacks afresh
    assert len(stackings) == built + 4


def test_lanes_never_exceed_the_tree_count(corpus):
    truth = corpus.run(STACKED, engine="fast").rows
    for chunk_size in (3, 7, 40):
        for start in range(0, 40, 9):
            stop = min(40, start + 17)
            rows = _vectorized(
                corpus, start=start, stop=stop, chunk_size=chunk_size
            )
            assert rows == truth[start:stop]
            info = stacked_cache_info()
            assert info.maxsize == len(corpus)
            assert 0 < info.currsize <= len(corpus)


def test_a_full_memo_stores_nothing_more(corpus, stackings):
    _vectorized(corpus)  # four 10-lane chunks fill the memo
    held = dict(executor._STACKED._shards)
    wide = dict(start=0, stop=20, chunk_size=20)
    truth = corpus.run(STACKED, engine="fast").rows
    for _ in range(2):  # a full memo stacks the new window every time
        built = len(stackings)
        assert _vectorized(corpus, **wide) == truth[:20]
        assert len(stackings) == built + 1
    assert executor._STACKED._shards == held
    built = len(stackings)
    _vectorized(corpus)  # every resident survived
    assert len(stackings) == built
    assert stacked_cache_info().currsize == len(corpus)


def test_absent_labels_do_not_grow_a_held_shard(corpus):
    window = dict(start=0, stop=10, chunk_size=10)
    _vectorized(corpus, **window)
    (shard,) = executor._STACKED._shards.values()
    labels = dict(shard._labels)
    assert set(labels) <= {"σ", "δ"}
    absent = [xpath_query(f"//absent{i}") for i in range(50)]
    for _ in range(2):
        rows = _vectorized(corpus, queries=absent, **window)
        assert rows == corpus.run(absent, engine="fast", **window).rows
    assert executor._STACKED._shards == {(0, 10): shard}
    assert shard._labels == labels


def test_zero_queries_keep_one_empty_row_per_tree(corpus):
    assert _vectorized(corpus, queries=[]) == ((),) * len(corpus)
    with TreeCorpus.from_terms(["σ(δ)"]) as single:
        assert _vectorized(single, queries=[]) == ((),)
        assert single.run([], engine="auto").rows == ((),)


def test_fully_stacked_batch_leaves_the_index_cache_alone(corpus):
    corpus.prepare()
    engine_index.index_cache_clear()
    before = engine_index._INDEX_CACHE.cache_info()
    for _ in range(2):  # the cold miss and the warm hit alike
        _vectorized(corpus)
    assert engine_index._INDEX_CACHE.cache_info() == before
    assert len(engine_index._INDEX_CACHE) == 0
    # One per-tree query in the batch: its chunks adopt pinned indexes.
    mixed = _vectorized(corpus, queries=STACKED + [PER_TREE])
    assert len(engine_index._INDEX_CACHE) > 0
    assert mixed == corpus.run(STACKED + [PER_TREE], engine="fast").rows
