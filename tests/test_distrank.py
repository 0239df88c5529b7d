"""assign_ranks (state/distrank.py) must equal a global argsort.

The sample-merge-rank is how the crawl assigns every round's fetch
ranks and discovery_seqs, with its kernels running on the crawl's
leased seen shards; these tests run it on three leased shards and pin
its equivalence with one global argsort, across shard emptiness,
single- and multi-range splits, and skewed key layouts.
"""
import numpy as np
import ray

from web_crawler_ray.state import distrank
from web_crawler_ray.state.seen import SeenSet


def _global_ranks(shards: list[np.ndarray], base: int = 0) -> list[np.ndarray]:
    """Oracle: ranks via one global argsort (keys unique)."""
    lens = [len(s) for s in shards]
    cat = np.concatenate(shards) if sum(lens) else np.zeros(0, np.uint64)
    order = np.argsort(cat, kind="stable")
    ranks = np.empty(len(cat), np.int64)
    ranks[order] = np.arange(base, base + len(cat))
    bounds = np.concatenate(([0], np.cumsum(lens))).astype(int)
    return [ranks[bounds[i]:bounds[i + 1]] for i in range(len(shards))]


def _run(shards, base=0, chunk_target=None):
    refs = [ray.put(s) for s in shards]
    samples = [distrank.sample_keys(s) for s in shards]
    total = sum(len(s) for s in shards)
    runners = SeenSet(n_shards=3)
    try:
        out = distrank.assign_ranks(runners.shards, refs, samples, total,
                                    base=base, chunk_target=chunk_target)
        return [np.concatenate([np.asarray(r) for r in ray.get(parts)])
                if parts else np.zeros(0, np.int64) for parts in out]
    finally:
        runners.release()


def _mk_shards(rng, n_shards, n_total):
    keys = rng.choice(np.arange(4 * n_total, dtype=np.uint64),
                      size=n_total, replace=False)
    owner = rng.integers(0, n_shards, n_total)
    return [np.sort(keys[owner == s]) for s in range(n_shards)]


def test_matches_argsort_single_range(ray_session):
    rng = np.random.default_rng(7)
    shards = _mk_shards(rng, 5, 1000)
    got = _run(shards)
    want = _global_ranks(shards)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_matches_argsort_multi_range_and_base(ray_session):
    rng = np.random.default_rng(11)
    shards = _mk_shards(rng, 4, 5000)
    # chunk_target=256 forces ~20 ranges through the splitter path
    got = _run(shards, base=1_000_000, chunk_target=256)
    want = _global_ranks(shards, base=1_000_000)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_empty_and_skewed_shards(ray_session):
    rng = np.random.default_rng(3)
    shards = _mk_shards(rng, 6, 3000)
    shards[1] = np.zeros(0, np.uint64)        # empty shard
    shards[4] = shards[4][:3]                  # near-empty shard
    # drop the moved keys from the oracle's view too: rebuild unique set
    got = _run(shards, chunk_target=500)
    want = _global_ranks(shards)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_single_shard(ray_session):
    keys = np.sort(np.random.default_rng(1).choice(
        np.arange(10_000, dtype=np.uint64), 2000, replace=False))
    got = _run([keys], chunk_target=300)
    np.testing.assert_array_equal(got[0], np.arange(2000, dtype=np.int64))


def test_hot_shard_skew(ray_session):
    """Zipf-host layout: one shard holds ~95% of the round's keys, so
    the splitters are drawn almost entirely from its sample — range
    sizes stay correct and ranks still match the global argsort."""
    rng = np.random.default_rng(13)
    keys = rng.choice(np.arange(40_000, dtype=np.uint64), 8000, replace=False)
    shards = [np.sort(keys[:7600])] + [
        np.sort(keys[7600 + 100 * i:7700 + 100 * i]) for i in range(4)]
    got = _run(shards, chunk_target=512)
    want = _global_ranks(shards)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_duplicate_heavy_samples_degenerate_splitters(ray_session):
    # all keys in a narrow band -> many duplicate splitter candidates;
    # np.unique must collapse them without losing correctness
    shards = [np.sort(np.array([2 * i + s for i in range(400)],
                               dtype=np.uint64)) for s in range(2)]
    got = _run(shards, chunk_target=64)
    want = _global_ranks(shards)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
