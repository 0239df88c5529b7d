"""Procedural (storage-free) crawl world: rank-range parity, seen-set
arithmetic (pages x (1+ghosts)), canonical fixed points, and the ghost
links' insert-time robots gating (sources/procedural_world.py +
crawl(fetch_stage=...))."""

import numpy as np
import pyarrow as pa

from web_crawler_ray.functions.urltools import canonicalize
from web_crawler_ray.pipelines.crawl import crawl
from web_crawler_ray.sources.procedural_world import (
    ProceduralFetchStage,
    procedural_robots,
    procedural_seeds,
)


def _order(res):
    return list(zip(res.visited.column("round").to_pylist(),
                    res.visited.column("discovery_seq").to_pylist(),
                    res.visited.column("url").to_pylist()))


def test_links_are_canonical_fixed_points(ray_session):
    stage = ProceduralFetchStage(n_hosts=2, base=40, branching=3, ghosts=2)
    batch = pa.table({
        "url": ["https://s00000.example/", "https://s00000.example/p3"],
        "host": ["s00000.example"] * 2,
        "path": ["/", "/p3"],
        "url_hash": pa.array([0, 0], pa.uint64()),
    })
    out = stage(batch)
    for links in out.column("links_canon").to_pylist():
        assert links, "every live page links out"
        for u in links:
            assert canonicalize(u) == u, u


def test_unknown_page_is_404(ray_session):
    stage = ProceduralFetchStage(n_hosts=1, base=10, branching=2, ghosts=1)
    batch = pa.table({
        "url": ["https://s00000.example/p999"],
        "host": ["s00000.example"],
        "path": ["/p999"],
        "url_hash": pa.array([0], pa.uint64()),
    })
    out = stage(batch)
    assert out.column("status").to_pylist() == [404]
    assert out.column("fetch_ok").to_pylist() == [False]
    assert out.column("links_canon").to_pylist() == [[]]


def test_mode_parity_and_seen_arithmetic(ray_session, monkeypatch):
    from web_crawler_ray.state import distrank
    stage = ProceduralFetchStage(n_hosts=5, base=300, branching=4, ghosts=3)
    robots = procedural_robots(5)
    seeds = procedural_seeds(5)
    kw = dict(max_pages=10 ** 9, max_depth=12, round_seconds=None,
              keep_pages=False, n_seen_shards=4, fetch_stage=stage)
    a = crawl(None, robots, seeds, **kw)
    # 64-key ranges: the deeper rounds' ranks and seqs merge R > 1 ranges
    monkeypatch.setattr(distrank, "DEFAULT_CHUNK", 64)
    b = crawl(None, robots, seeds, **kw)
    assert _order(a) == _order(b)
    assert np.array_equal(a.seen_snapshot, b.seen_snapshot)
    # every planned page fetched exactly once; ghosts discovered but
    # robots-gated: seen == pages * (1 + ghosts)
    assert a.visited.num_rows == stage.total_pages()
    assert len(a.seen_snapshot) == stage.total_pages() * (1 + 3)
    # no ghost URL was ever fetched
    assert not any("/x/" in u for u in a.visited.column("url").to_pylist())


def test_seen_spill_tier_engages(ray_session):
    stage = ProceduralFetchStage(n_hosts=3, base=200, branching=4, ghosts=4)
    res = crawl(None, procedural_robots(3), procedural_seeds(3),
                max_pages=10 ** 9, max_depth=12, round_seconds=None,
                keep_pages=False, n_seen_shards=4,
                seen_spill_threshold=50, fetch_stage=stage)
    shards = res.stats["seen_shards"]
    assert sum(s["spilled_keys"] for s in shards) > 0
    assert res.stats["seen"] == stage.total_pages() * 5
    # crawl order unaffected by spilling (no false negatives)
    assert res.visited.num_rows == stage.total_pages()
