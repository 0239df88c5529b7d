"""Per-round checkpoint layout + resume info (north-rule resumability)."""

import os

import pyarrow.parquet as pq

from web_crawler_ray.pipelines.crawl import crawl, resume_info
from web_crawler_ray.sources import synth_world as W


def test_checkpoint_and_resume(tmp_path):
    tbl, robots, seeds = W.world(seed=11, n_hosts=3, pages_per_host_base=12)
    ck = str(tmp_path / "ckpt")
    res = crawl(tbl, robots, seeds, max_pages=60, max_depth=2,
                round_seconds=5.0, checkpoint_dir=ck, keep_pages=False)
    rounds = sorted(d for d in os.listdir(ck) if d.startswith("round="))
    assert len(rounds) == res.stats["rounds"]
    for d in rounds:
        base = os.path.join(ck, d)
        assert os.path.exists(os.path.join(base, "_COMPLETE"))
        for f in ("frontier.parquet", "visited.parquet", "seen_delta.parquet",
                  "metrics.json"):
            assert os.path.exists(os.path.join(base, f))
        assert os.path.isdir(os.path.join(base, "pages"))
    info = resume_info(ck)
    assert info is not None
    assert info["fetched"] == res.stats["fetched"]
    # final round's seen snapshot == the run's final seen set
    import numpy as np
    assert np.array_equal(info["seen"], res.seen_snapshot)
    # per-round metrics lineage recorded
    assert res.metrics[0]["stage"] == "fetch"
    assert res.metrics[-1]["seen"] == res.stats["seen"]
    # checkpointed pages are readable and cover all fetched urls
    n_pages = sum(pq.read_table(os.path.join(ck, d, "pages")).num_rows
                  for d in rounds)
    assert n_pages == res.stats["fetched"]


def test_checkpoint_pages_hold_exactly_their_rounds_urls(tmp_path):
    """Each complete round's pages/ holds exactly the urls that round
    fetched (one write task per round, awaited before _COMPLETE), on a
    budgeted, backoff world; the crawl's one pages Dataset holds every
    fetched page."""
    import collections

    tbl, robots, seeds = W.world(seed=7, n_hosts=5, pages_per_host_base=14,
                                 profile="v2")
    ck = str(tmp_path / "ckpt")
    res = crawl(tbl, robots, seeds, max_pages=10_000, max_depth=3,
                round_seconds=6.0, backoff=True, checkpoint_dir=ck)
    assert res.stats["rounds"] > 2
    assert res.pages.count() == res.stats["fetched"]
    v = res.visited
    by_round = collections.defaultdict(collections.Counter)
    for r, u in zip(v.column("round").to_pylist(), v.column("url").to_pylist()):
        by_round[r][u] += 1
    done = [d for d in os.listdir(ck)
            if os.path.exists(os.path.join(ck, d, "_COMPLETE"))]
    assert len(done) == res.stats["rounds"]
    for d in done:
        urls = pq.read_table(os.path.join(ck, d, "pages")).column("url")
        assert collections.Counter(urls.to_pylist()) == \
            by_round[int(d.split("=")[1])]


def test_resume_info_empty(tmp_path):
    assert resume_info(str(tmp_path / "nope")) is None


def test_resume_equals_uninterrupted(tmp_path):
    """capped/interrupted run + resumed run ≡ one uninterrupted run:
    resumed fetch order continues exactly, final seen sets equal — on
    three worlds, each cut at its middle checkpoint round."""
    import shutil

    import numpy as np
    import pyarrow as pa

    for seed, n_hosts, base in ((21, 4, 16), (31, 3, 14), (37, 3, 12)):
        tbl, robots, seeds = W.world(seed=seed, n_hosts=n_hosts,
                                     pages_per_host_base=base)
        kw = dict(max_pages=10_000, max_depth=3, round_seconds=6.0,
                  keep_pages=False)
        full = crawl(tbl, robots, seeds, **kw)
        ck = str(tmp_path / f"ck{seed}")
        crawl(tbl, robots, seeds, checkpoint_dir=ck, **kw)
        # simulate a crash after round k: drop checkpoints beyond k
        rounds = sorted(int(d.split("=")[1]) for d in os.listdir(ck))
        k = rounds[len(rounds) // 2]
        for r in rounds:
            if r > k:
                shutil.rmtree(os.path.join(ck, f"round={r}"))
        resumed = crawl(tbl, robots, seeds, resume_from=ck, **kw)
        # fetch order of resumed == uninterrupted rounds > k
        fv = full.visited
        tail = fv.filter(pa.compute.greater(fv.column("round"), k))
        for col in ("url", "round", "discovery_seq"):
            # discovery_seq labels continue EXACTLY (next_seq persisted in
            # the checkpoint, ADVICE r1 — not re-inferred from max seq)
            assert resumed.visited.column(col).to_pylist() == \
                tail.column(col).to_pylist(), (seed, col)
        assert np.array_equal(resumed.seen_snapshot, full.seen_snapshot), seed
        # stats report the CUMULATIVE fetched count (restored + new)
        assert resumed.stats["fetched"] == full.stats["fetched"], seed
        assert resumed.visited.num_rows == tail.num_rows, seed


def test_resume_without_next_seq_raises(tmp_path):
    """A checkpoint whose metrics.json lacks next_seq cannot be resumed
    exactly (inferring it from the frontier can reuse seqs): resume
    raises instead of guessing."""
    import json

    import pytest
    tbl, robots, seeds = W.world(seed=11, n_hosts=3, pages_per_host_base=12)
    ck = str(tmp_path / "ckpt")
    crawl(tbl, robots, seeds, max_pages=60, max_depth=2, round_seconds=5.0,
          checkpoint_dir=ck, keep_pages=False)
    last = max(int(d.split("=")[1]) for d in os.listdir(ck))
    mpath = os.path.join(ck, f"round={last}", "metrics.json")
    with open(mpath) as f:
        metric = json.load(f)
    del metric["next_seq"]
    with open(mpath, "w") as f:
        json.dump(metric, f)
    assert resume_info(ck)["next_seq"] is None
    with pytest.raises(ValueError, match="next_seq"):
        crawl(tbl, robots, seeds, max_pages=60, max_depth=2,
              round_seconds=5.0, resume_from=ck, keep_pages=False)


def test_cap_final_round_links_enter_seen():
    """Reference enqueues the final fetched pages' links into the seen set
    before exiting (site-crawler:163-168) — engine must match the oracle
    when the cap truncates mid-crawl."""
    import numpy as np
    from web_crawler_ray.oracle.reference_oracle import oracle_crawl
    tbl, robots, seeds = W.world(seed=23, n_hosts=3, pages_per_host_base=14)
    by_url = {r["url"]: r for r in tbl.to_pylist()}
    for cap in (3, 7, 11):
        e = crawl(tbl, robots, seeds, max_pages=cap, max_depth=3, keep_pages=False)
        o_order, o_seen, _ = oracle_crawl(by_url, robots, seeds,
                                          max_pages=cap, max_depth=3)
        assert np.array_equal(e.seen_snapshot, np.array(o_seen, dtype=np.uint64)), cap


def test_visited_spill_equals_in_ram(tmp_path):
    """crawl(visited_spill_dir=...) bounds driver RAM: per-round visited
    parquet under the dir, CrawlResult.visited EMPTY, and the concatenated
    spill exactly equals the in-RAM visited table."""
    import glob

    import pyarrow as pa

    tbl, robots, seeds = W.world(seed=13, n_hosts=4, pages_per_host_base=16)
    ram = crawl(tbl, robots, seeds, max_pages=10_000, max_depth=3,
                keep_pages=False)
    d = str(tmp_path / "spill")
    sp = crawl(tbl, robots, seeds, max_pages=10_000, max_depth=3,
               keep_pages=False, visited_spill_dir=d)
    assert sp.visited.num_rows == 0
    assert sp.visited_dir == d
    files = sorted(glob.glob(os.path.join(d, "round=*.parquet")))
    assert len(files) == sp.stats["rounds"]
    spilled = pa.concat_tables([pq.read_table(f) for f in files])
    assert spilled.num_rows == ram.visited.num_rows
    assert spilled.sort_by("discovery_seq").equals(
        ram.visited.sort_by("discovery_seq"))
    assert sp.stats["fetched"] == ram.stats["fetched"]
