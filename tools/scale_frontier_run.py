"""Frontier scale demonstration (SURVEY §7.4.5 / VERDICT r4 item 1):
run the crawl over a PROCEDURAL ~10^7-URL world and measure
what SCALE.md previously only extrapolated.

    python tools/scale_frontier_run.py [n_hosts] [base] [cpus]

Defaults: 256 Zipf hosts x base 72k => ~1.27M fetched pages, 7 ghost
links per page => ~10.2M seen-set keys. Configuration forces every
scale path at once:

- seen_spill_threshold=150k: every shard's exact tier spills to the
  bloom tier (10.2M/32 shards ~= 320k keys/shard > 150k),
- visited_spill_dir: the visited table goes to per-round parquet, not
  driver RAM.

Reports wall, pages/s, discovered URLs (seen cardinality), peak driver
RSS, per-tier seen memory, rounds, and the per-round mark_wait profile
(flat = the deferred-rest copy does not accumulate). One JSON line at
the end for BASELINE.md / SCALE.md.
"""

import json
import os
import resource
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def main():
    n_hosts = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    base = int(sys.argv[2]) if len(sys.argv) > 2 else 72_000
    cpus = int(sys.argv[3]) if len(sys.argv) > 3 else 32

    import ray
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False

    from web_crawler_ray.pipelines.crawl import crawl
    from web_crawler_ray.sources.procedural_world import (
        ProceduralFetchStage, procedural_robots, procedural_seeds)

    stage = ProceduralFetchStage(n_hosts=n_hosts, base=base,
                                 branching=8, ghosts=7)
    robots = procedural_robots(n_hosts)
    seeds = procedural_seeds(n_hosts)
    planned = stage.total_pages()
    print(f"planned pages: {planned:,} (expected seen ~= {planned * 8:,})")

    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on linux
    spill_dir = tempfile.mkdtemp(prefix="scale_visited_")
    try:
        t0 = time.time()
        res = crawl(None, robots, seeds,
                    max_pages=10 ** 9, max_depth=12, round_seconds=None,
                    keep_pages=False, n_seen_shards=32,
                    seen_spill_threshold=150_000,
                    fetch_concurrency=cpus,
                    visited_spill_dir=spill_dir,
                    fetch_stage=stage)
        wall = time.time() - t0
        rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        import ray.data as rd
        visited = rd.read_parquet(spill_dir)
        fetched = visited.count()
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
    stats = res.stats
    shard_stats = stats.get("seen_shards", [])
    seen_total = stats.get("seen")
    mem = {
        "exact_keys": sum(s["exact_keys"] for s in shard_stats),
        "spilled_keys": sum(s["spilled_keys"] for s in shard_stats),
        "bloom_mb": round(sum(s["bloom_bytes"] for s in shard_stats) / 2**20, 1),
        "exact_mb": round(sum(s["exact_bytes"] for s in shard_stats) / 2**20, 1),
        "spilled_shards": sum(1 for s in shard_stats if s["spilled_keys"] > 0),
        "n_shards": len(shard_stats),
    }
    rounds = stats.get("driver_phases_rounds", [])
    marks = [r.get("mark_wait", 0.0) for r in rounds]
    out = {
        "metric": "frontier_scale_run",
        "n_hosts": n_hosts, "base": base, "num_cpus": cpus,
        "planned_pages": planned,
        "pages_fetched": int(fetched),
        "seen_keys": int(seen_total) if seen_total is not None else None,
        "wall_sec": round(wall, 1),
        "pages_per_sec": round(fetched / wall, 1),
        "rounds": len(rounds),
        "mark_wait_per_round": [round(m, 3) for m in marks],
        "peak_driver_rss_mb": round(rss1 / 1024, 1),
        "driver_rss_before_mb": round(rss0 / 1024, 1),
        "seen_memory": mem,
    }
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
