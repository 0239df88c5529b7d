"""Cluster entry point for the crawl pipeline.

Multi-node form (per the north rule; NOT runnable in this single-node
sandbox — documented and smoke-tested in local mode):

    ray job submit --address http://<head>:8265 \
        --working-dir /root/repo -- \
        python tools/submit_crawl.py --out /mnt/shared/crawl_out \
            --hosts 100000 --base 4200 --max-depth 4 --round-seconds 600

On a cluster this script connects to the existing Ray session the job
server provides (``ray.init(address="auto")``); locally it starts one.
Partitioning: frontier rounds are hash-partitioned by host via the
politeness grant; fetched pages / locations / span documents land as
partitioned parquet (or lance via GRAFT_STORAGE_FORMAT=lance) under
--out/round=R/, resumable with --resume.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
# Ray workers import the package (it has no install) through the
# PYTHONPATH they inherit from this process, whatever its cwd
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--hosts", type=int, default=96)
    ap.add_argument("--base", type=int, default=1200)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--max-pages", type=int, default=10_000_000)
    ap.add_argument("--max-depth", type=int, default=3)
    ap.add_argument("--round-seconds", type=float, default=600.0)
    ap.add_argument("--seen-shards", type=int, default=16)
    ap.add_argument("--resume", action="store_true",
                    help="continue from the last complete round in --out")
    args = ap.parse_args()

    import ray
    if not ray.is_initialized():
        # "auto" joins the cluster session under `ray job submit`;
        # falls back to a local session for the sandbox smoke test
        try:
            ray.init(address="auto", ignore_reinit_error=True,
                     logging_level="ERROR")
        except ConnectionError:
            ray.init(address="local", include_dashboard=False,
                     ignore_reinit_error=True, logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False

    from web_crawler_ray.pipelines.crawl import crawl
    from web_crawler_ray.pipelines.flagship import assemble_documents, extract_locations
    from web_crawler_ray.sources.storage import write_dataset
    from web_crawler_ray.sources.synth_world import world_parallel
    from web_crawler_ray.stages.classify import classify_batch

    pages_store, robots, seeds = world_parallel(
        seed=args.seed, n_hosts=args.hosts, pages_per_host_base=args.base)
    ckpt = os.path.join(args.out, "checkpoint")
    res = crawl(pages_store, robots, seeds, max_pages=args.max_pages,
                max_depth=args.max_depth, round_seconds=args.round_seconds,
                n_seen_shards=args.seen_shards, checkpoint_dir=ckpt,
                resume_from=ckpt if args.resume else None)
    if res.pages is not None:
        locs = extract_locations(
            res.pages.map_batches(classify_batch, batch_format="pyarrow"))
        write_dataset(locs, os.path.join(args.out, "locations"))
        docs = assemble_documents(res.pages)
        write_dataset(docs, os.path.join(args.out, "documents"))
    # else: nothing new fetched (resume of a complete crawl) — outputs for
    # earlier rounds are already under --out
    print(json.dumps({"fetched": res.stats["fetched"],
                      "rounds": res.stats["rounds"],
                      "seen": res.stats["seen"], "out": args.out}))
    ray.shutdown()


if __name__ == "__main__":
    main()
