"""Per-layer measurements for the traced run.

Each function replays one layer of the program in-process (or on the
running Ray node) over the inputs of the workload's measured pass and
returns named values. They call the program only through its public
functions and stage callables; the spans around them are recorded by
``run.py``.
"""

from __future__ import annotations

import time
from urllib.parse import urlsplit

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BATCH = 64  # pages per in-process stage call (the flagship's batch size)


def page_links(html: str, url: str, host: str) -> list[str]:
    """Canonical same-domain, non-excluded links of one page, document
    order, first-seen dedup: href extract -> resolve -> canonicalize ->
    filters (the crawl's link step, composed from public functions)."""
    from web_crawler_ray.functions.urltools import (
        canonicalize, host_of, resolve_href, same_domain, should_exclude)
    from web_crawler_ray.stages.extract import extract_hrefs
    out, local = [], set()
    for href in extract_hrefs(html):
        absu = resolve_href(href, url)
        canon = canonicalize(absu) if absu is not None else None
        if canon is None or canon in local:
            continue
        if not same_domain(host_of(canon), host) or should_exclude(canon):
            continue
        local.add(canon)
        out.append(canon)
    return out


def _batches(tbl: pa.Table, size: int = BATCH):
    for i in range(0, tbl.num_rows, size):
        yield tbl.slice(i, size)


def links(fetched: pa.Table) -> tuple[dict, list[list[str]]]:
    """Link extraction + hash64_many per fetched page; returns the
    per-page canonical links for the seen and robots replays."""
    from web_crawler_ray.functions.hashing import hash64_many
    urls = fetched.column("url").to_pylist()
    hosts = fetched.column("host").to_pylist()
    htmls = fetched.column("html").to_pylist()
    t = time.perf_counter()
    per_page = [page_links(h, u, host) if h else []
                for u, host, h in zip(urls, hosts, htmls)]
    for ls in per_page:
        hash64_many(ls)
    dt = time.perf_counter() - t
    return {"links.pages_per_s": len(urls) / dt}, per_page


def seen(fetched: pa.Table, per_page: list[list[str]], seeds: list[str]) -> dict:
    """Replay the candidate-URL hashes round by round (seeds first)
    through a fresh 8-shard SeenSet; the fresh count must equal the
    oracle's seen-set size (checked by the caller)."""
    import ray
    from web_crawler_ray.functions.hashing import hash64_many
    from web_crawler_ray.functions.urltools import canonicalize
    from web_crawler_ray.state.seen import SeenSet
    rounds = fetched.column("round").to_numpy()
    batches = [np.unique(hash64_many(sorted({canonicalize(s) for s in seeds})))]
    for r in np.unique(rounds):
        ls = [u for i in np.flatnonzero(rounds == r) for u in per_page[i]]
        batches.append(np.unique(hash64_many(ls)))
    s = SeenSet(n_shards=8)
    try:
        s.cardinality()  # shards are up before timing
        attempted = fresh = 0
        dt = 0.0
        for b in batches:
            t = time.perf_counter()
            fresh += int(s.check_and_add(b).sum())
            dt += time.perf_counter() - t
            attempted += len(b)
        mem = s.memory_stats()
    finally:
        for a in s.shards:
            ray.kill(a)
    keys = sum(m["exact_keys"] + m["spilled_keys"] for m in mem)
    nbytes = sum(m["exact_bytes"] + m["cuckoo_bytes"] + m["bloom_bytes"] for m in mem)
    return {"seen.keys_per_s": attempted / dt, "seen.attempted": attempted,
            "seen.fresh": fresh, "seen.fresh_ratio": fresh / attempted,
            "seen.bytes_per_key": nbytes / max(keys, 1)}


def robots(robots_by_host: dict, per_page: list[list[str]]) -> dict:
    """local_check over the candidate (host, path) stream."""
    import ray
    from web_crawler_ray.functions.urltools import host_of
    from web_crawler_ray.state.robots_cache import local_check
    cand = [u for ls in per_page for u in ls]
    hosts = [host_of(u) for u in cand]
    paths = [urlsplit(u).path or "/" for u in cand]
    ref = ray.put(robots_by_host)
    t = time.perf_counter()
    local_check(ref, hosts, paths)
    return {"robots.checks_per_s": len(cand) / (time.perf_counter() - t)}


def stages(fetched: pa.Table) -> tuple[dict, pa.Table]:
    """classify, extract (+ confidence filter) and span assembly,
    in-process; returns the kept location rows for dedup and enrich."""
    from web_crawler_ray.stages.classify import classify_batch
    from web_crawler_ray.stages.extract import ExtractStage, SpanAssemblyStage
    n = fetched.num_rows
    t = time.perf_counter()
    classified = [classify_batch(b) for b in _batches(fetched)]
    t_cls = time.perf_counter() - t
    ex = ExtractStage()
    t = time.perf_counter()
    rows = pa.concat_tables([ex(b) for b in classified])
    t_ext = time.perf_counter() - t
    sp = SpanAssemblyStage()
    t = time.perf_counter()
    for b in _batches(fetched):
        sp(b)
    t_spans = time.perf_counter() - t
    kept = rows.filter(pc.greater_equal(rows.column("confidence"), 0.70))
    return {"classify.pages_per_s": n / t_cls, "extract.pages_per_s": n / t_ext,
            "spans.pages_per_s": n / t_spans, "extract.rows_out": rows.num_rows,
            "extract.rows_kept": kept.num_rows}, kept


def fuzzy(kept: pa.Table) -> tuple[dict, pa.Table]:
    import ray.data as rd
    from web_crawler_ray.stages.dedup import fuzzy_dedup
    t = time.perf_counter()
    parts = [b for b in fuzzy_dedup(rd.from_arrow(kept)).iter_batches(
        batch_format="pyarrow", batch_size=None)]
    dt = time.perf_counter() - t
    out = pa.concat_tables(parts, promote_options="default") if parts else kept.slice(0, 0)
    return {"dedup.fuzzy_s": dt, "dedup.fuzzy_rows_in": kept.num_rows,
            "dedup.fuzzy_rows_out": out.num_rows}, out


def enrich(locs: pa.Table) -> dict:
    from web_crawler_ray.stages.enrich import add_quality, geocode_enrich_batch
    t = time.perf_counter()
    for b in _batches(locs, 512):
        add_quality(geocode_enrich_batch(b))
    return {"enrich.rows_per_s": locs.num_rows / (time.perf_counter() - t)}


def content(fetched: pa.Table) -> dict:
    """The content-hash dedup actor stage over the fetched pages."""
    import ray
    import ray.data as rd
    from web_crawler_ray.stages.dedup import ContentDedupStage, ContentHashShard
    shards = [ContentHashShard.options(num_cpus=0.1).remote() for _ in range(4)]
    try:
        t = time.perf_counter()
        n_out = rd.from_arrow(fetched).map_batches(
            ContentDedupStage(shards, text_col="html"), batch_format="pyarrow",
            batch_size=256).count()
        dt = time.perf_counter() - t
    finally:
        for a in shards:
            ray.kill(a)
    return {"dedup.content_s": dt, "dedup.content_rows_in": fetched.num_rows,
            "dedup.content_rows_out": n_out}
