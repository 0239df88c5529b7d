"""Round-based BFS crawl frontier on Ray (F6/F7/F10/F11/F12/F14).

The reference's sequential FIFO BFS (site-crawler.service.js:129-194)
is re-expressed as frontier ROUNDS: each round grants per-host budgets
from the driver's politeness ledger, fetches the granted slice, extracts links,
and feeds the seen-set shards to build the next frontier. Crawl
ordering parity with the sequential loop comes from ``discovery_seq``:
a FIFO BFS queue is exactly (depth, discovery_seq) order, so processing
rounds in discovery_seq order reproduces the reference fetch order
bit-for-bit (proved against the oracle in tests/test_crawl_parity.py).

Scale notes (10^10-URL frontier, multi-node):
- Page CONTENT never touches the driver: fetch + link extract run as
  Ray tasks whose output blocks stay in the object store, wrapped into
  ONE Dataset when the crawl ends; a plain task per round checkpoints
  its pages to parquet (resume = skip complete rounds).
- The frontier is sharded object-store state: K hash(host) buckets of
  Arrow tables, gated once at insert time. The driver only sees int
  order keys per round (or, above ``rank_gather_limit``, per-shard
  samples and counts — state/distrank.py).
- The seen set is an actor pool; ONE batched RPC per shard per round.
  Politeness is one driver-local ledger (one grant per round). Robots
  rules are static per crawl and evaluated locally in the tasks against
  one broadcast copy of the raw robots map.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..functions.hashing import hash64_many
from ..functions.urltools import (
    canonicalize, host_of, priority_tier, resolve_href, same_domain,
    should_exclude,
)
from ..state import distrank
from ..state.placement import spread_opts
from ..state.politeness import Politeness
from ..state.robots_cache import RobotsGate, RobotsIndex, local_check
from ..state.seen import SeenSet
from ..stages.extract import extract_hrefs

# Host-hash buckets: the frontier's ONE partitioning key, reused every
# round, and the page store's shard key, so a per-bucket fetch task pulls
# only its own shard. The bookkeeping cost scales with K x KU (explode
# fan-out + reduce fan-in objects), so both are kept small and fixed:
# measured on a 17.5k-page world @16 cpus, (K,KU)=(16,8) -> 2.0 s,
# (16,16) -> 2.3 s, (8,8) -> 2.6 s, (32,8) -> 5.7 s. Fetch tasks at
# ~K-way parallelism are not the round bottleneck (per-page fetch ~1 ms).
K = 16   # frontier buckets / page-store shards, by hash(host)
KU = 8   # candidate-shuffle shards, by hash(url)


def _bucket_of(hosts) -> np.ndarray:
    """Frontier bucket / page-store shard index of each host."""
    return (hash64_many(hosts) % np.uint64(K)).astype(np.int64)


def _fast_path(url: str) -> str:
    """Path of a canonical http(s) URL (scheme://host[/path], no query/frag)."""
    i = url.find("/", 8)  # skip 'https://'
    return url[i:] if i >= 0 else "/"


def _frontier_table(urls, hosts, depths, seqs, parent_hashes=None) -> pa.Table:
    urls = list(urls)
    paths = [_fast_path(u) for u in urls]
    if parent_hashes is None:
        parent_hashes = np.zeros(len(urls), dtype=np.uint64)  # seeds: no parent
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "url_hash": pa.array(hash64_many(urls), pa.uint64()),
        "host": pa.array(list(hosts), pa.string()),
        "path": pa.array(paths, pa.string()),
        "depth": pa.array(list(depths), pa.int32()),
        "discovery_seq": pa.array(list(seqs), pa.int64()),
        "priority": pa.array([priority_tier(u) for u in urls], pa.int8()),
        "parent_url_hash": pa.array(np.asarray(parent_hashes, dtype=np.uint64),
                                    pa.uint64()),
    })


# Per-worker zero-copy cache of page-store shards: ray.get of a pyarrow
# Table is zero-copy from the object store, and caching by ObjectRef avoids
# re-resolving it for every task. Bounded (not cleared wholesale) because a
# worker legitimately serves several host-hash shards across rounds. In
# production this stage is an HTTP/browser fetch actor pool (the reference's
# Puppeteer/Playwright singletons); the page-store join exists only as the
# sandbox stand-in for the network.
_PAGES_CACHE: dict[str, tuple[pa.Table, np.ndarray]] = {}
_PAGES_CACHE_CAP = 64


def _page_store(pages_ref) -> tuple[pa.Table, np.ndarray]:
    key = pages_ref.hex()
    hit = _PAGES_CACHE.get(key)
    if hit is None:
        if len(_PAGES_CACHE) >= _PAGES_CACHE_CAP:
            _PAGES_CACHE.clear()
        tbl: pa.Table = ray.get(pages_ref)
        hit = (tbl, tbl.column("url_hash").to_numpy())  # sorted keys
        _PAGES_CACHE[key] = hit
    return hit


@dataclass
class PageStoreShards:
    """The page store as K host-hash shards in the object store
    (VERDICT r3 #6): ``refs[hash64(host) % K]`` holds the url_hash-sorted
    pages of that host bucket. One monolithic ``ray.put`` table forces
    every NODE of a real cluster to pull the full store on first fetch;
    sharded by the SAME host-hash the frontier uses, a per-bucket fetch
    task pulls exactly its own shard."""
    refs: list


def put_page_store(pages_store: pa.Table) -> PageStoreShards:
    """Split a url_hash-sorted page store into K host-hash shards and put
    each in the object store. Setup work (the store stands in for the
    network) — callers that time the crawl hoist this, like ray.put."""
    b = _bucket_of(pages_store.column("host").to_pylist())
    return PageStoreShards([ray.put(pages_store.filter(pa.array(b == i)))
                            for i in range(K)])  # filter keeps url_hash order


class FetchStage:
    """Stateless fetch stage (S1/S2 stand-in): frontier rows -> page rows via
    searchsorted lookup against the sharded page store (no per-task copy;
    a task resolves only the host-hash shards its rows map to).

    Link extraction (F1-F4) is FUSED into the fetch task — one Dataset job
    per frontier round instead of two — emitting the canonical same-domain
    non-excluded outlinks as a per-page list column (in-page first-seen
    dedup preserved, document order = discovery_seq tiebreak)."""

    def __init__(self, shards: PageStoreShards):
        self.shards = shards

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        h = batch.column("url_hash").to_numpy()
        status = np.full(n, 404, dtype=np.int16)
        html = [""] * n
        xhr = [None] * n
        b = _bucket_of(batch.column("host").to_pylist())
        for bk in np.unique(b):
            idx = np.flatnonzero(b == bk)
            pages, keys = _page_store(self.shards.refs[bk])
            hh = h[idx]
            if len(keys):
                pos = np.searchsorted(keys, hh)
                pos_c = np.clip(pos, 0, len(keys) - 1)
                found = keys[pos_c] == hh
            else:
                found = np.zeros(len(hh), dtype=bool)
                pos_c = np.zeros(len(hh), dtype=np.int64)
            rows = pages.take(pa.array(pos_c[found]))
            fi = idx[np.flatnonzero(found)]
            status[fi] = rows.column("status").to_numpy()
            h_col = rows.column("html").to_pylist()
            x_col = rows.column("xhr_json").to_pylist()
            for k2, i in enumerate(fi):
                html[i] = h_col[k2] or ""
                xhr[i] = x_col[k2]
        urls = batch.column("url").to_pylist()
        hosts = batch.column("host").to_pylist()
        links: list[list[str]] = []
        for i in range(n):
            if status[i] != 200 or not html[i]:
                links.append([])
                continue
            links.append(_canonical_links(html[i], urls[i], hosts[i]))
        out = batch.append_column("status", pa.array(status, pa.int16()))
        out = out.append_column("html", pa.array(html, pa.large_string()))
        out = out.append_column("xhr_json", pa.array(xhr, pa.large_string()))
        out = out.append_column("links_canon", pa.array(links, pa.list_(pa.string())))
        ok = [bool(status[i] == 200 and html[i]) for i in range(n)]
        out = out.append_column("fetch_ok", pa.array(ok, pa.bool_()))
        return out


class HttpFetchStage:
    """Real network fetch (S1, the production path behind
    ``crawl(fetcher="http")``): plain HTTP GET per frontier row via
    stdlib urllib — the axios path of the reference
    (professional-crawler.service.js:166, 15 s timeout). Emits the SAME
    schema as the page-store FetchStage (status, html, xhr_json,
    links_canon, fetch_ok), so the frontier and every downstream stage
    work unchanged; xhr_json is null (no browser — the reference's
    Puppeteer/Playwright XHR capture is a browser-pool analogue).
    Status semantics (ADVICE r3): any HTTP response records its real
    status code — 4xx/5xx come back as HTTPError and are recorded as
    e.code, distinguishable in visited metadata and backoff stats from
    transport failures (timeout / refused / DNS), which record status 0.
    ALL 2xx responses count as fetch_ok (the axios reference treats the
    whole 2xx class as success); everything else is the reference's
    catch-and-continue fetch_ok=False. Used as a map_batches stage whose
    per-task fan-out is bounded by fetch_concurrency, with politeness
    pacing still enforced by the per-round grant."""

    def __init__(self, timeout: float = 15.0):
        self.timeout = timeout

    def __call__(self, batch: pa.Table) -> pa.Table:
        import urllib.error
        import urllib.request
        n = batch.num_rows
        urls = batch.column("url").to_pylist()
        hosts = batch.column("host").to_pylist()
        status = np.zeros(n, dtype=np.int16)
        html: list[str] = [""] * n
        for i, u in enumerate(urls):
            try:
                with urllib.request.urlopen(u, timeout=self.timeout) as r:
                    status[i] = r.status
                    if 200 <= r.status < 300:
                        html[i] = r.read().decode("utf-8", errors="replace")
            except urllib.error.HTTPError as e:
                status[i] = e.code  # real HTTP response (4xx/5xx)
            except Exception:
                status[i] = 0  # transport error (timeout/refused/DNS)
        links = [
            _canonical_links(html[i], urls[i], hosts[i])
            if 200 <= status[i] < 300 and html[i] else []
            for i in range(n)
        ]
        ok = [bool(200 <= status[i] < 300 and html[i]) for i in range(n)]
        out = batch.append_column("status", pa.array(status, pa.int16()))
        out = out.append_column("html", pa.array(html, pa.large_string()))
        out = out.append_column("xhr_json",
                                pa.array([None] * n, pa.large_string()))
        out = out.append_column("links_canon",
                                pa.array(links, pa.list_(pa.string())))
        return out.append_column("fetch_ok", pa.array(ok, pa.bool_()))


def _canonical_links(html: str, url: str, host: str) -> list[str]:
    """F1-F4 for one page: document order, in-page first-seen dedup."""
    local: set[str] = set()
    out: list[str] = []
    for href in extract_hrefs(html):
        absu = resolve_href(href, url)
        if absu is None:
            continue
        canon = canonicalize(absu)
        if canon is None or canon in local:
            continue
        if not same_domain(host_of(canon), host) or should_exclude(canon):
            continue
        local.add(canon)
        out.append(canon)
    return out


@dataclass
class CrawlResult:
    visited: pa.Table                 # (round, discovery_seq, url, host, depth)
    pages: "rd.Dataset | None"        # fetched pages (url, html, xhr, provenance)
    seen_snapshot: np.ndarray         # sorted uint64 url hashes
    stats: dict = field(default_factory=dict)
    metrics: list = field(default_factory=list)
    # set iff crawl(visited_spill_dir=...) was used: the visited table
    # then lives as per-round parquet under this dir (read lazily with
    # ray.data.read_parquet) and ``visited`` above is EMPTY — the driver
    # never holds O(total fetched) rows (the 10^10-URL RAM bound)
    visited_dir: "str | None" = None


# ---------------------------------------------------------------------------
# The frontier is SHARDED STATE in the object store — K host-hash buckets
# of Arrow tables, each depth+robots-gated at insert time — and the
# per-page work (fetch + link extract) is one Ray task per bucket slice.
# Round bookkeeping (mark granted rows, rank, candidate dedup/seen gate,
# frontier merge) runs as small Ray tasks over the bucket refs: the
# Dataset executor's fixed per-job cost (~0.3-0.5 s x 9 jobs/round in an
# earlier all-Dataset form) measured 17x slower at bench scale.
# Parity-tested bit-for-bit against the oracle (tests/test_crawl_parity.py).
# ---------------------------------------------------------------------------


@ray.remote(num_cpus=0)
class _Keeper:
    """Warm process pool for the per-round frontier bookkeeping.

    The bookkeeping callables (_prep_bucket/_mark_bucket/_finish_taken/
    _finish_fresh) are tiny int-key kernels, but as 0-cpu TASKS they
    stalled the round critical path whenever the cluster was saturated
    by concurrent extract tasks: Ray reaps idle workers beyond
    num_cpus, so each round's batch of tiny tasks re-paid worker spawn
    + package import on a busy node — measured 1.6 s (bare fn) to
    6.7 s (package import) for 16 such tasks at 32 busy cpus, vs
    0.08 s on a warm actor; that was round 3's 3.0 s mark_wait in the
    phase profile. One 0-cpu actor per frontier bucket pins a warm
    process for the whole crawl (and, via the session-keyed pool cache,
    across crawls in a session); per-bucket calls serialize on the
    bucket's actor, which matches the data dependencies (mark ->
    finish_taken -> next-round parts consume each other's outputs).
    """

    def run(self, fn, *args):
        return fn(*args)


_KEEPER_POOLS: dict = {}


def _keeper_pool(k: int) -> list:
    """K warm _Keeper handles, cached per (ray cluster instance, job,
    k). Keyed by node id AND job id: job ids restart at the same value
    in every fresh local cluster, so job id alone would reuse dead
    handles across an init/shutdown cycle in one process (bench runs
    several); the node id is unique per cluster instance. Stale
    other-cluster entries are pruned on miss."""
    ctx = ray.get_runtime_context()
    key = (ctx.get_node_id(), ctx.get_job_id(), k)
    pool = _KEEPER_POOLS.get(key)
    if pool is None:
        for old in [o for o in _KEEPER_POOLS if o[:2] != key[:2]]:
            del _KEEPER_POOLS[old]
        pool = [_Keeper.options(**spread_opts()).remote() for _ in range(k)]
        _KEEPER_POOLS[key] = pool
    return pool


def _prep_bucket(tbl: pa.Table, robots: RobotsGate, max_depth: int):
    """Gate (depth + robots, once per URL — both are static per crawl)
    one frontier bucket. Returns (gated table, per-host counts) in
    arrival order — buckets are unordered parts; _mark_bucket orders by
    int keys per round. Used for the initial/resumed frontier;
    candidates are gated by _reduce_candidates as they enter."""
    tbl = tbl.filter(pc.less_equal(tbl.column("depth"), max_depth))
    if tbl.num_rows:
        tbl = tbl.filter(pa.array(local_check(
            robots.ref, tbl.column("host").to_pylist(),
            tbl.column("path").to_pylist())))
    hosts, counts = np.unique(np.asarray(tbl.column("host")), return_counts=True)
    return tbl, {str(h): int(c) for h, c in zip(hosts, counts)}


def _encode_taken_keys(taken: pa.Table, encode_pri: bool) -> np.ndarray:
    """The bucket's round order as ONE sorted uint64 key per row:
    discovery_seq (fifo) or (priority << 56) | discovery_seq (priority
    order; tiers are 1-3, seqs bounded by total discovered URLs — far
    under 2^56 even at the 10^10-page design point, asserted)."""
    seq = taken.column("discovery_seq").to_numpy()
    keys = seq.astype(np.uint64)
    if encode_pri and len(keys):
        # explicit raise (not assert): this bound check must survive
        # `python -O` — an overflow would silently corrupt the
        # distributed rank order on exactly the huge-round paths the
        # encoding exists for (ADVICE r3)
        if int(seq.max()) >= (1 << 56):
            raise ValueError("discovery_seq overflows uint64 order key "
                             f"(max={int(seq.max())} >= 2^56)")
        keys |= taken.column("priority").to_numpy().astype(np.uint64) \
            << np.uint64(56)
    return keys


def _mark_bucket(grant: dict, encode_pri: bool = False,
                 remote_keys: bool = False, *parts: pa.Table):
    """Select one frontier bucket's granted per-host prefix (in round
    order) vs the deferred rest. The bucket arrives as concat PARTS
    (previous rest + this round's gated-in candidate parts) in ANY
    order: selection sorts the int ORDER KEYS only — the full table is
    never order-permuted (the previous whole-bucket ``sort_by`` re-paid
    an O(n log n) string permute EVERY round; at 2x bench world that
    was ~26 task-seconds/run and the head of each round's critical
    path). ``taken`` comes back key-sorted (the _encode_taken_keys
    order — distrank's per-shard precondition); ``deferred`` keeps
    arrival order, which no consumer relies on.

    Returns (taken, deferred, info, keys): info carries the per-host
    taken counts plus the taken rows' ORDER KEYS (ints only) for the
    driver-side global argsort — or, with ``remote_keys``
    (rank_assign="distributed"), only a count + sample while the full
    encoded key array rides in the 4th return for state/distrank.py,
    so the driver never gathers O(round) keys."""
    parts = [p for p in parts if p is not None and p.num_rows]
    if not parts:
        e = _frontier_table([], [], [], [])
        return e, e, {"taken_per_host": {}, "pri": None, "seq": None,
                      "n": 0, "sample": None}, None
    tbl = (pa.concat_tables(parts).combine_chunks() if len(parts) > 1
           else parts[0])
    keys_all = _encode_taken_keys(tbl, encode_pri)
    order = np.argsort(keys_all)  # int keys; seqs unique -> total order
    hosts = pd.Series(np.asarray(tbl.column("host"))[order])
    cc = hosts.groupby(hosts, sort=False).cumcount().to_numpy()
    budget = hosts.map(lambda h: grant.get(h, 0)).to_numpy()
    mask_sorted = cc < budget
    taken_idx = order[mask_sorted]  # ascending-key order preserved
    mask = np.zeros(tbl.num_rows, dtype=bool)
    mask[taken_idx] = True
    taken = tbl.take(pa.array(taken_idx))
    deferred = tbl.filter(pa.array(~mask))
    th = np.asarray(taken.column("host"))
    uh, uc = np.unique(th, return_counts=True)
    info = {"taken_per_host": {str(h): int(c) for h, c in zip(uh, uc)},
            "pri": None, "seq": None, "n": taken.num_rows, "sample": None}
    if remote_keys:
        keys = keys_all[taken_idx]
        info["sample"] = distrank.sample_keys(keys)
        return taken, deferred, info, keys
    info["pri"] = taken.column("priority").to_numpy()
    info["seq"] = taken.column("discovery_seq").to_numpy()
    return taken, deferred, info, None


def _finish_taken(tbl: pa.Table, room: int, *rank_parts):
    """Append the global fetch_rank and apply the max_pages cap: rows with
    rank < room are this round's fetch list, the rest flow back to the
    deferred frontier (minus the rank column). ``rank_parts`` is one
    driver-built array (rank_assign="driver") or this bucket's distrank
    range slices in range order (= the bucket's sorted row order, since
    ranges are contiguous runs of it). Returns
    (fetch_tbl, overflow_tbl, overflow per-host counts)."""
    ranks = (np.concatenate([np.asarray(p) for p in rank_parts])
             if len(rank_parts) != 1 else np.asarray(rank_parts[0]))
    tbl = tbl.append_column("fetch_rank", pa.array(ranks, pa.int64()))
    # ranks are GLOBAL positions: a bucket smaller than room can still
    # hold rows past the cap, so the fast path needs max(rank) < room
    if tbl.num_rows == 0 or int(ranks.max()) < room:
        empty = tbl.slice(0, 0).drop_columns(["fetch_rank"])
        return tbl, empty, {}
    keep = ranks < room
    fetch = tbl.filter(pa.array(keep))
    overflow = tbl.filter(pa.array(~keep)).drop_columns(["fetch_rank"])
    oh, oc = np.unique(np.asarray(overflow.column("host")), return_counts=True)
    return fetch, overflow, {str(h): int(c) for h, c in zip(oh, oc)}


@ray.remote(num_returns=2)
def _fetch_block(stage, tbl: pa.Table, meta_cols: tuple,
                 part: int = 0, n_parts: int = 1):
    """One fetch task per frontier-block SLICE. Plain Ray task instead
    of a Dataset executor job: a BFS round is a hard barrier, so the
    streaming executor buys nothing here while costing ~0.3-0.4 s fixed
    startup per round (round-3 fixed-cost cut). Returns (fetched block,
    metadata projection) in ONE task — a separate 0-cpu projection task
    per block churned the worker pool (import storms => stragglers).
    The fetched blocks stay in the object store; crawl() wraps the
    non-empty ones of every round into one Dataset at the end.

    ``part``/``n_parts`` slice the block INSIDE the task (zero extra
    data movement): fetch parallelism then isn't capped by the K=16
    frontier buckets when the cluster has more slots — at 32 cpus the
    big final-depth rounds previously fetched 16-wide."""
    if n_parts > 1:
        step = -(-tbl.num_rows // n_parts)
        tbl = tbl.slice(part * step, step)
    out = stage(tbl)
    return out, out.select(list(meta_cols))


@ray.remote(num_returns=KU)
def _explode_bucketed(tbl: pa.Table):
    """Map side of the candidate shuffle: explode one fetched block's
    links and partition by hash(url) into KU shards — same url always
    lands in the same reduce task."""
    cand = _explode_links_batch(tbl)
    h = hash64_many(cand.column("url").to_pylist())
    cand = cand.append_column("url_hash", pa.array(h, pa.uint64()))
    b = (h % np.uint64(KU)).astype(np.int64)
    return tuple(cand.filter(pa.array(b == i)) for i in range(KU))


@ray.remote(num_cpus=1, num_returns=3, max_retries=0)
def _reduce_candidates(shards, robots: RobotsGate, max_depth: int,
                       want_hashes: bool, remote_keys: bool,
                       *pieces: pa.Table):
    """Reduce side of the candidate shuffle, one url shard per task:
    in-round first-seen dedup (order: parent fetch rank, link position)
    -> seen-shard check_and_add (cross-task urls are disjoint by the url
    partitioning, so shard results are arrival-order independent) ->
    depth + robots gate (insert-time gating; gated-out rows still consume
    their discovery_seq, matching the oracle's numbering, via the
    __gated mask). NOT idempotent: check_and_add inserts as it tests, so
    a re-run on the same pieces against the same shards returns no fresh
    rows. Hence max_retries=0 — a worker death fails the crawl loudly
    instead of silently dropping urls.
    Returns (fresh candidate table incl. __gated, info, keys) where info
    holds the fresh rows' order keys (ints), the gated rows' per-host
    counts, and — only when checkpointing — the fresh url hashes. With
    ``remote_keys`` (rank_assign="distributed") the order keys are
    instead encoded as one sorted uint64 array ((parent_rank << 24) |
    link_idx — unique per link occurrence; bounds asserted) returned as
    the 3rd value for state/distrank.py, and info carries only a count
    + sample; the driver then never gathers O(candidates) keys.
    (Checkpointing still gathers the O(fresh) url hashes for the
    seen-delta file — checkpoint writes are driver-paced by design.)"""
    from ..state.seen import scatter_check_and_add
    parts = [p for p in pieces if p.num_rows]
    if not parts:
        return None, None, None
    t = pa.concat_tables(parts).combine_chunks()
    t = t.sort_by([("parent_rank", "ascending"), ("link_idx", "ascending")])
    urls = pd.Series(np.asarray(t.column("url")))
    t = t.filter(pa.array(~urls.duplicated().to_numpy()))
    fresh = scatter_check_and_add(shards, t.column("url_hash").to_numpy())
    t = t.filter(pa.array(fresh))
    if t.num_rows == 0:
        return None, None, None
    gated = t.column("depth").to_numpy() <= max_depth
    if gated.any():
        paths = [_fast_path(u) for u in t.column("url").to_pylist()]
        allowed = np.asarray(local_check(
            robots.ref, t.column("host").to_pylist(), paths))
        gated = gated & allowed
    t = t.append_column("__gated", pa.array(gated, pa.bool_()))
    gh, gc = np.unique(np.asarray(t.filter(pa.array(gated)).column("host")),
                       return_counts=True)
    info = {
        "rank": None, "idx": None, "n": t.num_rows, "sample": None,
        "host_counts": {str(h): int(c) for h, c in zip(gh, gc)},
        "hashes": t.column("url_hash").to_numpy() if want_hashes else None,
    }
    if remote_keys:
        rank = t.column("parent_rank").to_numpy()
        idx = t.column("link_idx").to_numpy()
        # unique per link occurrence; rank < 2^39 (bounded by this
        # round's fetch count), idx < 2^24 (links per page). Explicit
        # raise so the check survives `python -O` (ADVICE r3).
        if len(idx) and (int(idx.max()) >= (1 << 24)
                         or int(rank.max()) >= (1 << 39)):
            raise ValueError(
                "fresh order key overflows uint64 encoding "
                f"(max link_idx={int(idx.max())}, "
                f"max parent_rank={int(rank.max())})")
        keys = (rank.astype(np.uint64) << np.uint64(24)) | idx.astype(np.uint64)
        info["sample"] = distrank.sample_keys(keys)
        return t, info, keys
    info["rank"] = t.column("parent_rank").to_numpy()
    info["idx"] = t.column("link_idx").to_numpy()
    return t, info, None


def _finish_fresh(tbl: pa.Table, *seq_parts):
    """Append the driver-assigned discovery_seqs (covering gated-out rows
    too — they consume seqs, as in the oracle), drop gated-out rows,
    build frontier-schema columns, and partition by hash(host) into the K
    frontier buckets (num_returns=K at the call site). ``seq_parts`` is
    one driver-built array or this shard's distrank range slices in
    range order (= the shard's sorted (parent_rank, link_idx) order)."""
    seqs = (np.concatenate([np.asarray(p) for p in seq_parts])
            if len(seq_parts) != 1 else np.asarray(seq_parts[0]))
    tbl = tbl.append_column("discovery_seq", pa.array(seqs, pa.int64()))
    tbl = tbl.filter(tbl.column("__gated"))
    urls = tbl.column("url").to_pylist()
    fr = pa.table({
        "url": tbl.column("url"),
        "url_hash": tbl.column("url_hash"),
        "host": tbl.column("host"),
        "path": pa.array([_fast_path(u) for u in urls], pa.string()),
        "depth": pc.cast(tbl.column("depth"), pa.int32()),
        "discovery_seq": tbl.column("discovery_seq"),
        "priority": pa.array([priority_tier(u) for u in urls], pa.int8()),
        "parent_url_hash": tbl.column("parent_url_hash"),
    })
    b = _bucket_of(fr.column("host").to_pylist())
    return tuple(fr.filter(pa.array(b == i)) for i in range(K))


def _explode_links_batch(batch: pa.Table) -> pa.Table:
    """Vectorized link explode for the next-frontier build:
    one output row per (page, link) with the page's provenance."""
    lc = batch.column("links_canon")
    lc = lc.combine_chunks() if isinstance(lc, pa.ChunkedArray) else lc
    flat = pc.list_flatten(lc)
    if len(flat) == 0:
        return pa.table({"url": pa.array([], pa.string()),
                         "host": pa.array([], pa.string()),
                         "depth": pa.array([], pa.int32()),
                         "parent_rank": pa.array([], pa.int64()),
                         "link_idx": pa.array([], pa.int32()),
                         "parent_url_hash": pa.array([], pa.uint64())})
    parents = pc.list_parent_indices(lc)
    lens = pc.list_value_length(lc).to_numpy(zero_copy_only=False).astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    link_idx = np.arange(int(lens.sum()), dtype=np.int64) - \
        np.repeat(starts, lens)
    return pa.table({
        "url": flat,
        "host": pc.take(batch.column("host"), parents),
        "depth": pc.cast(pc.add(pc.take(batch.column("depth"), parents), 1),
                         pa.int32()),
        "parent_rank": pc.cast(pc.take(batch.column("fetch_rank"), parents),
                               pa.int64()),
        "link_idx": pa.array(link_idx.astype(np.int32), pa.int32()),
        "parent_url_hash": pc.take(batch.column("url_hash"), parents),
    })


def crawl(pages_store: pa.Table, robots_by_host: dict[str, str], seeds: list[str],
          max_pages: int = 10_000, max_depth: int = 3,
          round_seconds: float | None = None,
          n_seen_shards: int = 4, fetch_concurrency: int = 4,
          checkpoint_dir: str | None = None,
          keep_pages: bool = True,
          resume_from: str | None = None,
          backoff: bool = False,
          order: str = "fifo",
          frontier_mode: str = "dataset",
          seen_spill_threshold: int | None = None,
          fetcher: str = "pagestore",
          fetch_timeout: float = 15.0,
          page_hook=None,
          visited_spill_dir: str | None = None,
          rank_assign: str = "auto",
          rank_gather_limit: int = 4_000_000,
          fetch_stage=None) -> CrawlResult:
    """Run the round-based BFS. ``pages_store`` must be sorted by url_hash
    (pass ``None`` with ``fetcher="http"``); a ``PageStoreShards`` from
    ``put_page_store`` is used as is, a plain table is sharded here.

    ``page_hook``: optional object whose ``consume_refs(refs)`` is called
    once per fetching round with that round's raw fetched-block refs
    (ObjectRefs of page tables, submitted but not awaited), before the
    driver waits on the round's fetches.

    ``fetcher``: ``"pagestore"`` (default) joins the synthetic page store
    — the sandbox stand-in for the network; ``"http"`` performs real
    HTTP GETs via HttpFetchStage (same output schema, 15 s reference
    timeout) so the engine can crawl a live site. All ordering,
    politeness and dedup semantics are fetcher-independent.

    ``round_seconds=None`` ⇒ infinite politeness budget (pure reference
    BFS order); otherwise per-host budget = floor(round_seconds / delay)
    on the deterministic virtual clock (see state/politeness.py).

    ``order``: ``"fifo"`` (default) reproduces the reference BFS order;
    ``"priority"`` processes each round in (F4 priority tier,
    discovery_seq) order — the "priority frontier" form, folding the
    reference's phase-2 prioritizeUrls ordering (site-crawler:84-124)
    into the frontier itself. Both orders are oracle-parity-tested.

    ``backoff=True`` enables the F12 implied-API exponential failure
    backoff: a host's next-round budget is halved per fetch failure
    recorded this round (floor 1), reset on an all-success round — the
    oracle mirrors this exactly (parity-tested).

    ``resume_from``: a checkpoint dir from a prior run — the crawl
    continues from the max complete round (frontier + seen set + fetched
    count restored; earlier rounds' pages are already on disk there).
    The resumed run's fetch order is exactly the rounds the interrupted
    run would have executed next (tests/test_checkpoint.py asserts
    capped-run + resumed-run ≡ one uninterrupted run). A checkpoint
    whose metrics.json lacks ``next_seq`` raises ``ValueError``.

    ``seen_spill_threshold``: per-shard exact-tier key bound (the exact
    tier is a sorted uint64 array, 8 B/key); past it keys spill to a
    bloom tier (no false negatives, so nothing is re-crawled; a bloom
    false positive skips a new URL). CONTRACT: after a spill
    ``CrawlResult.seen_snapshot`` is partial (spilled keys are
    queryable, not enumerable; a warning is logged) while
    ``stats['seen']`` and each round's ``metrics[i]['seen']`` (a driver
    running count of inserted keys, no shard RPC) still count them;
    resume stays exact because checkpoints persist per-round seen DELTAS.

    ``visited_spill_dir``: bound the driver's visited-table RAM — each
    round's visited metadata is written to
    ``<dir>/round=NNNNNN.parquet`` instead of accumulating on the
    driver (O(total fetched) at 10^10 URLs). ``CrawlResult.visited`` is
    then EMPTY and ``CrawlResult.visited_dir`` points at the parquet
    (read lazily with ray.data.read_parquet; identical rows — asserted
    in tests).

    ``rank_assign``: how per-round global fetch ranks / discovery_seqs
    are assigned. ``"auto"`` (default) gathers per-bucket int order
    keys to the driver below ``rank_gather_limit`` rows/round and
    switches to the distributed sample-merge-rank (state/distrank.py —
    driver sees samples + counts only) above it; ``"driver"`` /
    ``"distributed"`` force a path. Both paths are bit-for-bit
    identical (parity-tested).
    """
    if frontier_mode != "dataset":
        raise ValueError(f"frontier_mode={frontier_mode!r}: the only "
                         "frontier is 'dataset'")
    if fetch_stage is None:
        # a caller-supplied stage follows FetchStage's output schema
        # (status/html/xhr_json/links_canon/fetch_ok) — e.g.
        # sources/procedural_world.ProceduralFetchStage
        if fetcher == "http":
            fetch_stage = HttpFetchStage(fetch_timeout)
        else:
            # the upload is world SETUP (the network stand-in), not
            # crawl work: callers that time the crawl hoist it
            if not isinstance(pages_store, PageStoreShards):
                pages_store = put_page_store(pages_store)
            fetch_stage = FetchStage(pages_store)
    info = resume_info(resume_from) if resume_from else None
    if info is not None and info["next_seq"] is None:
        raise ValueError(f"checkpoint {resume_from!r} has no next_seq in "
                         "its metrics.json; it cannot be resumed")
    seen = SeenSet(n_shards=n_seen_shards, spill_threshold=seen_spill_threshold)
    politeness = Politeness(
        round_seconds if round_seconds is not None else float("inf"))
    # robots rules are static per crawl: every explicit crawl-delay is
    # installed up front (hosts without one use the politeness default)
    politeness.set_delays(
        RobotsIndex(robots_by_host).delays(list(robots_by_host)))

    round_delta: list[np.ndarray] = []  # hashes newly seen this round (checkpoint delta)
    if info is not None:
        frontier = info["frontier"]
        seen.bulk_add(info["seen"])
        n_seen = len(info["seen"])
        n_fetched = info["fetched"]
        rnd = info["round"] + 1
        next_seq = int(info["next_seq"])
    else:
        # seed the frontier (enqueue-time seen insertion, reference :136).
        # First-seen dedup of the canonical seeds BEFORE hashing: a repeated
        # key is NEW at every position of one check_and_add batch, and the
        # oracle's `canon in seen: continue` skips dup seeds.
        s_urls, s_hosts = [], []
        seed_local: set[str] = set()
        for s in seeds:
            c = canonicalize(s)
            if c is not None and c not in seed_local:
                seed_local.add(c)
                s_urls.append(c)
                s_hosts.append(host_of(c))
        s_hashes = hash64_many(s_urls)
        new_mask = seen.check_and_add(s_hashes)
        keep = np.flatnonzero(new_mask)
        frontier = _frontier_table(
            [s_urls[i] for i in keep], [s_hosts[i] for i in keep],
            [0] * len(keep), list(range(len(keep))))
        next_seq = n_seen = len(keep)
        n_fetched = 0
        rnd = 0
        round_delta.append(s_hashes[keep])  # seeds enter the round-0 delta

    # Insert-time robots gating evaluates LOCALLY in the prep/reduce
    # tasks against one broadcast of the raw robots map — a single
    # robots actor's check RPC serialized the KU parallel reduce tasks
    # every round (robots_cache.local_check; decisions bit-identical)
    return _crawl_rounds_dataset(
        fetch_stage, RobotsGate(ray.put(robots_by_host)), seen, politeness,
        frontier, next_seq, n_seen, n_fetched, rnd, round_delta, max_pages,
        max_depth, checkpoint_dir, keep_pages, backoff, order, page_hook,
        fetch_concurrency, visited_spill_dir, rank_assign,
        rank_gather_limit)


_EMPTY_VISITED = pa.table({"round": pa.array([], pa.int32()),
                           "discovery_seq": pa.array([], pa.int64()),
                           "url": pa.array([], pa.string()),
                           "host": pa.array([], pa.string()),
                           "depth": pa.array([], pa.int32()),
                           "parent_url_hash": pa.array([], pa.uint64())})


def _spill_visited(d: str, rnd: int, tbl: pa.Table) -> None:
    os.makedirs(d, exist_ok=True)
    pq.write_table(tbl, os.path.join(d, f"round={rnd:06d}.parquet"))


def _host_counts(arr) -> dict:
    """Vectorized per-host fetch counts for the round metrics (was a
    per-row Python dict loop — O(pages) driver time per round)."""
    vc = pc.value_counts(arr.combine_chunks()
                         if isinstance(arr, pa.ChunkedArray) else arr)
    return {v: int(c) for v, c in zip(vc.field("values").to_pylist(),
                                      vc.field("counts").to_pylist())}


def _crawl_rounds_dataset(fetch_stage, gate: RobotsGate, seen, politeness,
                          frontier_tbl: pa.Table, next_seq: int, n_seen: int,
                          n_fetched: int, rnd: int, round_delta: list,
                          max_pages: int, max_depth: int,
                          checkpoint_dir: str | None, keep_pages: bool,
                          backoff: bool, order: str, page_hook,
                          fetch_concurrency: int,
                          visited_spill_dir: str | None,
                          rank_assign: str,
                          rank_gather_limit: int) -> CrawlResult:
    """The crawl's round loop. The frontier is sharded object-store
    state — K hash(host) buckets of Arrow tables, gated (depth + robots,
    both static per crawl) ONCE at insert time and kept as UNORDERED
    concat parts (prev rest + per-round gated-in candidates; zero-copy)
    — while the round's heavy work (fetch + link extract) runs as one
    Ray task per bucket slice. Bookkeeping runs as small Ray tasks over
    the bucket refs:

    - mark: per bucket, take the granted per-host prefix in round order
      by argsorting the int ORDER KEYS only (groupby-cumcount over the
      key order). No merge/sort task between rounds: the earlier
      sorted-bucket invariant re-paid an O(n log n) full-table string
      permute per round (~26 task-s/run at 2x bench world) on the
      critical path of every round start.
    - rank / seq assignment: per-bucket ORDER KEYS (ints only — never
      urls/html) are gathered to the driver, argsorted, and the ranks
      shipped back per bucket. O(round x ~12 B) driver traffic — the
      same O(round-metadata) class as the visited collection. (An
      earlier all-Dataset form used a distributed sort + prefix-sum
      here; its 2 extra all-to-all jobs per round measured 17x slower
      at bench scale, see git history.) Above ``rank_gather_limit``
      rows (or with ``rank_assign="distributed"``) even the int-key
      gather is skipped: state/distrank.py assigns identical ranks by a
      sample-merge-rank (driver sees per-shard samples + counts only —
      the 10^8-rows/round path; forced-distributed parity pinned in
      tests/test_crawl_parity.py).
    - candidate shuffle: explode tasks partition links by hash(url) into
      url shards (map side); one reduce task per shard does first-seen
      dedup, the seen-shard check_and_add (cross-shard urls are
      disjoint, so shard results are arrival-order independent), and the
      insert-time gate. Gated-OUT rows still consume discovery_seqs —
      exactly the oracle's numbering, where gates run at round start.
    - per-host frontier counts are maintained incrementally driver-side
      (minus taken, plus cap overflow, plus gated-in candidates), so no
      counting pass touches the frontier.

    Bit-for-bit parity with the reference oracle is asserted in
    tests/test_crawl_parity.py for fifo + priority orders, budgets, caps
    and backoff; checkpoints exclude gated-out rows, which resume would
    re-drop anyway.

    The seen gate is the one non-idempotent step: check_and_add both
    tests AND inserts, so _reduce_candidates runs with max_retries=0 and
    a worker death fails the crawl. Retry-safe rounds need a
    contains-filter + insert-after-commit split."""
    visited_parts: list[pa.Table] = []
    page_refs: list = []  # every round's non-empty fetched blocks
    metrics: list[dict] = []
    max_rounds = rnd + 10_000
    order_cols = (["priority", "discovery_seq"] if order == "priority"
                  else ["discovery_seq"])
    # fetch slices per bucket: don't cap the fetch wave at K-way when
    # the cluster is wider (bucket count stays K — state layout and
    # bookkeeping fan-out are unchanged)
    FP = max(1, -(-fetch_concurrency // K))

    # warm bookkeeping actors (one per bucket; see _Keeper)
    keepers = _keeper_pool(K)

    # initial bucket split + insert-time gate (seeds / resumed frontier)
    bucket_parts: list[list] = [[] for _ in range(K)]
    counts: dict[str, int] = {}
    if frontier_tbl.num_rows:
        hb = _bucket_of(frontier_tbl.column("host").to_pylist())
        prep = [keepers[i].run.options(num_returns=2).remote(
                    _prep_bucket, frontier_tbl.filter(pa.array(hb == i)),
                    gate, max_depth) for i in range(K)]
        bucket_parts = [[p[0]] for p in prep]
        for d in ray.get([p[1] for p in prep]):
            for h, c in d.items():
                counts[h] = counts.get(h, 0) + c

    # driver-phase wall-time accounting (exposed as
    # stats["driver_phases"]): where the parallelism-INDEPENDENT time
    # goes — the quantity that caps scaling efficiency
    phases: dict[str, float] = {}
    phases_rounds: list[dict] = []  # same keys, one dict per round
    _pt = [time.perf_counter()]

    def _ph(name: str) -> None:
        now = time.perf_counter()
        phases[name] = phases.get(name, 0.0) + (now - _pt[0])
        if phases_rounds:
            r = phases_rounds[-1]
            r[name] = r.get(name, 0.0) + (now - _pt[0])
        _pt[0] = now

    while counts and n_fetched < max_pages and rnd < max_rounds:
        phases_rounds.append({})
        _ph("idle")
        rows_in = sum(counts.values())
        grant = politeness.grant(counts)
        grant_ref = ray.put(grant)
        # upper bound on this round's taken rows, known pre-mark: picks
        # the rank-assignment path (driver int-key argsort vs distrank)
        est_taken = sum(min(c, grant.get(h, 0)) for h, c in counts.items())
        dist_taken = (rank_assign == "distributed" or
                      (rank_assign == "auto" and est_taken > rank_gather_limit))
        _ph("grant")
        marks = [keepers[i].run.options(num_returns=4).remote(
                     _mark_bucket, grant_ref, order == "priority",
                     dist_taken, *bucket_parts[i])
                 for i in range(K)]
        deferred_parts = [[m[1]] for m in marks]
        infos = ray.get([m[2] for m in marks])
        _ph("mark_wait")
        for info in infos:
            for h, c in info["taken_per_host"].items():
                counts[h] -= c
        lens = np.array([i["n"] for i in infos], dtype=np.int64)
        n_taken = int(lens.sum())
        if n_taken == 0:
            break  # safety; unreachable while counts is nonempty
        room = max_pages - n_fetched
        if dist_taken:
            rank_parts = distrank.assign_ranks(
                [m[3] for m in marks], [i["sample"] for i in infos], n_taken)
            fin = [keepers[i].run.options(num_returns=3).remote(
                       _finish_taken, m[0], room, *rank_parts[i])
                   for i, m in enumerate(marks)]
        else:
            key_seq = [np.asarray(i["seq"]) if i["seq"] is not None
                       else np.zeros(0, np.int64) for i in infos]
            cat_seq = np.concatenate(key_seq)
            if order == "priority":
                cat_pri = np.concatenate(
                    [np.asarray(i["pri"]) if i["pri"] is not None
                     else np.zeros(0, np.int8) for i in infos])
                order_ix = np.lexsort((cat_seq, cat_pri))
            else:
                order_ix = np.argsort(cat_seq, kind="stable")
            ranks = np.empty(n_taken, dtype=np.int64)
            ranks[order_ix] = np.arange(n_taken)
            bounds = np.concatenate(([0], np.cumsum(lens)))
            fin = [keepers[i].run.options(num_returns=3).remote(
                       _finish_taken, m[0], room,
                       ranks[bounds[i]:bounds[i + 1]])
                   for i, m in enumerate(marks)]
        fetch_refs = [f[0] for f in fin]
        for d in ray.get([f[2] for f in fin]):  # cap overflow back to counts
            for h, c in d.items():
                counts[h] = counts.get(h, 0) + c
        if n_taken > room:
            for i, f in enumerate(fin):
                deferred_parts[i].append(f[1])
        _ph("rank_finish")

        # --- fetch + fused link extract: plain Ray tasks per bucket
        # SLICE (a round is a hard barrier; skipping the Dataset executor
        # saves its fixed startup per round); the visited-metadata
        # projection rides back as the task's second return, and its row
        # counts say which blocks are non-empty. FP slices per bucket
        # lift fetch parallelism past the K buckets when the cluster is
        # wider than K ---
        fpairs = [_fetch_block.remote(
                      fetch_stage, r,
                      ("url", "host", "depth", "discovery_seq",
                       "parent_url_hash", "fetch_rank", "fetch_ok"),
                      part, FP)
                  for r in fetch_refs for part in range(FP)]
        fetched_refs = [p[0] for p in fpairs]

        # --- candidate shuffle submitted BEFORE the page hook: its
        # explode/reduce tasks are the next round's critical path, and
        # submission order is scheduling order among ready tasks ---
        parts = [_explode_bucketed.remote(r) for r in fetched_refs]
        # fresh-seq path choice at submit time: candidate volume is
        # unknown until reduce, so estimate pages x a generous links/page
        dist_fresh = (rank_assign == "distributed" or
                      (rank_assign == "auto" and
                       min(n_taken, room) * 64 > rank_gather_limit))
        reduces = [_reduce_candidates.remote(
            list(seen.shards), gate, max_depth, bool(checkpoint_dir),
            dist_fresh,
            *[parts[i][u] for i in range(len(parts))]) for u in range(KU)]
        fresh_refs = [r[0] for r in reduces]

        _ph("submit")
        if page_hook is not None:
            page_hook.consume_refs(list(fetched_refs))
        _ph("hook")
        # visited METADATA, ordered by fetch_rank (= round fetch order)
        meta_parts = ray.get([p[1] for p in fpairs])
        _ph("fetch_wait")
        meta = pa.concat_tables(meta_parts).combine_chunks() \
            .sort_by("fetch_rank")
        round_visited = pa.table({
            "round": pa.array([rnd] * meta.num_rows, pa.int32()),
            "discovery_seq": pc.cast(meta.column("discovery_seq"), pa.int64()),
            "url": pc.cast(meta.column("url"), pa.string()),
            "host": pc.cast(meta.column("host"), pa.string()),
            "depth": pc.cast(meta.column("depth"), pa.int32()),
            "parent_url_hash": pc.cast(meta.column("parent_url_hash"),
                                       pa.uint64()),
        })
        if visited_spill_dir:
            _spill_visited(visited_spill_dir, rnd, round_visited)
        else:
            visited_parts.append(round_visited)
        n_fetched += meta.num_rows
        _ph("visited")
        if backoff:
            import collections
            ok_arr = meta.column("fetch_ok").to_numpy(zero_copy_only=False)
            host_arr = meta.column("host").to_pylist()
            fails = collections.Counter(
                h for h, ok in zip(host_arr, ok_arr) if not ok)
            ok_hosts = {h for h, ok in zip(host_arr, ok_arr) if ok}
            for h, n in fails.items():
                politeness.record_failure(h, n)
            for h in ok_hosts - set(fails):
                politeness.record_success(h)

        round_refs = [r for r, m in zip(fetched_refs, meta_parts)
                      if m.num_rows]
        if keep_pages:
            page_refs += round_refs
        if checkpoint_dir:
            pages_written = _write_pages.remote(
                os.path.join(checkpoint_dir, f"round={rnd}", "pages"),
                *round_refs)

        _ph("backoff_ckpt")
        rinfo = ray.get([r[1] for r in reduces])
        _ph("reduce_wait")
        flens = np.array([i["n"] if i else 0 for i in rinfo], dtype=np.int64)
        n_fresh = int(flens.sum())
        n_seen += n_fresh  # every fresh row is a key the shards inserted
        add_per_bucket: list[list] = [[] for _ in range(K)]
        if n_fresh:
            if dist_fresh:
                per_shard_parts = distrank.assign_ranks(
                    [r[2] for r in reduces],
                    [i["sample"] if i else None for i in rinfo],
                    n_fresh, base=next_seq)
                next_seq += n_fresh
            else:
                rk = [np.asarray(i["rank"]) if i else np.zeros(0, np.int64)
                      for i in rinfo]
                cat_rank = np.concatenate(rk)
                cat_idx = np.concatenate(
                    [np.asarray(i["idx"]) if i else np.zeros(0, np.int32)
                     for i in rinfo])
                order2 = np.lexsort((cat_idx, cat_rank))
                fseq = np.empty(n_fresh, dtype=np.int64)
                fseq[order2] = np.arange(next_seq, next_seq + n_fresh)
                next_seq += n_fresh
                fb = np.concatenate(([0], np.cumsum(flens)))
                per_shard_parts = [[fseq[fb[u]:fb[u + 1]]]
                                   for u in range(KU)]
            for u in range(KU):
                if flens[u] == 0:
                    continue
                outs = keepers[u % K].run.options(num_returns=K).remote(
                    _finish_fresh, fresh_refs[u], *per_shard_parts[u])
                for b in range(K):
                    add_per_bucket[b].append(outs[b])
            for i in rinfo:
                if i:
                    for h, c in i["host_counts"].items():
                        counts[h] = counts.get(h, 0) + c
            if checkpoint_dir:
                hs = [i["hashes"] for i in rinfo
                      if i and i["hashes"] is not None and len(i["hashes"])]
                if hs:
                    round_delta.append(np.concatenate(hs))

        # next round's bucket = this round's rest + gated-in candidate
        # parts, passed as-is: _mark_bucket concats zero-copy and orders
        # by int keys, so no merge/sort task touches the frontier here
        bucket_parts = [deferred_parts[b] + add_per_bucket[b]
                        for b in range(K)]
        counts = {h: c for h, c in counts.items() if c > 0}
        _ph("fresh_merge")

        per_host = _host_counts(meta.column("host"))
        metrics.append({"round": rnd, "stage": "fetch", "rows_in": rows_in,
                        "rows_out": int(meta.num_rows),
                        "frontier_next": int(sum(counts.values())),
                        "seen": n_seen,
                        "n_hosts": len(per_host),
                        "next_seq": next_seq,
                        "per_host": per_host})
        if checkpoint_dir:
            delta = (np.sort(np.concatenate(round_delta)) if round_delta
                     else np.zeros(0, np.uint64))
            flat = [r for parts in bucket_parts for r in parts]
            fr_parts = [t for t in ray.get(flat) if t.num_rows]
            # written in round order, independent of bucket arrival
            fr_tbl = (pa.concat_tables(fr_parts).combine_chunks()
                      .sort_by([(c, "ascending") for c in order_cols])
                      if fr_parts else _frontier_table([], [], [], []))
            ray.get(pages_written)  # _COMPLETE implies the pages are on disk
            _write_checkpoint(checkpoint_dir, rnd, fr_tbl, round_visited,
                              delta, metrics[-1])
            round_delta = []
        rnd += 1
        _ph("metrics")

    _pt[0] = time.perf_counter()
    visited = (pa.concat_tables(visited_parts) if visited_parts
               else _EMPTY_VISITED)
    pages = rd.from_arrow_refs(page_refs) if page_refs else None
    seen_shards = seen.memory_stats()
    stats = {"fetched": n_fetched, "rounds": rnd,
             "seen": sum(m["exact_keys"] + m["spilled_keys"] for m in seen_shards),
             "seen_shards": seen_shards,
             "politeness": politeness.get_all_stats()}
    _ph("final")
    stats["driver_phases"] = {k: round(v, 3) for k, v in phases.items()}
    stats["driver_phases_rounds"] = [
        {k: round(v, 3) for k, v in r.items()} for r in phases_rounds]
    return CrawlResult(visited=visited, pages=pages,
                       seen_snapshot=seen.snapshot(), stats=stats,
                       metrics=metrics, visited_dir=visited_spill_dir)


@ray.remote
def _write_pages(d: str, *blocks: pa.Table) -> None:
    """One round's fetched pages as one parquet file under ``d``."""
    os.makedirs(d, exist_ok=True)
    pq.write_table(pa.concat_tables(blocks), os.path.join(d, "part-0.parquet"))


def _write_checkpoint(ckpt_dir: str, rnd: int, frontier: pa.Table,
                      visited_delta: pa.Table, seen_delta: np.ndarray,
                      metric: dict) -> None:
    """Per-round, per-partition resumable layout (SURVEY §4.2.4):
    checkpoint/round=R/{frontier,visited,seen_delta}.parquet + _COMPLETE.
    The seen set is checkpointed as per-round sorted-hash DELTAS (the
    hashes first seen that round) — O(new keys) per round instead of
    O(total), which is what makes checkpointing affordable at 10^10 keys;
    the full set is the union of deltas (resume_info reconstructs it, and
    bit-for-bit comparison concatenates + sorts them). Goes through the
    storage switch (parquet default; lance when available, SURVEY §7.0)."""
    from ..sources.storage import DEFAULT_FORMAT, HAS_LANCE, write_table
    fmt = DEFAULT_FORMAT if (DEFAULT_FORMAT != "lance" or HAS_LANCE) else "parquet"
    d = os.path.join(ckpt_dir, f"round={rnd}")
    os.makedirs(d, exist_ok=True)
    seen_tbl = pa.table({"url_hash": pa.array(seen_delta, pa.uint64())})
    if fmt == "parquet":  # flat single-file layout kept for resume_info compat
        pq.write_table(frontier, os.path.join(d, "frontier.parquet"))
        pq.write_table(visited_delta, os.path.join(d, "visited.parquet"))
        pq.write_table(seen_tbl, os.path.join(d, "seen_delta.parquet"))
    else:  # pragma: no cover - lance path (not installed in sandbox)
        write_table(frontier, os.path.join(d, "frontier"), fmt=fmt)
        write_table(visited_delta, os.path.join(d, "visited"), fmt=fmt)
        write_table(seen_tbl, os.path.join(d, "seen_delta"), fmt=fmt)
    with open(os.path.join(d, "metrics.json"), "w") as f:
        json.dump(metric, f)
    with open(os.path.join(d, "_COMPLETE"), "w") as f:
        f.write("ok")


def resume_info(ckpt_dir: str) -> dict | None:
    """Max complete round's frontier + seen + fetched count (resume entry)."""
    if not os.path.isdir(ckpt_dir):
        return None
    rounds = sorted(int(n.split("=")[1]) for n in os.listdir(ckpt_dir)
                    if n.startswith("round=")
                    and os.path.exists(os.path.join(ckpt_dir, n, "_COMPLETE")))
    if not rounds:
        return None
    r = rounds[-1]
    d = os.path.join(ckpt_dir, f"round={r}")
    deltas = [pq.read_table(os.path.join(ckpt_dir, f"round={i}",
                                         "seen_delta.parquet"))
              .column("url_hash").to_numpy() for i in rounds]
    seen_all = (np.sort(np.concatenate(deltas)) if deltas
                else np.zeros(0, np.uint64))
    next_seq = None
    mpath = os.path.join(d, "metrics.json")
    if os.path.exists(mpath):
        with open(mpath) as f:
            next_seq = json.load(f).get("next_seq")
    return {
        "round": r,
        "frontier": pq.read_table(os.path.join(d, "frontier.parquet")),
        "seen": seen_all,
        "next_seq": next_seq,
        "fetched": sum(pq.read_table(os.path.join(ckpt_dir, f"round={i}", "visited.parquet")).num_rows
                       for i in rounds),
    }
