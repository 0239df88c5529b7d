"""Pure-Python sequential oracle of the crawl spec (parity gate).

Two oracles:

``reference_bfs`` — a literal transcription of the reference's
sequential FIFO BFS (site-crawler.service.js:129-194): single seed,
``visited``/``allDiscoveredUrls`` Sets, enqueue-time seen insertion,
depth gate at pop, maxPages cap on fetches.

``oracle_crawl`` — the round-based crawl SPEC the Ray engine
implements (frontier rounds on a virtual clock, robots gate, per-host
politeness budgets, global fetch cap, deterministic discovery_seq).
With an infinite politeness budget, no robots rules and a single seed,
``oracle_crawl`` provably reproduces ``reference_bfs`` fetch order and
seen set (asserted in tests/test_crawl_parity.py) — the FIFO queue of a
BFS is exactly (depth, discovery_seq) order.

Both run on the synthetic world tables. Recorded traces:
fetch order [(round, seq, url)], final seen set (sorted url hashes).
"""

from __future__ import annotations

import math
from urllib.parse import urlsplit

from ..functions.hashing import hash64
from ..functions.urltools import (
    canonicalize, host_of, resolve_href, same_domain, should_exclude,
)
from ..state.politeness import DEFAULT_FIXED_DELAY
from ..state.robots_cache import RobotsRules
from ..stages.extract import extract_hrefs


def _page_links(page: dict, base_host: str) -> list[str]:
    """Canonical same-domain links of a page, document order, first-seen dedup
    (site-crawler.service.js discoverAllLinks: Set preserves insertion order)."""
    seen_local: set[str] = set()
    out: list[str] = []
    for href in extract_hrefs(page["html"]):
        absu = resolve_href(href, page["url"])
        if absu is None:
            continue
        canon = canonicalize(absu)
        if canon is None:
            continue
        if not same_domain(host_of(canon), base_host):
            continue
        if should_exclude(canon):
            continue
        if canon not in seen_local:
            seen_local.add(canon)
            out.append(canon)
    return out


def reference_bfs(pages_by_url: dict[str, dict], start_url: str,
                  max_pages: int = 50, max_depth: int = 3):
    """site-crawler.service.js:129-194, verbatim semantics, single seed."""
    visited: list[str] = []
    visited_set: set[str] = set()
    to_visit = [(start_url, 0)]
    all_discovered = {start_url}
    base_host = host_of(start_url)
    while to_visit and len(visited_set) < max_pages:
        url, depth = to_visit.pop(0)
        if url in visited_set or depth > max_depth:
            continue
        visited_set.add(url)
        visited.append(url)
        page = pages_by_url.get(url)
        if page is None or page["status"] != 200 or not page["html"]:
            continue  # error path: visited but no links
        for link in _page_links(page, base_host):
            if link not in visited_set and link not in all_discovered:
                all_discovered.add(link)
                to_visit.append((link, depth + 1))
    return visited, all_discovered


class _Entry:
    __slots__ = ("url", "host", "depth", "seq", "prio")

    def __init__(self, url, host, depth, seq):
        self.url, self.host, self.depth, self.seq = url, host, depth, seq
        from ..functions.urltools import priority_tier
        self.prio = priority_tier(url)


def oracle_crawl(pages_by_url: dict[str, dict], robots_by_host: dict[str, str],
                 seeds: list[str], max_pages: int = 10_000, max_depth: int = 3,
                 round_seconds: float | None = None, backoff: bool = False,
                 order: str = "fifo"):
    """The round-based crawl spec, sequential. Returns
    (fetch_order [(round, seq, url)], seen sorted-hash list, stats dict).
    ``stats["politeness"]`` is the politeness ledger's ``get_all_stats``
    shape: per host, the fetches granted (before the max_pages cap) and
    the backoff failure counter."""
    rules = {h: RobotsRules(t) for h, t in robots_by_host.items()}
    failures: dict[str, int] = {}
    granted: dict[str, int] = {}

    def budget(host: str) -> int:
        if round_seconds is None:
            return 1 << 60
        r = rules.get(host)
        # explicit Crawl-delay wins; otherwise the reference's fixed 1 s loop delay
        delay = r.crawl_delay if (r is not None and r.crawl_delay is not None) \
            else DEFAULT_FIXED_DELAY
        b = max(1, math.floor(round_seconds / max(delay, 0.3)))
        f = failures.get(host, 0)
        if f:
            b = max(1, b >> min(f, 10))  # exponential backoff, floor 1
        return b

    seen: set[str] = set()
    frontier: list[_Entry] = []
    next_seq = 0
    for s in seeds:
        canon = canonicalize(s)
        if canon is None or canon in seen:
            continue
        seen.add(canon)
        frontier.append(_Entry(canon, host_of(canon), 0, next_seq))
        next_seq += 1

    fetch_order: list[tuple[int, int, str]] = []
    n_fetched = 0
    rnd = 0
    while frontier and n_fetched < max_pages:
        # depth gate (permanent drop; stays in seen)
        active = [e for e in frontier if e.depth <= max_depth]
        if order == "priority":
            active.sort(key=lambda e: (e.prio, e.seq))
        else:
            active.sort(key=lambda e: e.seq)
        # robots gate (permanent drop)
        gated = []
        for e in active:
            r = rules.get(e.host)
            path = urlsplit(e.url).path or "/"
            if r is None or r.allowed(path):
                gated.append(e)
        # politeness budget per host
        taken: list[_Entry] = []
        deferred: list[_Entry] = []
        counts: dict[str, int] = {}
        for e in gated:
            b = budget(e.host)
            if counts.get(e.host, 0) < b:
                counts[e.host] = counts.get(e.host, 0) + 1
                taken.append(e)
            else:
                deferred.append(e)
        for h, n in counts.items():
            granted[h] = granted.get(h, 0) + n
        # global cap, in seq order
        room = max_pages - n_fetched
        fetch_list = taken[:room]
        # fetch + discover
        new_entries: list[_Entry] = []
        round_fails: dict[str, int] = {}
        round_ok: set[str] = set()
        for e in fetch_list:
            fetch_order.append((rnd, e.seq, e.url))
            n_fetched += 1
            page = pages_by_url.get(e.url)
            if page is None or page["status"] != 200 or not page["html"]:
                round_fails[e.host] = round_fails.get(e.host, 0) + 1
                continue
            round_ok.add(e.host)
            for link in _page_links(page, e.host):
                if link not in seen:
                    seen.add(link)
                    new_entries.append(_Entry(link, host_of(link), e.depth + 1, next_seq))
                    next_seq += 1
        if backoff:
            for h, nf in round_fails.items():
                failures[h] = failures.get(h, 0) + nf
            for h in round_ok - set(round_fails):
                failures[h] = 0
        if n_fetched >= max_pages:
            break
        frontier = deferred + new_entries
        rnd += 1
        if not fetch_list and not new_entries and deferred == gated:
            break  # safety: nothing progressed

    seen_hashes = sorted(hash64(u) for u in seen)
    stats = {"fetched": n_fetched, "seen": len(seen), "rounds": rnd + 1,
             "politeness": {
                 "totalDomains": len(granted),
                 "domains": {h: {"requests": n, "failures": failures.get(h, 0)}
                             for h, n in granted.items()}}}
    return fetch_order, seen_hashes, stats
