"""Per-host politeness token buckets with a deterministic virtual clock.

The reference's politeness.service.js is a 0-byte file; this module is
designed from the implied API at its call sites
(professional-crawler.service.js:7-12,86,120,133,144,166,206,293-298):
``waitForDomain(url, crawlDelay)``, ``recordSuccess``, ``recordFailure``
(exponential backoff), ``getAllStats() -> {totalDomains, domains}``.
Fixed loop delays in the reference: 1000 ms between site-crawl pages
(site-crawler.service.js:132,173), 2000 ms between bulk batches.

Batch-engine semantics (what the oracle also implements): the crawl
advances in frontier rounds on a VIRTUAL clock of ``round_seconds`` per
round; a host with crawl-delay ``d`` grants ``max(1, floor(round_seconds
/ max(d, min_delay)))`` fetch tokens per round, halved per recent
failure (exponential backoff, floor 1). The virtual clock makes the
politeness interleaving — and therefore the crawl ordering under a
politeness budget — bit-for-bit reproducible at any parallelism, while
real wall-clock pacing at production scale is obtained by sizing
``round_seconds`` to the actual round wall time.

One driver-local object holds all per-host buckets: the crawl driver
is its only caller, with ONE ``grant`` per round covering every host in
the round, so it needs no actor process (an actor per crawl put a
worker start on round 0's critical path).
"""

from __future__ import annotations

import math

DEFAULT_FIXED_DELAY = 1.0  # crawler.service.js:44,173 — 1000 ms between pages


class Politeness:
    """Per-host token buckets and failure counts of one crawl."""

    def __init__(self, round_seconds: float = 60.0, min_delay: float = 0.3):
        self.round_seconds = round_seconds
        self.min_delay = min_delay
        self.delays: dict[str, float] = {}
        self.failures: dict[str, int] = {}
        self.requests: dict[str, int] = {}

    def set_delays(self, delays: dict[str, float]) -> None:
        """Install robots crawl-delays (host -> seconds)."""
        self.delays.update(delays)

    def budget(self, host: str) -> int:
        if math.isinf(self.round_seconds):
            return 1 << 60  # parity mode: unbounded budget = pure reference BFS order
        d = max(self.delays.get(host, DEFAULT_FIXED_DELAY), self.min_delay)
        b = max(1, math.floor(self.round_seconds / d))
        f = self.failures.get(host, 0)
        if f:
            b = max(1, b >> min(f, 10))  # exponential backoff, floor 1
        return b

    def grant(self, host_counts: dict[str, int]) -> dict[str, int]:
        """host -> requested count ⇒ host -> granted count (per round)."""
        out = {}
        for host, n in host_counts.items():
            g = min(n, self.budget(host))
            out[host] = g
            self.requests[host] = self.requests.get(host, 0) + g
        return out

    def record_success(self, host: str, n: int = 1) -> None:
        self.failures[host] = 0

    def record_failure(self, host: str, n: int = 1) -> None:
        self.failures[host] = self.failures.get(host, 0) + n

    def get_all_stats(self) -> dict:
        return {
            "totalDomains": len(self.requests),
            "domains": {h: {"requests": r, "failures": self.failures.get(h, 0)}
                        for h, r in self.requests.items()},
        }

