"""robots.txt parsing + per-host rule cache (S5/F10/F11).

Reference behavior transcribed (robots.service.js):
- per-host parser cache (:9,23-24)
- PERMISSIVE on fetch error / empty robots (:40-54) — an unreachable or
  empty robots.txt allows everything
- crawl-delay: ``Crawl-delay`` seconds for our UA, default 0.3 s on
  error (:79-87); UA = ``WebCrawlerBot/2.0`` (:5)

Parser: standard longest-prefix-match over the ``*`` / UA-specific
agent groups (robots-parser package semantics, public spec). Rules are
static per crawl, so no actor holds them: the crawl driver reads
crawl-delays from a local ``RobotsIndex`` and the frontier tasks gate
URLs with ``local_check`` against one broadcast copy of the raw map.
"""

from __future__ import annotations

import ray

USER_AGENT = "WebCrawlerBot/2.0"
DEFAULT_CRAWL_DELAY = 0.3


class RobotsRules:
    __slots__ = ("disallow", "allow", "crawl_delay")

    def __init__(self, txt: str | None):
        self.disallow: list[str] = []
        self.allow: list[str] = []
        self.crawl_delay: float | None = None
        if not txt:
            return  # permissive fallback
        applies = False
        ua_token = USER_AGENT.split("/")[0].lower()
        for raw in txt.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line or ":" not in line:
                continue
            key, _, val = line.partition(":")
            key = key.strip().lower()
            val = val.strip()
            if key == "user-agent":
                applies = val == "*" or val.lower() == ua_token
            elif applies and key == "disallow" and val:
                self.disallow.append(val)
            elif applies and key == "allow" and val:
                self.allow.append(val)
            elif applies and key == "crawl-delay":
                try:
                    self.crawl_delay = float(val)
                except ValueError:
                    pass

    def allowed(self, path: str) -> bool:
        best_allow = max((len(p) for p in self.allow if path.startswith(p)), default=-1)
        best_dis = max((len(p) for p in self.disallow if path.startswith(p)), default=-1)
        return best_allow >= best_dis

    def delay(self) -> float:
        return self.crawl_delay if self.crawl_delay is not None else DEFAULT_CRAWL_DELAY


class RobotsIndex:
    """Per-host parsed rules over a raw ``host -> robots.txt`` map, parsed
    lazily and cached per host."""

    def __init__(self, robots_by_host: dict[str, str]):
        self.raw = robots_by_host
        self.cache: dict[str, RobotsRules] = {}

    def _rules(self, host: str) -> RobotsRules:
        r = self.cache.get(host)
        if r is None:
            r = RobotsRules(self.raw.get(host))
            self.cache[host] = r
        return r

    def check(self, hosts: list[str], paths: list[str]) -> list[bool]:
        return [self._rules(h).allowed(p) for h, p in zip(hosts, paths)]

    def delays(self, hosts: list[str]) -> dict[str, float]:
        """Hosts with an EXPLICIT Crawl-delay only; hosts without one use the
        politeness default (the reference's fixed 1 s loop delay,
        crawler.service.js:44,173)."""
        out = {}
        for h in set(hosts):
            cd = self._rules(h).crawl_delay
            if cd is not None:
                out[h] = cd
        return out


# --- task-side evaluation ----------------------------------------------------
# Broadcasting the raw robots map once (``ray.put``) lets every prep call
# and every seen shard's candidate reduce evaluate locally — a single
# robots actor's ``check`` RPC SERIALIZED the parallel candidate reduces
# each round (measured ~0.5-1 s/round of critical-path wait at bench
# scale).

_LOCAL: dict = {}  # ref hex -> RobotsIndex (per worker process)


class RobotsGate:
    """Wrapper carrying the broadcast ref into tasks — Ray auto-resolves
    bare ObjectRef arguments, and we want the REF (so each worker
    ray.gets it once and caches the parse), not a per-task dict copy."""
    __slots__ = ("ref",)

    def __init__(self, ref):
        self.ref = ref


def local_check(raw_ref, hosts: list[str], paths: list[str]) -> list[bool]:
    """Evaluate robots for (hosts, paths) against a broadcast raw map.
    ``raw_ref`` is ``ray.put(robots_by_host)``; the parsed per-host rules
    are cached per worker process keyed by the ref, so repeated rounds
    re-parse nothing."""
    key = raw_ref.hex()
    impl = _LOCAL.get(key)
    if impl is None:
        if len(_LOCAL) > 4:  # successive crawls in one process
            _LOCAL.clear()
        impl = RobotsIndex(ray.get(raw_ref))
        _LOCAL[key] = impl
    return impl.check(hosts, paths)
