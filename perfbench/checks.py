"""Output checks for the crawl-pipeline benchmark.

Every expected value is computed apart from the Ray engine: the crawl
order, seen set and fetched count come from the sequential
``oracle_crawl``; spans from the world generator's ``expected_spans``;
document counts from this file's own hash of the fetched html bodies;
per-host location counts from the scalar greedy fuzzy dedup run
in-process over the pre-dedup rows in ``(discovery_seq,
within_page_idx)`` order.

Each ``check_*`` function returns a list of problems (empty when the
output is right), so a test can feed it a corrupted result and see it
fail without a Ray node.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from urllib.parse import urlsplit

MIN_CONFIDENCE = 0.70
_SPAN_KEYS = ("kind", "text", "media_ref", "offset")


def body_digest(html: str | None) -> bytes:
    """The benchmark's own content hash (independent of the engine's
    blake2b-64 content-dedup key)."""
    return hashlib.sha256((html or "").encode("utf-8", "surrogatepass")).digest()


def location_host(source_url: str) -> str:
    """Host of a location row; merged rows carry ``a, b`` source lists
    whose first entry names the host they were grouped under."""
    first = (source_url or "").split(",")[0].strip()
    return urlsplit(first).netloc if first else ""


def _first_diff(got: list, want: list) -> str:
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"first difference at {i}: got {g!r}, want {w!r}"
    return f"lengths differ: got {len(got)}, want {len(want)}"


def check_fetch_order(visited: list[tuple], oracle_order: list[tuple]) -> list[str]:
    """``visited`` and ``oracle_order`` are ``(round, discovery_seq, url)``
    lists in fetch order."""
    if visited == oracle_order:
        return []
    return ["fetch order != oracle_crawl: " + _first_diff(visited, oracle_order)]


def check_seen(snapshot: list[int], oracle_seen: list[int]) -> list[str]:
    """Both are sorted url-hash lists."""
    if snapshot == oracle_seen:
        return []
    missing = len(set(oracle_seen) - set(snapshot))
    extra = len(set(snapshot) - set(oracle_seen))
    return [f"seen_snapshot != oracle_crawl: {missing} missing, {extra} extra, "
            f"{len(snapshot)} vs {len(oracle_seen)} keys"]


def check_fetched(n_fetched: int, oracle_fetched: int) -> list[str]:
    if n_fetched == oracle_fetched:
        return []
    return [f"fetched {n_fetched} pages, oracle_crawl fetched {oracle_fetched}"]


def _span_tuples(spans) -> list[tuple]:
    return [tuple(s[k] for k in _SPAN_KEYS) for s in (spans or [])]


def check_documents(docs: list[tuple[str, list]], fetched_urls: list[str],
                    expected_spans: dict[str, list], html_by_url: dict[str, str],
                    content_dedup: bool) -> list[str]:
    """``docs`` is ``(doc_id, spans)`` per document. Every document's
    spans must equal the world's ``expected_spans`` for its URL. Without
    content dedup there is one document per fetched page; with it, one
    per distinct html body among the fetched pages."""
    problems = []
    fetched = set(fetched_urls)
    ids = [d for d, _ in docs]
    if content_dedup:
        want = len({body_digest(html_by_url.get(u)) for u in fetched_urls})
        kept = Counter(body_digest(html_by_url.get(u)) for u in ids)
        dup = sum(c - 1 for c in kept.values())
        if len(docs) != want or dup:
            problems.append(f"{len(docs)} documents ({dup} repeated bodies), "
                            f"want {want} distinct html bodies")
    elif Counter(ids) != Counter(fetched_urls):
        problems.append(f"{len(docs)} documents for {len(fetched_urls)} fetched "
                        "pages, or document ids != fetched urls")
    stray = [d for d in ids if d not in fetched]
    if stray:
        problems.append(f"{len(stray)} documents for unfetched urls, e.g. {stray[0]}")
    bad = [d for d, spans in docs
           if d in fetched and _span_tuples(spans) != _span_tuples(expected_spans.get(d))]
    if bad:
        problems.append(f"{len(bad)} documents whose spans != expected_spans, "
                        f"e.g. {bad[0]}")
    return problems


def check_locations(confidences: list[float], hosts: list[str],
                    expected_per_host: dict[str, int] | None) -> list[str]:
    """Every final location has confidence >= 0.70; with
    ``expected_per_host`` the per-host counts must equal it."""
    problems = []
    low = sum(1 for c in confidences if not c >= MIN_CONFIDENCE)
    if low:
        problems.append(f"{low} locations below confidence {MIN_CONFIDENCE}")
    if expected_per_host is not None:
        got = Counter(hosts)
        if got != Counter(expected_per_host):
            diff = {h: (got.get(h, 0), expected_per_host.get(h, 0))
                    for h in set(got) | set(expected_per_host)
                    if got.get(h, 0) != expected_per_host.get(h, 0)}
            problems.append("per-host location counts != scalar greedy dedup "
                            f"(got, want): {dict(sorted(diff.items())[:5])}")
    return problems


def check_checkpoint(info: dict | None, ckpt_urls: list[str],
                     fetched_urls: list[str], oracle_seen: list[int],
                     oracle_fetched: int) -> list[str]:
    """``info`` is ``resume_info(checkpoint_dir)``; the seen set rebuilt
    from the per-round deltas and the fetched count must match the
    oracle, and the checkpointed page rows (``ckpt_urls``) must be the
    pages fetched."""
    if info is None:
        return ["resume_info found no complete checkpoint round"]
    problems = []
    seen = sorted(int(h) for h in info["seen"])
    if seen != oracle_seen:
        problems.append("checkpoint " + check_seen(seen, oracle_seen)[0])
    if info["fetched"] != oracle_fetched:
        problems.append(f"checkpoint fetched {info['fetched']}, "
                        f"oracle_crawl fetched {oracle_fetched}")
    if Counter(ckpt_urls) != Counter(fetched_urls):
        problems.append(f"{len(ckpt_urls)} checkpointed page rows != the "
                        f"{len(fetched_urls)} pages fetched")
    return problems


def greedy_per_host(rows: list[dict]) -> dict[str, int]:
    """Per-host location counts of the scalar greedy fuzzy dedup over
    pre-dedup rows, each host scanned in (discovery_seq, within_page_idx)
    order — the reference the engine's vectorized dedup must match."""
    from web_crawler_ray.stages.dedup import fuzzy_dedup_greedy_scalar
    by_host: dict[str, list[dict]] = {}
    for r in rows:
        by_host.setdefault(location_host(r.get("source_url")), []).append(r)
    out = {}
    for host, rs in by_host.items():
        rs.sort(key=lambda r: (r["discovery_seq"], r["within_page_idx"]))
        out[host] = len(fuzzy_dedup_greedy_scalar(rs))
    return out
