"""The benchmark's own checks must reject corrupted results.

    python3 -m pytest perfbench/test_checks.py -q

Expected values come from a small world and the sequential oracle, in
process (no Ray node). Each test first shows the check passes on the
true result, then corrupts one thing and shows it fails.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.dirname(HERE)]

import checks  # noqa: E402
import layers  # noqa: E402


@pytest.fixture(scope="module")
def truth():
    from web_crawler_ray.functions.hashing import hash64
    from web_crawler_ray.functions.urltools import canonicalize, host_of
    from web_crawler_ray.oracle.reference_oracle import oracle_crawl
    from web_crawler_ray.sources import synth_world as W
    pages, robots, seeds = W.world(seed=3, n_hosts=6, pages_per_host_base=12,
                                   profile="v2")
    rows = pages.select(["url", "status", "html", "expected_spans"]).to_pylist()
    by_url = {r["url"]: r for r in rows}
    order, seen, stats = oracle_crawl(by_url, robots, seeds, round_seconds=4.0,
                                      backoff=True)
    urls = [u for _, _, u in order]
    # per-round seen deltas, as a checkpoint stores them
    deltas = [{hash64(canonicalize(s)) for s in seeds}]
    known = set(deltas[0])
    for rnd in sorted({r for r, _, _ in order}):
        new = set()
        for r, _, u in order:
            page = by_url.get(u)
            if r == rnd and page and page["status"] == 200 and page["html"]:
                new |= {hash64(x) for x in layers.page_links(page["html"], u, host_of(u))}
        deltas.append(new - known)
        known |= new
    return {"order": [tuple(o) for o in order], "seen": seen, "fetched": stats["fetched"],
            "urls": urls, "by_url": by_url, "deltas": deltas}


def _docs(t):
    return [(u, t["by_url"][u]["expected_spans"] if u in t["by_url"] else [])
            for u in t["urls"]]


def _spans(t):
    return {u: r["expected_spans"] for u, r in t["by_url"].items()}


def _html(t):
    return {u: t["by_url"][u]["html"] if u in t["by_url"] else "" for u in t["urls"]}


def test_swapped_fetch_fails(truth):
    order = truth["order"]
    assert checks.check_fetch_order(list(order), order) == []
    bad = list(order)
    bad[1], bad[2] = bad[2], bad[1]
    assert checks.check_fetch_order(bad, order)


def test_missing_seen_hash_fails(truth):
    seen = truth["seen"]
    assert checks.check_seen(list(seen), seen) == []
    assert checks.check_seen(seen[:5] + seen[6:], seen)


def test_altered_span_fails(truth):
    docs = _docs(truth)
    assert checks.check_documents(docs, truth["urls"], _spans(truth),
                                  _html(truth), False) == []
    i = next(k for k, (_, s) in enumerate(docs) if s)
    spans = [dict(s) for s in docs[i][1]]
    spans[0]["text"] += " x"
    docs[i] = (docs[i][0], spans)
    assert checks.check_documents(docs, truth["urls"], _spans(truth),
                                  _html(truth), False)


def test_extra_document_fails(truth):
    docs = _docs(truth)
    assert checks.check_documents(docs + [docs[0]], truth["urls"], _spans(truth),
                                  _html(truth), False)
    # content dedup: one document per distinct body; a second copy of a
    # kept body is one too many
    html = _html(truth)
    first: dict = {}
    for u in truth["urls"]:
        first.setdefault(checks.body_digest(html[u]), u)
    dd = [(u, _spans(truth).get(u, [])) for u in first.values()]
    assert len(dd) < len(docs)  # the v2 world has mirror pages
    assert checks.check_documents(dd, truth["urls"], _spans(truth), html, True) == []
    dup = next(u for u in truth["urls"] if u not in first.values()
               and checks.body_digest(html[u]) in first)
    assert checks.check_documents(dd + [(dup, _spans(truth)[dup])], truth["urls"],
                                  _spans(truth), html, True)


def test_dropped_checkpoint_delta_fails(truth):
    import numpy as np
    deltas = truth["deltas"]
    full = {"seen": np.array(sorted(set().union(*deltas)), np.uint64),
            "fetched": truth["fetched"]}
    args = (truth["urls"], truth["urls"], truth["seen"], truth["fetched"])
    assert checks.check_checkpoint(full, *args) == []
    k = max(range(1, len(deltas)), key=lambda i: len(deltas[i]))
    dropped = {"seen": np.array(sorted(set().union(*(deltas[:k] + deltas[k + 1:]))),
                                np.uint64), "fetched": truth["fetched"]}
    assert checks.check_checkpoint(dropped, *args)
    assert checks.check_checkpoint(full, truth["urls"][1:], *args[1:])


def test_low_confidence_and_host_counts_fail():
    assert checks.check_locations([0.9, 0.7], ["a", "b"], {"a": 1, "b": 1}) == []
    assert checks.check_locations([0.9, 0.69], ["a", "b"], None)
    assert checks.check_locations([0.9, 0.7], ["a", "a"], {"a": 1, "b": 1})
