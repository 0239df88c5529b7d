"""web_crawler_ray — a Ray-Data-native crawl/extract/dedup engine.

A from-scratch rebuild of the data-processing capabilities of
``Arko-Puitandi/web-crawler`` (reference, read-only at /root/reference)
expressed Ray-Data-first:

- ``ray.data.Dataset`` pipelines of ``map_batches`` over zero-copy Arrow
  batches for every per-document transform (extractors, normalizers,
  classifiers, span assembly);
- stateful actor pools for the crawl front-end state (sharded URL-seen
  set: sorted uint64 hash arrays with a bloom spill tier, shared by the
  content-hash dedup service);
- ``groupby`` / ``sort`` shuffles only where semantics require them
  (frontier ordering, canonical-key dedup, blocked fuzzy dedup), always
  keyed to minimize data movement at 100 TB scale.

Layout:
    functions/  pure scalar/vector functions (url, normalize, hashing, text)
    sources/    synthetic deterministic world generator + readers
    stages/     map_batches stages (extractors, dedup, enrich, similarity)
    state/      actor-pool state (seen set, politeness, robots)
    pipelines/  end-to-end pipelines (crawl BFS, flagship, query layer)
    oracle/     pure-Python reference-semantics oracle used by tests

Nothing in this package calls ``ray.init`` — sessions are owned by the
driver, ``bench.py`` and the test fixture.
"""

__version__ = "0.1.0"
