"""Flagship pipeline: crawl -> classify -> extract -> dedup -> enrich -> quality.

Ray-Data restatement of ``POST /api/crawl`` + site-wide crawl
(crawler.service.js:24-201,283-426; SURVEY §3.4):

    seeds -> round-based BFS (pipelines/crawl.py: seen shards,
             politeness ledger, robots gate)
          -> pages Dataset
    pages -> classify (F13) -> ExtractStage (E1,E2,E4,E8,E9,inline)
          -> confidence >= 0.70 filter (P1)
          -> blocked fuzzy dedup at 0.85 (D3)
          -> geocode enrich (N13 synthetic) -> quality (A2)
    pages -> SpanAssemblyStage -> interleaved (doc_id, spans) documents

No page content passes through the driver, and the tail after the
crawl's barrier is flat Ray task waves over ``crawl()``'s one page block
per CPU. ``extract_locations`` runs extract -> confidence filter ->
fuzzy keys in the fuzzy-dedup exchange's split tasks and enrich +
quality in its reduce tasks, so the only Ray Data job left is the
caller's classify map (one task per block). ``assemble_documents`` runs
span assembly as one plain task per CPU's group of page blocks.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..sources import synth_world as W
from ..stages.classify import classify_batch
from ..stages.dedup import fuzzy_dedup
from ..stages.enrich import add_quality, geocode_enrich_batch
from ..stages.extract import ExtractStage, SpanAssemblyStage
from ..stages.shuffles import arrow_refs, cpu_groups
from .crawl import CrawlResult, crawl

# pages per ExtractStage call: bounds the Python objects one call builds
# from a (per-CPU, possibly large) page block
_EXTRACT_BATCH = 64


def _conf_filter(batch: pa.Table) -> pa.Table:
    """P1 (crawler.service.js:402-404): keep confidence >= 0.70."""
    return batch.filter(pc.greater_equal(batch.column("confidence"), 0.70))


def _extract(pages: pa.Table) -> pa.Table:
    """Pages -> extracted location rows with confidence >= 0.70, in
    ``_EXTRACT_BATCH``-page slices (row-wise, so slicing is invisible)."""
    stage = ExtractStage()
    return pa.concat_tables([
        _conf_filter(stage(pages.slice(i, _EXTRACT_BATCH)))
        for i in range(0, max(pages.num_rows, 1), _EXTRACT_BATCH)])


def _enrich(batch: pa.Table) -> pa.Table:
    """Geocode enrich (N13 synthetic) then quality (A2): both row-wise."""
    return add_quality(geocode_enrich_batch(batch))


def extract_locations(pages: rd.Dataset, fuzzy: bool = True,
                      early_stop: int | None = None) -> rd.Dataset:
    """pages -> final enriched location records: extract -> confidence
    filter -> fuzzy dedup -> geocode enrich -> quality.

    With ``fuzzy`` (D3: per-host greedy@0.85) this runs EAGERLY as the
    fuzzy-dedup exchange's two task waves: ``pages`` (its upstream plan,
    e.g. a lazy classify map, executes once) feeds one split task per
    CPU, which extracts, filters and derives the dedup keys; the reduce
    tasks dedup, enrich and score. Without it, a lazy ``map_batches``
    chain.

    ``early_stop``: P7 (professional-crawler.service.js:79-82) — stop at
    ≥N locations unless fetchAll; expressed as the streaming ``limit``
    (the honest batch equivalent per SURVEY §2.6)."""
    if fuzzy:
        locs = fuzzy_dedup(pages, prepare=_extract, finish=_enrich)
    else:
        locs = pages.map_batches(ExtractStage(), batch_format="pyarrow",
                                 batch_size=_EXTRACT_BATCH, num_cpus=1)
        locs = locs.map_batches(_conf_filter, batch_format="pyarrow")
        locs = locs.map_batches(_enrich, batch_format="pyarrow",
                                batch_size=512)
    if early_stop is not None:
        locs = locs.limit(early_stop)
    return locs


def assemble_documents(pages: rd.Dataset, content_dedup: bool = False,
                       n_dedup_shards: int = 4) -> rd.Dataset:
    """pages -> interleaved text+media span documents (input_hint shape).

    ``content_dedup=True`` routes pages through the stateful content-hash
    dedup actor-pool stage first (north-star dedup service): pages whose
    html bytes were already seen anywhere in the run are dropped before
    span assembly (mirror/alias pages at web scale). That pass runs
    EAGERLY so its hash-shard actors can be killed when it ends (they
    outlived a lazy pass's dropped Dataset).

    Span assembly runs EAGERLY as one plain Ray task per CPU's
    contiguous group of page blocks (no Ray Data job); the returned
    Dataset holds their outputs, one block per task."""
    if content_dedup:
        from ..stages.dedup import ContentDedupStage, ContentHashShard
        shards = [ContentHashShard.options(num_cpus=0).remote()
                  for _ in range(n_dedup_shards)]
        try:
            pages = pages.map_batches(
                ContentDedupStage(shards, text_col="html"),
                batch_format="pyarrow", batch_size=256).materialize()
        finally:
            for a in shards:
                ray.kill(a)
    return rd.from_arrow_refs([_assemble_spans.remote(*g)
                               for g in cpu_groups(arrow_refs(pages))])


@ray.remote
def _assemble_spans(*blocks: pa.Table) -> pa.Table:
    """SpanAssemblyStage over a group of page blocks (row-wise)."""
    return SpanAssemblyStage()(pa.concat_tables(blocks))


def run_flagship(seed: int = 42, n_hosts: int = 8, pages_per_host_base: int = 30,
                 max_pages: int = 10_000, max_depth: int = 3,
                 round_seconds: float | None = None,
                 fetch_concurrency: int = 4,
                 checkpoint_dir: str | None = None,
                 profile: str = "v1",
                 content_dedup: bool | None = None) -> dict:
    """Build the synthetic world, crawl it, extract everything.

    ``profile="v2"`` worlds contain byte-identical mirror pages, large
    docs and media galleries; content dedup defaults ON for them (the
    stateful content-hash shard stage collapses mirrors before span
    assembly) and OFF for v1 (no mirrors — pure overhead). Override with
    ``content_dedup=True/False``.

    Returns dict(crawl=CrawlResult, locations=Dataset, documents=Dataset,
    pages=Dataset)."""
    if content_dedup is None:
        content_dedup = profile == "v2"
    pages_store, robots, seeds = W.world(seed=seed, n_hosts=n_hosts,
                                         pages_per_host_base=pages_per_host_base,
                                         profile=profile)
    res: CrawlResult = crawl(pages_store, robots, seeds,
                             max_pages=max_pages, max_depth=max_depth,
                             round_seconds=round_seconds,
                             fetch_concurrency=fetch_concurrency,
                             checkpoint_dir=checkpoint_dir)
    pages = res.pages
    classified = pages.map_batches(classify_batch, batch_format="pyarrow")
    locations = extract_locations(classified)
    documents = assemble_documents(pages, content_dedup=content_dedup)
    return {"crawl": res, "locations": locations, "documents": documents,
            "pages": pages}
