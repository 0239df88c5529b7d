"""End-to-end flagship pipeline: output determinism across parallelism."""

import pandas as pd
import pyarrow as pa
import pytest
import ray

from web_crawler_ray.pipelines.flagship import run_flagship


def _locations(fetch_concurrency: int) -> pd.DataFrame:
    out = run_flagship(seed=42, n_hosts=4, pages_per_host_base=14,
                       max_pages=1000, round_seconds=30.0,
                       fetch_concurrency=fetch_concurrency)
    df = out["locations"].to_pandas()
    cols = sorted(c for c in df.columns if c not in ("fuzzy_block", "fuzzy_host"))
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_flagship_deterministic_across_concurrency():
    a = _locations(1)
    b = _locations(4)
    assert len(a) == len(b) > 0
    pd.testing.assert_frame_equal(a, b)


def test_flagship_outputs_shape():
    out = run_flagship(seed=42, n_hosts=3, pages_per_host_base=10,
                       max_pages=100, round_seconds=30.0)
    locs = out["locations"].to_pandas()
    assert {"location_name", "location_address", "latitude", "longitude",
            "country_iso3", "footprint", "quality_score", "extraction_method",
            "confidence"} <= set(locs.columns)
    assert (locs["confidence"] >= 0.70).all()  # P1 gate applied
    docs = out["documents"].to_pandas()
    assert set(docs.columns) == {"doc_id", "spans"}
    assert out["crawl"].stats["fetched"] == len(docs)


def test_content_dedup_documents():
    """North-star content-hash dedup service wired into the document path:
    mirror pages (identical html at different urls) collapse to one doc."""
    import pyarrow as pa
    import ray.data as rd
    from web_crawler_ray.pipelines.flagship import assemble_documents
    html = "<html><body><p> the same mirrored body </p></body></html>"
    pages = rd.from_arrow(pa.table({
        "url": [f"https://h.example/mirror{i}" for i in range(4)] + ["https://h.example/other"],
        "html": [html] * 4 + ["<html><body><p> unique </p></body></html>"],
    }))
    docs = assemble_documents(pages, content_dedup=True).to_pandas()
    assert len(docs) == 2
    no_dedup = assemble_documents(pages, content_dedup=False).to_pandas()
    assert len(no_dedup) == 5


def _settled(read):
    """``read()`` once it stops changing (actor and task teardown is
    reported asynchronously)."""
    import time
    last, deadline = None, time.time() + 15
    while time.time() < deadline:
        cur = read()
        if cur == last:
            return cur
        last = cur
        time.sleep(0.5)
    return last


def _cpu() -> float:
    import ray
    return ray.available_resources().get("CPU", 0.0)


def _live_content_shards() -> int:
    """Hash-set shard actors (ContentHashShard is SeenShard) alive on the
    node, read from the GCS (ray.util.state.list_actors needs the
    dashboard, which the test session does not start)."""
    import ray._private.state as gcs
    return sum(1 for a in gcs.actors().values()
               if a["ActorClassName"] == "_SeenShardImpl"
               and a["State"] == "ALIVE")


def test_content_dedup_releases_cpu(ray_session):
    """A materialized content-dedup pass, once dropped, leaves the node's
    CPU and its ContentHashShard actors as it found them: a reservation
    left behind would starve a later crawl's fetch task on a small node,
    and each leaked shard is an idle process."""
    import gc

    import pyarrow as pa
    import ray.data as rd
    from web_crawler_ray.pipelines.flagship import assemble_documents
    html = "<html><body><p> mirrored </p></body></html>"
    pages = rd.from_arrow(pa.table({
        "url": [f"https://h.example/m{i}" for i in range(3)],
        "html": [html] * 3}))
    gc.collect()
    before = _settled(_cpu), _settled(_live_content_shards)
    docs = assemble_documents(pages, content_dedup=True).materialize()
    assert docs.count() == 1
    del docs
    gc.collect()
    assert (_settled(_cpu), _settled(_live_content_shards)) == before


@pytest.mark.parametrize("fuzzy", [True, False])
def test_extract_locations_equals_separate_enrich_chain(ray_session, fuzzy):
    """With ``fuzzy``, extract_locations runs extract + confidence filter
    in the fuzzy-dedup exchange's split tasks and enrich + quality in its
    reduce tasks (without it, one lazy map chain); the rows equal the
    chain of separate ExtractStage / _conf_filter map stages, fuzzy_dedup
    and separate geocode_enrich_batch and add_quality stages. With the
    exchange, the result is already materialized: consuming it runs no
    further Ray Data job."""
    from ray.data.dataset import MaterializedDataset
    from web_crawler_ray.pipelines.crawl import crawl
    from web_crawler_ray.pipelines.flagship import _conf_filter, extract_locations
    from web_crawler_ray.sources import synth_world as W
    from web_crawler_ray.stages.classify import classify_batch
    from web_crawler_ray.stages.dedup import fuzzy_dedup
    from web_crawler_ray.stages.enrich import add_quality, geocode_enrich_batch
    from web_crawler_ray.stages.extract import ExtractStage
    tbl, robots, seeds = W.world(seed=42, n_hosts=4, pages_per_host_base=14)
    pages = crawl(tbl, robots, seeds, max_pages=1000,
                  round_seconds=30.0).pages.materialize()
    classified = pages.map_batches(classify_batch, batch_format="pyarrow")
    got = extract_locations(classified, fuzzy=fuzzy)
    assert isinstance(got, MaterializedDataset) == fuzzy
    ref = classified.map_batches(ExtractStage(), batch_format="pyarrow",
                                 batch_size=64) \
        .map_batches(_conf_filter, batch_format="pyarrow")
    if fuzzy:
        ref = fuzzy_dedup(ref)
    ref = ref.map_batches(geocode_enrich_batch, batch_format="pyarrow",
                          batch_size=512) \
        .map_batches(add_quality, batch_format="pyarrow")

    def rows(ds) -> list:
        df = ds.to_pandas()
        return sorted(map(tuple, df[sorted(df.columns)].astype(str)
                          .values.tolist()))
    want = rows(ref)
    assert len(want) > 0
    assert rows(got) == want


def test_crawl_pages_one_block_per_cpu_and_span_tasks(ray_session):
    """crawl() returns its pages as at most one block per cluster CPU,
    holding exactly the visited URLs once each, although the crawl
    fetched more blocks than that (several rounds, 16 buckets each);
    assemble_documents' span tasks over them give, per doc_id, what
    SpanAssemblyStage gives in process over the same pages."""
    from web_crawler_ray.pipelines.crawl import crawl
    from web_crawler_ray.pipelines.flagship import assemble_documents
    from web_crawler_ray.sources import synth_world as W
    from web_crawler_ray.stages.extract import SpanAssemblyStage
    tbl, robots, seeds = W.world(seed=42, n_hosts=4, pages_per_host_base=14)
    res = crawl(tbl, robots, seeds, max_pages=1000, round_seconds=30.0)
    assert res.stats["rounds"] > 1
    cpus = int(ray.cluster_resources()["CPU"])
    assert 1 <= res.pages.num_blocks() <= cpus
    pages = res.pages.to_arrow_refs()
    assert len(pages) == res.pages.num_blocks()
    urls = [u for t in ray.get(pages) for u in t.column("url").to_pylist()]
    assert len(urls) == len(set(urls))
    assert sorted(urls) == sorted(res.visited.column("url").to_pylist())

    def by_doc(t: pa.Table) -> dict:
        return dict(zip(t.column("doc_id").to_pylist(),
                        t.column("spans").to_pylist()))
    got = by_doc(pa.concat_tables(ray.get(
        assemble_documents(res.pages).to_arrow_refs())))
    want = by_doc(SpanAssemblyStage()(pa.concat_tables(ray.get(pages))))
    assert len(got) == len(urls)
    assert got == want


def test_bulk_pipeline(tmp_path):
    """SURVEY §3.3: bulk CSV -> combined crawl -> per-company summary +
    2-sheet workbook."""
    import pyarrow as pa
    import zipfile
    from web_crawler_ray.pipelines.bulk import process_bulk
    from web_crawler_ray.sources import synth_world as W
    tbl, robots, seeds = W.world(seed=42, n_hosts=3, pages_per_host_base=12)
    companies = pa.table({
        "Company Name": ["Comp0", "Comp1", "Ghost Co"],
        "URL": [seeds[0], seeds[1], "https://nonexistent.example/"],
    })
    wb = str(tmp_path / "bulk.xlsx")
    out = process_bulk(companies, tbl, robots, workbook_path=wb,
                       round_seconds=30.0)
    by_name = {s["companyName"]: s for s in out["summary"]}
    assert by_name["Comp0"]["status"] == "success"
    assert by_name["Comp0"]["locationsCount"] > 0
    # the ghost host IS fetched (404-like) so it counts visited; its
    # locations are zero
    assert by_name["Ghost Co"]["locationsCount"] == 0
    assert out["totals"]["total"] == 3
    assert out["totals"]["totalLocations"] == sum(
        s["locationsCount"] for s in out["summary"])
    with zipfile.ZipFile(wb) as z:
        assert "xl/worksheets/sheet2.xml" in z.namelist()


def test_flagship_v2_defaults_content_dedup(ray_session):
    """run_flagship(profile='v2') drops mirror-page documents by default
    (content dedup auto-enabled for mirror-bearing v2 worlds)."""
    out = run_flagship(seed=77, n_hosts=3, pages_per_host_base=14,
                       round_seconds=6.0, profile="v2")
    docs = out["documents"].to_pandas()
    visited = set(out["crawl"].visited.column("url").to_pylist())
    mirror_pairs = [(u, u.replace("/mirror", "")) for u in visited
                    if "/mirror" in u and u.replace("/mirror", "") in visited]
    assert mirror_pairs, "v2 world must fetch at least one mirror pair"
    kept = set(docs["doc_id"])
    for m, orig in mirror_pairs:
        assert not (m in kept and orig in kept)
    # explicit override keeps both copies
    out2 = run_flagship(seed=77, n_hosts=3, pages_per_host_base=14,
                        round_seconds=6.0, profile="v2", content_dedup=False)
    kept2 = set(out2["documents"].to_pandas()["doc_id"])
    assert all(m in kept2 and o in kept2 for m, o in mirror_pairs)
