"""Unit semantics for the heavy-hitters sketch (Misra-Gries screen +
exact verify + certificate) and distributed connected components —
the paths the registry-level DuckDB gate doesn't reach: the MG
compression/certificate machinery (lossless at gate scale, D=0), the
certified-vs-fallback branch, and driver-union-find == distributed
min-label-propagation parity."""

import collections

import numpy as np
import pyarrow as pa
import ray.data as rd

from web_crawler_ray.stages.graph import (component_sizes,
                                          connected_components,
                                          _union_find)
from web_crawler_ray.stages.sketches import _mg_reduce, heavy_hitters


def _exact_topk(values, k):
    c = collections.Counter(values)
    return sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


# --- Misra-Gries reduction ---------------------------------------------------

def test_mg_reduce_bound_and_passthrough():
    vals = pa.array([1, 2, 3, 4, 5])
    cnts = np.array([50, 40, 30, 20, 10])
    v2, c2, theta = _mg_reduce(vals, cnts, m=5)
    assert theta == 0 and len(v2) == 5  # fits: lossless
    v3, c3, theta3 = _mg_reduce(vals, cnts, m=2)
    # theta = 3rd largest (30); survivors decremented, positives kept
    assert theta3 == 30
    assert v3.to_pylist() == [1, 2] and c3.tolist() == [20, 10]
    # MG guarantee: dropped values had count <= theta
    dropped = set(vals.to_pylist()) - set(v3.to_pylist())
    assert all(cnts[vals.to_pylist().index(d)] <= theta3 for d in dropped)


def test_heavy_hitters_zipf_certified_exact(ray_session):
    rng = np.random.default_rng(7)
    v = rng.zipf(1.5, 120_000).astype(np.int64)
    v = v[v < 10_000]
    ds = rd.from_arrow(pa.table({"v": v})).repartition(8)
    t = heavy_hitters(ds, "v", k=10, m=64)
    got = list(zip(t.column("v").to_pylist(), t.column("n_rows").to_pylist()))
    assert got == _exact_topk(v.tolist(), 10)


def test_heavy_hitters_uniform_fallback_exact(ray_session):
    # near-uniform data with a tiny summary: the certificate cannot
    # hold, so the unconditional groupby fallback must fire — result
    # is exact either way.
    rng = np.random.default_rng(11)
    u = rng.integers(0, 400, 30_000)
    ds = rd.from_arrow(pa.table({"v": u})).repartition(4)
    t = heavy_hitters(ds, "v", k=7, m=8)
    got = list(zip(t.column("v").to_pylist(), t.column("n_rows").to_pylist()))
    assert got == _exact_topk(u.tolist(), 7)


def test_heavy_hitters_all_unique_batches(ray_session):
    # Regression (round-5 ADVICE, high): all-unique batches reduce the
    # MG summary to EMPTY with theta=1 — the theta used to be dropped
    # with the rows (dec[0] had no row to land on), so the op returned
    # an EMPTY table instead of the true top-k. Now the sentinel row
    # carries theta and empty-candidate screens route to the fallback.
    v = np.arange(20_000, dtype=np.int64)
    ds = rd.from_arrow(pa.table({"v": v})).repartition(8)
    t = heavy_hitters(ds, "v", k=5, m=16)
    got = list(zip(t.column("v").to_pylist(), t.column("n_rows").to_pylist()))
    assert got == _exact_topk(v.tolist(), 5)  # was: == []


def test_heavy_hitters_spread_value_not_dropped(ray_session):
    # Regression (round-5 ADVICE, high): a value with true count 40
    # spread 1-per-batch across otherwise-unique batches was dropped
    # while the certificate wrongly passed (understated D). With theta
    # carried on sentinel rows, D is honest, the certificate fails, and
    # the fallback returns the true winner.
    rng = np.random.default_rng(3)
    parts = []
    base = 1_000_000
    for b in range(40):
        # 499 unique fillers + ONE occurrence of the hot value 42
        fillers = base + b * 1000 + np.arange(499, dtype=np.int64)
        parts.append(np.concatenate([fillers, [42]]))
    v = np.concatenate(parts)
    rng.shuffle(v)
    # one block per original batch-worth so summaries stay tiny
    ds = rd.from_arrow(pa.table({"v": v})).repartition(40)
    t = heavy_hitters(ds, "v", k=5, m=8)
    got = list(zip(t.column("v").to_pylist(), t.column("n_rows").to_pylist()))
    assert got == _exact_topk(v.tolist(), 5)
    assert got[0] == (42, 40)  # the spread value wins and is present


def test_heavy_hitters_strings_and_ties(ray_session):
    s = (["b"] * 30 + ["a"] * 30 + ["c"] * 10 + ["d"] * 5) * 3
    ds = rd.from_arrow(pa.table({"v": pa.array(s)})).repartition(3)
    t = heavy_hitters(ds, "v", k=3, m=16)
    # tie between a and b broken by value ascending
    assert t.column("v").to_pylist() == ["a", "b", "c"]
    assert t.column("n_rows").to_pylist() == [90, 90, 30]


# --- connected components ----------------------------------------------------

def test_union_find_basic():
    nodes, comp = _union_find(np.array([1, 3, 10]), np.array([2, 1, 11]))
    m = dict(zip(nodes.tolist(), comp.tolist()))
    assert m == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10}


def test_cc_driver_equals_distributed(ray_session):
    rng = np.random.default_rng(3)
    u = rng.integers(0, 1500, 1000).astype(np.int64)
    v = rng.integers(0, 1500, 1000).astype(np.int64)
    ds = rd.from_arrow(pa.table({"src": u, "dst": v})).repartition(4)
    drv = connected_components(ds, driver_limit=10**6)
    dist = connected_components(ds, driver_limit=0, num_partitions=4)
    dt = pa.concat_tables(
        [pa.table(b) for b in dist.iter_batches(batch_format="pyarrow")]
    ).sort_by("node")
    assert drv.column("node").to_pylist() == dt.column("node").to_pylist()
    assert (drv.column("component").to_pylist()
            == dt.column("component").to_pylist())
    sizes = component_sizes(drv)
    assert sum(sizes.column("n_nodes").to_pylist()) == drv.num_rows
    # every component label is the min node id of its members
    comp = np.array(drv.column("component").to_pylist())
    node = np.array(drv.column("node").to_pylist())
    for c in np.unique(comp):
        assert node[comp == c].min() == c


def test_cc_chain_high_diameter(ray_session):
    # a 60-node path graph: worst case for min-label propagation
    # (diameter 59) — must still converge under max_iters
    n = 60
    ds = rd.from_arrow(pa.table({
        "src": pa.array(np.arange(n - 1, 0, -1, dtype=np.int64)),
        "dst": pa.array(np.arange(n - 2, -1, -1, dtype=np.int64))}))
    dist = connected_components(ds, driver_limit=0, num_partitions=2,
                                max_iters=64)
    dt = pa.concat_tables(
        [pa.table(b) for b in dist.iter_batches(batch_format="pyarrow")])
    assert set(dt.column("component").to_pylist()) == {0}
    assert dt.num_rows == n


def test_cc_empty(ray_session):
    ds = rd.from_arrow(pa.table({"src": pa.array([], pa.int64()),
                                 "dst": pa.array([], pa.int64())}))
    t = connected_components(ds)
    assert t.num_rows == 0


def test_drop_duplicates_by_pairs_driver_equals_distributed(ray_session):
    import pandas as pd
    import ray.data as rd2
    from web_crawler_ray.stages.dedup import drop_duplicates_by_pairs
    ids = np.arange(40, dtype=np.int64)
    ds = rd2.from_arrow(pa.table({"doc_id": ids,
                                  "text": [f"t{i}" for i in ids]})) \
             .repartition(3)
    # pairs forming chains {0,1,2}, {5,6}, {10,11,12,13}
    pairs = pd.DataFrame({"id_a": [0, 1, 5, 10, 11, 12],
                          "id_b": [1, 2, 6, 11, 12, 13]})
    a = drop_duplicates_by_pairs(ds, pairs)            # driver path
    b = drop_duplicates_by_pairs(ds, pairs, driver_limit=0,
                                 num_partitions=2)     # distributed
    ga = sorted(a.to_pandas()["doc_id"].tolist())
    gb = sorted(b.to_pandas()["doc_id"].tolist())
    assert ga == gb
    expect = sorted(set(ids.tolist()) - {1, 2, 6, 11, 12, 13})
    assert ga == expect


# --- pagerank ----------------------------------------------------------------

def test_pagerank_driver_equals_distributed(ray_session):
    from web_crawler_ray.stages.graph import pagerank
    rng = np.random.default_rng(5)
    u = rng.integers(0, 300, 900).astype(np.int64)
    v = rng.integers(0, 300, 900).astype(np.int64)
    ds = rd.from_arrow(pa.table({"src": u, "dst": v})).repartition(4)
    a = pagerank(ds, n_iters=3)
    b = pagerank(ds, n_iters=3, driver_limit=0, num_partitions=4)
    assert a.column("node").to_pylist() == b.column("node").to_pylist()
    ar = np.array(a.column("rank").to_pylist())
    br = np.array(b.column("rank").to_pylist())
    assert np.allclose(ar, br, rtol=1e-12, atol=1e-15)


def test_pagerank_dangling_and_base(ray_session):
    from web_crawler_ray.stages.graph import pagerank
    # single edge 1 -> 2: node 2 is dangling (outdeg 0) and leaks its
    # mass; node 1 has no in-edges so it keeps only the base term.
    ds = rd.from_arrow(pa.table({"src": pa.array([1], pa.int64()),
                                 "dst": pa.array([2], pa.int64())}))
    t = pagerank(ds, n_iters=1, damping=0.85)
    m = dict(zip(t.column("node").to_pylist(),
                 t.column("rank").to_pylist()))
    base = (1.0 - 0.85) / 2
    assert abs(m[1] - base) < 1e-15
    assert abs(m[2] - (base + 0.85 * 0.5)) < 1e-15


def test_pagerank_mass_conserved_no_dangling(ray_session):
    from web_crawler_ray.stages.graph import pagerank
    # a 3-cycle: no dangling nodes => total mass stays 1 exactly
    ds = rd.from_arrow(pa.table({"src": pa.array([0, 1, 2], pa.int64()),
                                 "dst": pa.array([1, 2, 0], pa.int64())}))
    t = pagerank(ds, n_iters=5)
    assert abs(sum(t.column("rank").to_pylist()) - 1.0) < 1e-12


# --- approx quantiles --------------------------------------------------------

def test_approx_quantiles_lossless_equals_exact(ray_session):
    import math
    from web_crawler_ray.stages.sketches import approx_quantiles
    rng = np.random.default_rng(1)
    keys = rng.choice(["a", "b", "c"], 9000)
    vals = rng.normal(size=9000)
    ds = rd.from_arrow(pa.table({"k": keys, "v": vals})).repartition(6)
    t = approx_quantiles(ds, "k", "v", [0.25, 0.5, 0.9], k=4096) \
        .to_pandas().set_index("k")
    for kk in "abc":
        sub = np.sort(vals[keys == kk])
        n = len(sub)
        for q, nm in [(0.25, "q25"), (0.5, "q50"), (0.9, "q90")]:
            exact = float(sub[min(max(math.ceil(q * n) - 1, 0), n - 1)])
            assert t.loc[kk, nm] == exact, (kk, nm)


def test_approx_quantiles_lossy_rank_bound(ray_session):
    import math
    from web_crawler_ray.stages.sketches import approx_quantiles
    rng = np.random.default_rng(9)
    vals = rng.normal(size=100_000)
    ds = rd.from_arrow(pa.table({"k": np.repeat("x", len(vals)),
                                 "v": vals})).repartition(8)
    k = 64
    t = approx_quantiles(ds, "k", "v", [0.1, 0.5, 0.99], k=k,
                         names=["q10", "q50", "q99"]).to_pandas()
    sv = np.sort(vals)
    n = len(sv)
    for q, nm in [(0.1, "q10"), (0.5, "q50"), (0.99, "q99")]:
        got = t[nm].iloc[0]
        true_rank = np.searchsorted(sv, got, side="right")
        assert abs(true_rank - math.ceil(q * n)) <= 2 * n / (k - 1), nm


def test_cc_and_pagerank_hot_hub_skew(ray_session):
    # star graph: node 0 is a hub with 20k spokes — the grouped min/sum
    # sees one hot key; decomposable aggs (min/sum) partial-merge, so
    # the distributed path must complete and agree with the driver path
    from web_crawler_ray.stages.graph import connected_components, pagerank
    n = 20_000
    spokes = np.arange(1, n + 1, dtype=np.int64)
    ds = rd.from_arrow(pa.table({
        "src": np.zeros(n, np.int64), "dst": spokes})).repartition(8)
    dist = connected_components(ds, driver_limit=0, num_partitions=4)
    dt = pa.concat_tables(
        [pa.table(b) for b in dist.iter_batches(batch_format="pyarrow")])
    assert dt.num_rows == n + 1
    assert set(dt.column("component").to_pylist()) == {0}
    pr_d = pagerank(ds, n_iters=2, driver_limit=0, num_partitions=4)
    pr_l = pagerank(ds, n_iters=2)
    assert np.allclose(np.array(pr_d.column("rank").to_pylist()),
                       np.array(pr_l.column("rank").to_pylist()),
                       rtol=1e-12, atol=1e-15)


def test_host_pagerank_matches_manual(ray_session):
    from web_crawler_ray.functions.hashing import hash64_many
    from web_crawler_ray.pipelines.crawl import crawl
    from web_crawler_ray.sources import synth_world as W
    from web_crawler_ray.stages.graph import host_pagerank, pagerank
    tbl, robots, seeds = W.world(seed=42, n_hosts=5,
                                 pages_per_host_base=20)
    res = crawl(tbl, robots, seeds, keep_pages=False, max_depth=3)
    hp = host_pagerank(res.visited, n_iters=3)
    v = res.visited
    urls = v.column("url").to_pylist()
    hosts = v.column("host").to_pylist()
    uh = hash64_many(urls).view(np.int64)
    hh = hash64_many(hosts).view(np.int64)
    ph = v.column("parent_url_hash").to_numpy() \
          .astype(np.uint64).view(np.int64)
    h_of = dict(zip(uh.tolist(), hh.tolist()))
    edges = [(h_of[p], c) for p, c in zip(ph.tolist(), hh.tolist())
             if p != 0]
    e = pa.table({"src": pa.array([a for a, _ in edges], pa.int64()),
                  "dst": pa.array([b for _, b in edges], pa.int64())})
    pr = pagerank(rd.from_arrow(e), n_iters=3)
    name = dict(zip(hash64_many(sorted(set(hosts))).view(np.int64)
                    .tolist(), sorted(set(hosts))))
    exp = sorted(((name[n], r) for n, r in
                  zip(pr.column("node").to_pylist(),
                      pr.column("rank").to_pylist())),
                 key=lambda x: (-x[1], x[0]))
    got = list(zip(hp.column("host").to_pylist(),
                   hp.column("pr").to_pylist()))
    assert [h for h, _ in got] == [h for h, _ in exp]
    assert np.allclose([r for _, r in got], [r for _, r in exp],
                       rtol=1e-12)


def test_heavy_hitters_short_candidate_pool_falls_back(ray_session):
    # two giant values + a broad tail, m tiny: the MG pool holds fewer
    # than k candidates AND D > 0, so the certificate must NOT accept
    # the short result — the fallback fills all k rows exactly.
    rng = np.random.default_rng(2)
    v = np.concatenate([np.zeros(5000, np.int64),
                        np.ones(4000, np.int64),
                        rng.integers(2, 202, 5000)])
    rng.shuffle(v)
    ds = rd.from_arrow(pa.table({"v": v})).repartition(4)
    t = heavy_hitters(ds, "v", k=10, m=4)
    got = list(zip(t.column("v").to_pylist(),
                   t.column("n_rows").to_pylist()))
    assert got == _exact_topk(v.tolist(), 10)
    assert len(got) == 10


# --- curation: z-score + split ----------------------------------------------

def test_zscore_zero_variance_group_is_null(ray_session):
    from web_crawler_ray.stages.aggregates import zscore_per_group
    t = pa.table({"id": pa.array([1, 2, 3, 4], pa.int64()),
                  "k": pa.array(["a", "a", "b", "b"]),
                  "v": pa.array([5.0, 5.0, 1.0, 3.0])})
    out = zscore_per_group(rd.from_arrow(t), "k", "v", "id") \
        .to_pandas().set_index("id")
    assert np.isnan(out.loc[1, "z"]) and np.isnan(out.loc[2, "z"])
    assert out.loc[3, "z"] == -1.0 and out.loc[4, "z"] == 1.0


def test_split_assign_deterministic_and_complete(ray_session):
    from web_crawler_ray.stages.aggregates import split_assign
    ids = np.arange(2000, dtype=np.int64)
    t = pa.table({"doc_id": ids})
    a = split_assign(rd.from_arrow(t), "doc_id").to_pandas()
    b = split_assign(rd.from_arrow(t).repartition(7), "doc_id") \
        .to_pandas()
    ma = dict(zip(a["doc_id"], a["split"]))
    mb = dict(zip(b["doc_id"], b["split"]))
    assert ma == mb  # membership independent of partitioning
    frac = a["split"].value_counts(normalize=True)
    assert 0.85 < frac["train"] < 0.95
    assert set(a["split"]) == {"train", "val", "test"}
    assert len(a) == 2000


def test_host_pagerank_spilled_dataset_equals_table(ray_session,
                                                    tmp_path):
    # the 10^10-URL form: visited spilled to per-round parquet and read
    # back lazily as a Dataset must rank identically to the driver
    # Table path
    from web_crawler_ray.pipelines.crawl import crawl
    from web_crawler_ray.sources import synth_world as W
    from web_crawler_ray.stages.graph import host_pagerank
    tbl, robots, seeds = W.world(seed=13, n_hosts=4,
                                 pages_per_host_base=16)
    ram = crawl(tbl, robots, seeds, max_pages=10_000, max_depth=3,
                keep_pages=False)
    d = str(tmp_path / "spill")
    crawl(tbl, robots, seeds, max_pages=10_000, max_depth=3,
          keep_pages=False, visited_spill_dir=d)
    lazy = rd.read_parquet(d)
    a = host_pagerank(ram.visited, n_iters=3)
    b = host_pagerank(lazy, n_iters=3)
    assert a.column("host").to_pylist() == b.column("host").to_pylist()
    assert np.allclose(np.array(a.column("pr").to_pylist()),
                       np.array(b.column("pr").to_pylist()),
                       rtol=1e-12)


def test_drop_duplicates_by_pairs_dataset_input(ray_session):
    from web_crawler_ray.stages.dedup import drop_duplicates_by_pairs
    ids = np.arange(20, dtype=np.int64)
    ds = rd.from_arrow(pa.table({"doc_id": ids,
                                 "text": [f"t{i}" for i in ids]}))
    pairs_ds = rd.from_arrow(pa.table({
        "id_a": pa.array([0, 5], pa.int64()),
        "id_b": pa.array([1, 6], pa.int64())}))
    out = sorted(drop_duplicates_by_pairs(ds, pairs_ds)
                 .to_pandas()["doc_id"].tolist())
    assert out == sorted(set(ids.tolist()) - {1, 6})


def test_lm_score_brute_force_and_edges(ray_session):
    import collections
    import math
    from web_crawler_ray.stages.textstats import lm_score
    ref_texts = ["the cat sat on the mat", "the dog sat on the log"]
    docs = ["the cat sat", "zz", "qqqxyz unseen trigrams", ""]
    ref = rd.from_arrow(pa.table({"text": ref_texts}))
    d = rd.from_arrow(pa.table({"doc_id": pa.array([0, 1, 2, 3],
                                                   pa.int64()),
                                "text": docs}))
    out = lm_score(d, ref).to_pandas().set_index("doc_id")
    # docs shorter than 3 chars are omitted
    assert 1 not in out.index and 3 not in out.index
    # brute force
    tc = collections.Counter()
    chars = set()
    for x in ref_texts:
        b = x.encode()
        chars.update(b)
        for i in range(len(b) - 2):
            tc[bytes(b[i:i + 3])] += 1
    bc = collections.Counter()
    for k, c in tc.items():
        bc[k[:2]] += c
    V = len(chars)
    for did, txt in [(0, docs[0]), (2, docs[2])]:
        b = txt.encode()
        lps = [math.log((tc.get(bytes(b[i:i + 3]), 0) + 1)
                        / (bc.get(bytes(b[i:i + 2]), 0) + V))
               for i in range(len(b) - 2)]
        assert abs(out.loc[did, "lm_logprob"]
                   - round(sum(lps) / len(lps), 6)) < 2e-6
    # in-domain text scores higher than unseen-trigram text
    assert out.loc[0, "lm_logprob"] > out.loc[2, "lm_logprob"]


def test_chunk_documents_boundaries(ray_session):
    from web_crawler_ray.stages.textstats import chunk_documents
    texts = ["abcdefghij", "abc", "", "x" * 25]
    t = pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                  "text": texts})
    out = chunk_documents(rd.from_arrow(t), window=10, overlap=3) \
        .to_pandas().sort_values(["doc_id", "chunk_idx"])
    got = {(r.doc_id, r.chunk_idx): r.chunk_text
           for r in out.itertuples()}
    # len 10 -> chunks at 0, 7 (step 7): floor(9/7)+1 = 2 chunks
    assert got[(0, 0)] == "abcdefghij" and got[(0, 1)] == "hij"
    assert got[(1, 0)] == "abc"
    assert 2 not in out["doc_id"].values  # empty doc: no chunks
    # len 25 -> chunks at 0,7,14,21 -> 4 chunks, last is 4 chars
    assert len(out[out["doc_id"] == 3]) == 4
    assert got[(3, 3)] == "x" * 4
    # overlap: consecutive chunks share `overlap` chars
    assert got[(0, 0)][-3:] == got[(0, 1)][:3]


def test_pack_greedy_invariants(ray_session):
    from web_crawler_ray.stages.textstats import pack_greedy
    rng = np.random.default_rng(4)
    sizes = rng.integers(50, 3000, 500).astype(np.int64)
    sizes[7] = 9999  # oversize item gets its own bin
    t = pa.table({"doc_id": np.arange(500, dtype=np.int64),
                  "n_chars": sizes})
    a = pack_greedy(rd.from_arrow(t), cap=8000).to_pandas()
    b = pack_greedy(rd.from_arrow(t).repartition(9), cap=8000) \
        .to_pandas()
    # deterministic under re-sharding
    ma = dict(zip(a["doc_id"], a["bin_id"]))
    mb = dict(zip(b["doc_id"], b["bin_id"]))
    assert ma == mb
    assert sorted(a["doc_id"]) == list(range(500))  # nothing lost
    per_bin = a.groupby("bin_id")["n_chars"].sum()
    multi = a["bin_id"].value_counts()
    # any bin holding >1 item stays within cap; oversize item is alone
    for bid, tot in per_bin.items():
        if multi[bid] > 1:
            assert tot <= 8000, (bid, tot)
    over_bin = ma[7]
    assert multi[over_bin] == 1


def test_sketch_null_handling(ray_session):
    from web_crawler_ray.stages.sketches import (approx_quantiles,
                                                 heavy_hitters)
    v = pa.array([1, 1, 2, None, None, None, 3], pa.int64())
    t = heavy_hitters(rd.from_arrow(pa.table({"v": v})), k=3, m=8,
                      value="v")
    # nulls dropped: most-frequent-values semantics
    assert t.column("v").to_pylist() == [1, 2, 3]
    assert t.column("n_rows").to_pylist() == [2, 1, 1]
    q = approx_quantiles(rd.from_arrow(pa.table(
        {"k": ["a"] * 6,
         "v": pa.array([1.0, None, 3.0, None, 5.0, 7.0])})),
        "k", "v", [0.5], k=8).to_pandas()
    assert q["q50"].iloc[0] == 3.0  # quantile_disc over non-nulls
    # null KEYS are dropped rather than crashing the dictionary path
    from web_crawler_ray.stages.sketches import hll_distinct
    qn = approx_quantiles(rd.from_arrow(pa.table(
        {"k": pa.array(["a", None, "a", None]),
         "v": pa.array([1.0, 2.0, 3.0, 4.0])})),
        "k", "v", [0.5], k=8).to_pandas()
    assert qn["k"].tolist() == ["a"] and qn["q50"].iloc[0] == 1.0
    hn = hll_distinct(rd.from_arrow(pa.table(
        {"k": pa.array(["a", None, "a"]),
         "u": pa.array([1, 2, 3], pa.int64())})), "k", "u").to_pandas()
    assert hn["k"].tolist() == ["a"] and hn["approx_distinct"].iloc[0] == 2


def test_mg_reduce_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=300),
           st.integers(1, 12))
    def check(stream, m):
        import collections
        true = collections.Counter(stream)
        vals = pa.array(sorted(true))
        cnts = np.array([true[v] for v in sorted(true)])
        v2, c2, theta = _mg_reduce(vals, cnts, m)
        kept = dict(zip(v2.to_pylist(), c2.tolist()))
        assert len(kept) <= m
        for v, c in true.items():
            if v in kept:
                # undercount bounded by theta, never overcount
                assert 0 <= c - kept[v] <= theta
            else:
                # dropped values had true count <= theta
                assert c <= theta

    check()


def test_pagerank_seeded_parity_and_errors(ray_session):
    import pytest as _pt
    from web_crawler_ray.stages.graph import pagerank
    rng = np.random.default_rng(5)
    u = rng.integers(0, 300, 900).astype(np.int64)
    v = rng.integers(0, 300, 900).astype(np.int64)
    ds = rd.from_arrow(pa.table({"src": u, "dst": v})).repartition(4)
    seeds = [3, 7, 11, 9999]  # 9999 absent from the graph -> ignored
    a = pagerank(ds, n_iters=3, seeds=seeds)
    b = pagerank(ds, n_iters=3, seeds=seeds, driver_limit=0,
                 num_partitions=4)
    assert a.column("node").to_pylist() == b.column("node").to_pylist()
    ar = np.array(a.column("rank").to_pylist())
    br = np.array(b.column("rank").to_pylist())
    assert np.array_equal(ar, br)  # bit-exact by float-op-order design
    # all mass reachable from seeds; non-seed sources get rank 0 + flow
    assert abs(ar.sum() - 1.0) < 1e-9 or ar.sum() < 1.0
    with _pt.raises(ValueError):
        pagerank(ds, n_iters=1, seeds=[999_999])
    with _pt.raises(ValueError):
        pagerank(ds, n_iters=1, seeds=[999_999], driver_limit=0)


def test_hits_parity_and_semantics(ray_session):
    from web_crawler_ray.stages.graph import hits
    rng = np.random.default_rng(5)
    u = rng.integers(0, 300, 900).astype(np.int64)
    v = rng.integers(0, 300, 900).astype(np.int64)
    ds = rd.from_arrow(pa.table({"src": u, "dst": v})).repartition(4)
    a = hits(ds, n_iters=2)
    b = hits(ds, n_iters=2, driver_limit=0, num_partitions=4)
    assert a.column("node").to_pylist() == b.column("node").to_pylist()
    for c in ("hub", "authority"):
        assert np.allclose(np.array(a.column(c).to_pylist()),
                           np.array(b.column(c).to_pylist()),
                           rtol=1e-12, atol=1e-15)
        assert abs(sum(a.column(c).to_pylist()) - 1.0) < 1e-9  # L1
    # a pure source (only out-edges) has authority 0; a pure sink
    # (only in-edges) has hub 0
    star = rd.from_arrow(pa.table({
        "src": pa.array([0, 0, 0], pa.int64()),
        "dst": pa.array([1, 2, 3], pa.int64())}))
    t = hits(star, n_iters=2)
    m = {n: (h, au) for n, h, au in
         zip(t.column("node").to_pylist(), t.column("hub").to_pylist(),
             t.column("authority").to_pylist())}
    assert m[0][1] == 0.0 and abs(m[0][0] - 1.0) < 1e-12
    for spoke in (1, 2, 3):
        assert m[spoke][0] == 0.0
        assert abs(m[spoke][1] - 1 / 3) < 1e-12


# --- triangle counting + BFS hops --------------------------------------------

def _brute_triangles(u, v):
    """Per-node triangle counts by explicit set intersection."""
    adj = {}
    for a, b in zip(u.tolist(), v.tolist()):
        if a == b:
            continue
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    cnt = {n: 0 for n in adj}
    for a, nbrs in adj.items():
        for b in nbrs:
            if b <= a:
                continue
            for c in adj[b]:
                if c > b and c in nbrs:
                    for x in (a, b, c):
                        cnt[x] += 1
    return cnt


def test_triangle_counts_brute_force_and_parity(ray_session):
    from web_crawler_ray.stages.graph import triangle_counts
    rng = np.random.default_rng(13)
    u = rng.integers(0, 120, 900).astype(np.int64)
    v = rng.integers(0, 120, 900).astype(np.int64)
    ds = rd.from_arrow(pa.table({"src": u, "dst": v})).repartition(4)
    t = triangle_counts(ds)
    want = _brute_triangles(u, v)
    got = dict(zip(t.column("node").to_pylist(),
                   t.column("n_triangles").to_pylist()))
    assert got == want
    assert sum(got.values()) % 3 == 0 and sum(got.values()) > 0
    # distributed path: identical table
    d = triangle_counts(rd.from_arrow(pa.table({"src": u, "dst": v}))
                        .repartition(4), driver_limit=0,
                        num_partitions=5)
    assert d.equals(t)


def test_triangle_counts_edge_cases(ray_session):
    from web_crawler_ray.stages.graph import triangle_counts
    # triangle + pendant: nodes 0,1,2 in 1 triangle, node 3 in none;
    # duplicate/reversed/self-loop edges must not change counts
    e = pa.table({"src": pa.array([0, 1, 2, 2, 0, 2, 3],
                                  pa.int64()),
                  "dst": pa.array([1, 2, 0, 0, 1, 3, 3],
                                  pa.int64())})
    t = triangle_counts(rd.from_arrow(e))
    assert t.column("node").to_pylist() == [0, 1, 2, 3]
    assert t.column("n_triangles").to_pylist() == [1, 1, 1, 0]
    d = triangle_counts(rd.from_arrow(e), driver_limit=0,
                        num_partitions=3)
    assert d.equals(t)
    # self-loops only -> no canonical edges -> empty
    loops = pa.table({"src": pa.array([5, 6], pa.int64()),
                      "dst": pa.array([5, 6], pa.int64())})
    assert triangle_counts(rd.from_arrow(loops)).num_rows == 0


def _brute_bfs(u, v, s):
    adj = {}
    for a, b in zip(u.tolist(), v.tolist()):
        adj.setdefault(a, set()).add(b)
    dist = {s: 0}
    frontier = [s]
    while frontier:
        nxt = []
        for a in frontier:
            for b in adj.get(a, ()):
                if b not in dist:
                    dist[b] = dist[a] + 1
                    nxt.append(b)
        frontier = nxt
    return dist


def test_bfs_hops_brute_force_and_parity(ray_session):
    from web_crawler_ray.stages.graph import bfs_hops
    rng = np.random.default_rng(17)
    u = rng.integers(0, 300, 700).astype(np.int64)
    v = rng.integers(0, 300, 700).astype(np.int64)
    ds = rd.from_arrow(pa.table({"src": u, "dst": v})).repartition(4)
    t = bfs_hops(ds)  # source = min node id
    s = int(min(u.min(), v.min()))
    want = _brute_bfs(u, v, s)
    got = dict(zip(t.column("node").to_pylist(),
                   t.column("hops").to_pylist()))
    assert got == want
    d = bfs_hops(rd.from_arrow(pa.table({"src": u, "dst": v})),
                 driver_limit=0, num_partitions=5)
    assert d.equals(t)


def test_bfs_hops_chain_and_unreachable(ray_session):
    from web_crawler_ray.stages.graph import bfs_hops
    # directed chain 0->1->2->3 plus unreachable island 8->9
    e = pa.table({"src": pa.array([0, 1, 2, 8], pa.int64()),
                  "dst": pa.array([1, 2, 3, 9], pa.int64())})
    t = bfs_hops(rd.from_arrow(e), source=0)
    assert t.column("node").to_pylist() == [0, 1, 2, 3]
    assert t.column("hops").to_pylist() == [0, 1, 2, 3]
    d = bfs_hops(rd.from_arrow(e), source=0, driver_limit=0,
                 num_partitions=3)
    assert d.equals(t)
    # source not in graph raises (driver path)
    import pytest as _pt
    with _pt.raises(ValueError):
        bfs_hops(rd.from_arrow(e), source=777)


def _brute_sssp(u, v, w, s):
    import heapq
    adj = {}
    for a, b, c in zip(u.tolist(), v.tolist(), w.tolist()):
        adj.setdefault(a, []).append((b, c))
    dist = {s: 0}
    q = [(0, s)]
    while q:
        d, a = heapq.heappop(q)
        if d > dist.get(a, 1 << 60):
            continue
        for b, c in adj.get(a, ()):
            nd = d + c
            if nd < dist.get(b, 1 << 60):
                dist[b] = nd
                heapq.heappush(q, (nd, b))
    return dist


def test_sssp_weighted_brute_force_and_parity(ray_session):
    from web_crawler_ray.stages.graph import sssp_weighted
    rng = np.random.default_rng(23)
    u = rng.integers(0, 300, 700).astype(np.int64)
    v = rng.integers(0, 300, 700).astype(np.int64)
    w = rng.integers(1, 9, 700).astype(np.int64)
    tbl = pa.table({"src": u, "dst": v, "w": w})
    t = sssp_weighted(rd.from_arrow(tbl).repartition(4))
    s = int(min(u.min(), v.min()))
    want = _brute_sssp(u, v, w, s)
    got = dict(zip(t.column("node").to_pylist(),
                   t.column("dist").to_pylist()))
    assert got == want
    # distributed path output-identical to the driver path
    d = sssp_weighted(rd.from_arrow(tbl), driver_limit=0,
                      num_partitions=5)
    assert d.equals(t)


def test_sssp_weighted_picks_cheap_detour(ray_session):
    from web_crawler_ray.stages.graph import sssp_weighted
    # direct 0->2 costs 10; detour 0->1->2 costs 3 — weighted beats BFS
    e = pa.table({"src": pa.array([0, 0, 1, 7], pa.int64()),
                  "dst": pa.array([2, 1, 2, 8], pa.int64()),
                  "w": pa.array([10, 1, 2, 1], pa.int64())})
    t = sssp_weighted(rd.from_arrow(e), source=0)
    assert t.column("node").to_pylist() == [0, 1, 2]
    assert t.column("dist").to_pylist() == [0, 1, 3]
    d = sssp_weighted(rd.from_arrow(e), source=0, driver_limit=0,
                      num_partitions=3)
    assert d.equals(t)
    import pytest as _pt
    with _pt.raises(ValueError):
        sssp_weighted(rd.from_arrow(e), source=777)
    bad = pa.table({"src": pa.array([0], pa.int64()),
                    "dst": pa.array([1], pa.int64()),
                    "w": pa.array([0], pa.int64())})
    with _pt.raises(ValueError):
        sssp_weighted(rd.from_arrow(bad), source=0)


def _brute_kcore(u, v, k):
    import collections
    adj = collections.defaultdict(set)
    for a, b in zip(u.tolist(), v.tolist()):
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    alive = set(adj)
    while True:
        drop = {n for n in alive
                if len(adj[n] & alive) < k}
        if not drop:
            return sorted(alive)
        alive -= drop


def test_k_core_brute_force_and_parity(ray_session):
    from web_crawler_ray.stages.graph import k_core
    rng = np.random.default_rng(29)
    u = rng.integers(0, 120, 400).astype(np.int64)
    v = rng.integers(0, 120, 400).astype(np.int64)
    tbl = pa.table({"src": u, "dst": v})
    for k in (2, 3, 5):
        t = k_core(rd.from_arrow(tbl).repartition(4), k=k)
        assert t.column("node").to_pylist() == _brute_kcore(u, v, k)
        d = k_core(rd.from_arrow(tbl), k=k, driver_limit=0,
                   num_partitions=5)
        assert d.equals(t)


def test_k_core_shapes(ray_session):
    from web_crawler_ray.stages.graph import k_core
    # 4-clique + pendant chain: 3-core is exactly the clique
    e = pa.table({"src": pa.array([0, 0, 0, 1, 1, 2, 3, 4],
                                  pa.int64()),
                  "dst": pa.array([1, 2, 3, 2, 3, 3, 4, 5],
                                  pa.int64())})
    t = k_core(rd.from_arrow(e), k=3)
    assert t.column("node").to_pylist() == [0, 1, 2, 3]
    d = k_core(rd.from_arrow(e), k=3, driver_limit=0,
               num_partitions=3)
    assert d.equals(t)
    # k above max degree -> empty core, both paths
    assert k_core(rd.from_arrow(e), k=9).num_rows == 0
    assert k_core(rd.from_arrow(e), k=9, driver_limit=0,
                  num_partitions=3).num_rows == 0
    # self-loops only -> no edges -> empty
    loops = pa.table({"src": pa.array([5], pa.int64()),
                      "dst": pa.array([5], pa.int64())})
    assert k_core(rd.from_arrow(loops), k=1).num_rows == 0


def _brute_walks(u, v, length):
    from web_crawler_ray.stages.aggregates import md5_low64
    adj = {}
    for a, b in zip(u.tolist(), v.tolist()):
        adj.setdefault(a, set()).add(b)
    adj = {a: sorted(bs) for a, bs in adj.items()}
    rows = []
    for s in sorted(adj):
        cur = s
        rows.append((s, 0, s))
        for t in range(length):
            nbrs = adj.get(cur)
            if not nbrs:
                break
            cur = nbrs[md5_low64(f"{cur}:{t}") % len(nbrs)]
            rows.append((s, t + 1, cur))
    return sorted(rows)


def test_hash_walks_brute_force_and_parity(ray_session):
    from web_crawler_ray.stages.graph import hash_walks
    rng = np.random.default_rng(37)
    u = rng.integers(0, 80, 250).astype(np.int64)
    v = rng.integers(0, 80, 250).astype(np.int64)
    tbl = pa.table({"src": u, "dst": v})
    t = hash_walks(rd.from_arrow(tbl).repartition(4), length=3)
    got = sorted(zip(t.column("start").to_pylist(),
                     t.column("step").to_pylist(),
                     t.column("node").to_pylist()))
    assert got == _brute_walks(u, v, 3)
    d = hash_walks(rd.from_arrow(tbl), length=3, driver_limit=0,
                   num_partitions=5)
    assert sorted(zip(d.column("start").to_pylist(),
                      d.column("step").to_pylist(),
                      d.column("node").to_pylist())) == got


def test_hash_walks_dead_end_stops(ray_session):
    from web_crawler_ray.stages.graph import hash_walks
    # 0 -> 1 -> 2 (dead end): the walk from 0 is 0,1,2 then stops
    e = pa.table({"src": pa.array([0, 1], pa.int64()),
                  "dst": pa.array([1, 2], pa.int64())})
    t = hash_walks(rd.from_arrow(e), length=5)
    rows = sorted(zip(t.column("start").to_pylist(),
                      t.column("step").to_pylist(),
                      t.column("node").to_pylist()))
    assert rows == [(0, 0, 0), (0, 1, 1), (0, 2, 2),
                    (1, 0, 1), (1, 1, 2)]
    d = hash_walks(rd.from_arrow(e), length=5, driver_limit=0,
                   num_partitions=3)
    assert sorted(zip(d.column("start").to_pylist(),
                      d.column("step").to_pylist(),
                      d.column("node").to_pylist())) == rows


def test_clustering_coefficients_brute_and_parity(ray_session):
    from web_crawler_ray.stages.graph import clustering_coefficients
    rng = np.random.default_rng(83)
    e = pa.table({"src": pa.array(rng.integers(0, 40, 300)),
                  "dst": pa.array(rng.integers(0, 40, 300))})
    ds = rd.from_arrow(e).repartition(5)
    t = clustering_coefficients(ds)
    # brute force
    adj = collections.defaultdict(set)
    for s, d in zip(e.column("src").to_pylist(),
                    e.column("dst").to_pylist()):
        if s != d:
            adj[s].add(d)
            adj[d].add(s)
    for node, tri, deg, coeff in zip(t.column("node").to_pylist(),
                                     t.column("n_triangles").to_pylist(),
                                     t.column("deg").to_pylist(),
                                     t.column("coeff").to_pylist()):
        nb = sorted(adj[node])
        want = sum(1 for i in range(len(nb)) for j in range(i + 1, len(nb))
                   if nb[j] in adj[nb[i]])
        assert deg == len(nb)
        assert tri == want
        assert coeff == (2.0 * want / (deg * (deg - 1)) if deg >= 2
                         else 0.0)
    d2 = clustering_coefficients(ds, driver_limit=0, num_partitions=3)
    assert t.equals(d2)


def test_clustering_coefficients_empty(ray_session):
    from web_crawler_ray.stages.graph import clustering_coefficients
    e = pa.table({"src": pa.array([7], pa.int64()),
                  "dst": pa.array([7], pa.int64())})   # self-loop only
    t = clustering_coefficients(rd.from_arrow(e))
    assert t.num_rows == 0
    assert t.column_names == ["node", "n_triangles", "deg", "coeff"]


def test_degree_assortativity_brute_and_parity(ray_session):
    from web_crawler_ray.stages.graph import degree_assortativity
    rng = np.random.default_rng(173)
    e = pa.table({"src": pa.array(rng.integers(0, 30, 150)),
                  "dst": pa.array(rng.integers(0, 30, 150))})
    ds = rd.from_arrow(e).repartition(4)
    t = degree_assortativity(ds)
    # brute via numpy corrcoef over the symmetric edge list
    adj = set()
    for s, d in zip(e.column("src").to_pylist(),
                    e.column("dst").to_pylist()):
        if s != d:
            adj.add((min(s, d), max(s, d)))
    deg = collections.Counter()
    for u, v in adj:
        deg[u] += 1
        deg[v] += 1
    du = np.array([deg[u] for u, v in adj] + [deg[v] for u, v in adj],
                  np.float64)
    dv = np.array([deg[v] for u, v in adj] + [deg[u] for u, v in adj],
                  np.float64)
    ref = np.corrcoef(du, dv)[0, 1]
    assert t.num_rows == 1
    assert int(t.column("n_edges_dir")[0].as_py()) == 2 * len(adj)
    assert abs(t.column("r")[0].as_py() - ref) < 1e-12
    d2 = degree_assortativity(ds, driver_limit=0, num_partitions=3)
    assert t.num_rows == d2.num_rows == 1
    assert t.column("r")[0].as_py() == d2.column("r")[0].as_py()


def test_degree_assortativity_regular_graph_empty(ray_session):
    from web_crawler_ray.stages.graph import degree_assortativity
    # 4-cycle: every degree 2 -> zero variance -> empty table
    e = pa.table({"src": pa.array([0, 1, 2, 3], pa.int64()),
                  "dst": pa.array([1, 2, 3, 0], pa.int64())})
    t = degree_assortativity(rd.from_arrow(e))
    assert t.num_rows == 0
    assert t.column_names == ["n_edges_dir", "r"]
