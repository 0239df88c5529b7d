"""Unit semantics for the sixth-session round-5 additions — one-way
ANOVA, Cramér's V, directed reciprocity, dictionary matching —
covering the edges the registry-level DuckDB gate doesn't reach
(partition invariance, scipy/brute cross-checks, degenerate inputs)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd


def _vals(n=500, k=4, seed=3):
    rng = np.random.default_rng(seed)
    return pa.table({
        "g": pa.array(np.array([f"g{i}" for i in range(k)])
                      [rng.integers(0, k, n)]),
        "value": pa.array(np.round(rng.uniform(0.01, 80.0, n), 2)),
    })


# --- one-way ANOVA -----------------------------------------------------------

def test_anova_matches_scipy_and_partitioning(ray_session):
    from web_crawler_ray.stages.aggregates import anova_oneway
    t = _vals()
    outs = []
    for nb in (1, 7):
        ds = rd.from_arrow(t).repartition(nb)
        outs.append(anova_oneway(ds, "g", "value", x_scale=100)
                    .to_pandas())
    # partition invariance is exact (integer partials, fixed fold)
    pd.testing.assert_frame_equal(outs[0], outs[1])
    got = outs[0].iloc[0]
    df = t.to_pandas()
    cents = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
    groups = [cents[df["g"].to_numpy() == g] / 100.0
              for g in sorted(df["g"].unique())]
    try:
        from scipy.stats import f_oneway
    except ImportError:
        f_ref = None
    else:
        f_ref = f_oneway(*groups).statistic
    if f_ref is not None:
        assert abs(got["f_stat"] - f_ref) < 1e-8 * abs(f_ref)
    assert got["k"] == 4 and got["n"] == 500
    assert got["ss_between"] >= 0.0 and got["ss_within"] > 0.0


def test_anova_single_group_null_f(ray_session):
    from web_crawler_ray.stages.aggregates import anova_oneway
    t = pa.table({"g": pa.array(["a"] * 10),
                  "value": pa.array(np.linspace(1, 2, 10))})
    out = anova_oneway(rd.from_arrow(t), "g", "value").to_pandas()
    assert out.iloc[0]["k"] == 1
    assert pd.isna(out.iloc[0]["f_stat"])


# --- Cramér's V --------------------------------------------------------------

def test_cramers_v_matches_brute(ray_session):
    from web_crawler_ray.stages.aggregates import cramers_v
    rng = np.random.default_rng(5)
    n = 800
    r = np.array(["x", "y", "z"])[rng.integers(0, 3, n)]
    c = np.array(["a", "b", "c", "d"])[rng.integers(0, 4, n)]
    t = pa.table({"r": pa.array(r), "c": pa.array(c)})
    out = cramers_v(rd.from_arrow(t).repartition(5), "r", "c") \
        .to_pandas().iloc[0]
    ct = pd.crosstab(pd.Series(r), pd.Series(c)).to_numpy()
    e = np.outer(ct.sum(1), ct.sum(0)) / ct.sum()
    chi2 = ((ct - e) ** 2 / e).sum()
    v = np.sqrt(chi2 / ct.sum() / min(ct.shape[0] - 1, ct.shape[1] - 1))
    assert abs(out["chi2"] - chi2) < 1e-9 * chi2
    assert abs(out["v"] - v) < 1e-12
    assert out["dof"] == 6 and out["n"] == n


def test_cramers_v_observed_cells_only(ray_session):
    from web_crawler_ray.stages.aggregates import cramers_v
    # c is a function of r; cells that never occur contribute NO term
    # (the documented chi2_contingency convention, matched by the
    # GROUP BY oracle): chi2 covers only the 3 diagonal cells.
    r = np.repeat(["p", "q", "s"], 40)
    c = np.repeat(["1", "2", "3"], 40)
    t = pa.table({"r": pa.array(r), "c": pa.array(c)})
    out = cramers_v(rd.from_arrow(t).repartition(3), "r", "c") \
        .to_pandas().iloc[0]
    # e = 40*40/120 per observed cell; term = (40 - e)^2 / e
    e = 40.0 * 40.0 / 120.0
    chi2 = 3 * ((40.0 - e) ** 2 / e)
    assert abs(out["chi2"] - chi2) < 1e-9
    assert abs(out["v"] - np.sqrt(chi2 / 120.0 / 2.0)) < 1e-12


# --- directed reciprocity ----------------------------------------------------

def _brute_reciprocity(src, dst):
    d = {(s, t) for s, t in zip(src, dst) if s != t}
    nm = sum((t, s) in d for (s, t) in d)
    return len(d), nm


def test_reciprocity_matches_brute_across_partitionings(ray_session):
    from web_crawler_ray.stages.graph import reciprocity
    rng = np.random.default_rng(9)
    src = rng.integers(0, 40, 3000).astype(np.int64)
    dst = rng.integers(0, 40, 3000).astype(np.int64)
    ne, nm = _brute_reciprocity(src, dst)
    assert nm > 0  # dense enough that mutual edges exist
    t = pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    for nb in (1, 6):
        out = reciprocity(rd.from_arrow(t).repartition(nb),
                          num_partitions=8).to_pandas().iloc[0]
        assert out["n_edges"] == ne
        assert out["n_mutual"] == nm
        assert out["reciprocity"] == float(nm) / float(ne)


def test_reciprocity_pure_dag_zero(ray_session):
    from web_crawler_ray.stages.graph import reciprocity
    # strictly increasing edges -> no mutuals; self loops dropped
    src = np.arange(50, dtype=np.int64)
    dst = src + 1
    t = pa.table({"src": pa.array(np.concatenate((src, [7]))),
                  "dst": pa.array(np.concatenate((dst, [7])))})
    out = reciprocity(rd.from_arrow(t)).to_pandas().iloc[0]
    assert out["n_edges"] == 50 and out["n_mutual"] == 0
    assert out["reciprocity"] == 0.0


# --- dictionary matching -----------------------------------------------------

def test_dict_match_matches_brute(ray_session):
    from web_crawler_ray.stages.textstats import dict_match
    docs = ["the merge sort and merge join", "window window window",
            "", "no hits here at all", "sort of a sorted sort"]
    terms = ("merge", "sort", "window")
    t = pa.table({"text": pa.array(docs)})
    out = dict_match(rd.from_arrow(t).repartition(3), terms) \
        .to_pandas().set_index("term")
    for term in terms:
        occ = sum(d.count(term) for d in docs)
        nd = sum(term in d for d in docs)
        assert out.loc[term, "n_occ"] == occ
        assert out.loc[term, "n_docs"] == nd
    # "sort" must count substring hits inside "sorted" exactly once each
    assert out.loc["sort", "n_occ"] == 4


# --- hierarchy rollup --------------------------------------------------------

def _tree(n=60, seed=2):
    rng = np.random.default_rng(seed)
    k = np.arange(1, n + 1, dtype=np.int64)
    p = np.array([1 if x <= 1 else rng.integers(1, x) for x in k],
                 np.int64)
    v = rng.integers(-50, 100, n).astype(np.int64)
    return k, p, v


def _brute_rollup(k, p, v):
    sub = {int(x): 0 for x in k}
    cnt = {int(x): 0 for x in k}
    pi = {int(a): int(b) for a, b in zip(k, p)}
    for x, vv in zip(k, v):
        a = int(x)
        while True:
            sub[a] += int(vv)
            cnt[a] += 1
            if pi[a] == a:
                break
            a = pi[a]
    return sub, cnt


def test_tree_rollup_driver_matches_brute(ray_session):
    from web_crawler_ray.stages.graph import tree_rollup
    k, p, v = _tree()
    sub, cnt = _brute_rollup(k, p, v)
    t = pa.table({"node": pa.array(k), "parent": pa.array(p),
                  "cents": pa.array(v)})
    out = tree_rollup(rd.from_arrow(t), value_col="cents") \
        .to_pandas().sort_values("node").reset_index(drop=True)
    assert len(out) == len(k)
    for _, r in out.iterrows():
        assert sub[r["node"]] == r["subtree_sum"]
        assert cnt[r["node"]] == r["n_desc"]


def test_tree_rollup_distributed_equals_driver(ray_session):
    from web_crawler_ray.stages.graph import tree_rollup
    k, p, v = _tree(n=80, seed=7)
    t = pa.table({"node": pa.array(k), "parent": pa.array(p),
                  "cents": pa.array(v)})
    want = tree_rollup(rd.from_arrow(t), value_col="cents") \
        .to_pandas().sort_values("node").reset_index(drop=True)
    got = tree_rollup(rd.from_arrow(t).repartition(5),
                      value_col="cents", driver_limit=0,
                      num_partitions=4) \
        .to_pandas().sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        want, got[want.columns.tolist()], check_like=True)


def test_tree_rollup_deep_chain(ray_session):
    from web_crawler_ray.stages.graph import tree_rollup
    # path graph 1<-2<-...<-40: subtree_sum(i) = sum(v[i:]),
    # depth 39 needs ceil(log2 39)+1 = 7 doubling rounds
    n = 40
    k = np.arange(1, n + 1, dtype=np.int64)
    p = np.maximum(k - 1, 1)
    v = np.arange(n, dtype=np.int64) + 1
    t = pa.table({"node": pa.array(k), "parent": pa.array(p),
                  "cents": pa.array(v)})
    for dl in (10**6, 0):
        out = tree_rollup(rd.from_arrow(t), value_col="cents",
                          driver_limit=dl) \
            .to_pandas().sort_values("node").reset_index(drop=True)
        want_sub = [int(v[i - 1:].sum()) for i in k]
        assert out["subtree_sum"].tolist() == want_sub
        assert out["n_desc"].tolist() == [n - i + 1 for i in k]


# --- feature hashing ---------------------------------------------------------

def test_feature_hash_matches_brute(ray_session):
    import hashlib
    from web_crawler_ray.stages.textstats import feature_hash
    docs = ["merge sort merge", "window  join", "", "sort", "a b a b a"]
    t = pa.table({"doc_id": pa.array(np.arange(5, dtype=np.int64)),
                  "text": pa.array(docs)})
    out = feature_hash(rd.from_arrow(t).repartition(3), n_buckets=64) \
        .to_pandas()
    acc = {}
    for i, d in enumerate(docs):
        for tok in d.split(" "):
            if not tok:
                continue
            h = int.from_bytes(
                hashlib.md5(tok.encode()).digest()[8:], "little")
            key = (i, h % 64)
            s = 1 if (h >> 6) & 1 else -1
            w, n = acc.get(key, (0, 0))
            acc[key] = (w + s, n + 1)
    got = {(r["doc_id"], r["bucket"]): (r["w"], r["n_tok"])
           for _, r in out.iterrows()}
    assert got == acc


# --- random projection -------------------------------------------------------

def test_random_projection_exact_and_bounded(ray_session):
    import hashlib
    from web_crawler_ray.stages.similarity import random_projection
    rng = np.random.default_rng(4)
    n, d, kk = 20, 16, 8
    vecs = rng.normal(size=(n, d)).astype(np.float32)
    vecs[3] = 0.0  # all-zero vector quantizes to zeros
    t = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(list(vecs), pa.list_(pa.float32()))})
    out = random_projection(rd.from_arrow(t).repartition(4), k=kk) \
        .to_pandas()
    assert len(out) == n * kk
    assert (out[out["vec_id"] == 3]["y"] == 0).all()
    assert (out["y"].abs() <= d * 127).all()
    # brute one vector end-to-end
    x = vecs[0].astype(np.float64)
    ma = np.abs(x).max()
    sc = (x * 127.0) / ma
    q = (np.sign(sc) * np.floor(np.abs(sc) + 0.5)).astype(np.int64)
    for j in range(kk):
        y = 0
        for i in range(d):
            h = int.from_bytes(
                hashlib.md5(f"{i}:{j}".encode()).digest()[8:], "little")
            y += int(q[i]) if h & 1 else -int(q[i])
        got = out[(out["vec_id"] == 0) & (out["proj_idx"] == j)]
        assert got["y"].iloc[0] == y


# --- Bollinger bands ---------------------------------------------------------

def _events(n=400, n_users=7, seed=11):
    rng = np.random.default_rng(seed)
    ts = (np.int64(1_700_000_000_000_000)
          + rng.integers(0, 6 * 3_600_000_000, n))
    return pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "user_id": pa.array(rng.integers(0, n_users, n).astype(np.int64)),
        "event_type": pa.array(
            np.array(["click", "view", "buy"])[rng.integers(0, 3, n)]),
        "value": pa.array(np.round(rng.uniform(0.01, 120.0, n), 2)),
    })


def test_bollinger_matches_brute(ray_session):
    from web_crawler_ray.stages.windows import bollinger_bands
    t = _events(n=300, n_users=5, seed=21)
    df = t.to_pandas()
    df["t"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    df["c"] = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
    out = bollinger_bands(rd.from_arrow(t).repartition(4), window=8) \
        .to_pandas().set_index(["key", "order_id"])
    w = 8
    for uid, g in df.groupby("user_id"):
        g = g.sort_values(["t", "event_id"], kind="mergesort")
        c = g["c"].to_numpy()
        for i in range(len(g)):
            lo = max(0, i - w + 1)
            win = c[lo:i + 1]
            n = len(win)
            sx, sxx = int(win.sum()), int((win * win).sum())
            ma = float(sx) / float(n)
            sd = np.sqrt(float(n * sxx - sx * sx)) / float(n)
            row = out.loc[(uid, g["event_id"].iloc[i])]
            assert row["n_w"] == n
            assert row["ma"] == ma
            assert row["band_up"] == ma + 2.0 * sd
            assert row["band_dn"] == ma - 2.0 * sd


# --- CDC snapshot ------------------------------------------------------------

def test_cdc_apply_matches_brute(ray_session):
    from web_crawler_ray.stages.relational import cdc_apply
    rng = np.random.default_rng(13)
    n = 400
    t = pa.table({
        "key": pa.array(rng.integers(0, 40, n).astype(np.int64)),
        "ts_us": pa.array(rng.integers(0, 1000, n).astype(np.int64)),
        "seq": pa.array(np.arange(n, dtype=np.int64)),
        "op": pa.array(np.array(["U", "U", "D"])[
            rng.integers(0, 3, n)]),
        "cents": pa.array(rng.integers(-100, 100, n).astype(np.int64))})
    df = t.to_pandas()
    last = df.sort_values(["key", "ts_us", "seq"]).groupby("key").last()
    want = last[last["op"] != "D"][["cents", "ts_us"]]
    out = cdc_apply(rd.from_arrow(t).repartition(5)) \
        .to_pandas().set_index("key").sort_index()
    assert out["cents"].to_dict() == want["cents"].to_dict()
    assert out["ts_us"].to_dict() == want["ts_us"].to_dict()


# --- SAX / PAA ---------------------------------------------------------------

def test_sax_matches_brute(ray_session):
    from web_crawler_ray.stages.windows import sax_paa
    t = _events(n=250, n_users=4, seed=30)
    df = t.to_pandas()
    df["t"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    df["c"] = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
    bps = (2000, 4000, 6000, 8000)
    letters = "abcde"
    out = sax_paa(rd.from_arrow(t).repartition(3), seg_len=8,
                  breakpoints=bps).to_pandas() \
        .set_index(["key", "seg_idx"]).sort_index()
    for uid, g in df.groupby("user_id"):
        g = g.sort_values(["t", "event_id"], kind="mergesort")
        c = g["c"].to_numpy()
        for s in range(0, len(c), 8):
            win = c[s:s + 8]
            paa = float(win.sum()) / float(len(win))
            sym = letters[int(np.searchsorted(
                np.array(bps, float), paa, side="right"))]
            row = out.loc[(uid, s // 8)]
            assert row["n"] == len(win)
            assert row["paa"] == paa
            assert row["sym"] == sym


# --- k-center coreset --------------------------------------------------------

def _quant_int8(x):
    ma = np.abs(x).max(axis=1)
    safe = np.where(ma == 0, 1.0, ma)
    sc = (x * 127.0) / safe[:, None]
    q = (np.sign(sc) * np.floor(np.abs(sc) + 0.5)).astype(np.int64)
    q[ma == 0] = 0
    return q


def test_kcenter_matches_brute(ray_session):
    from web_crawler_ray.stages.clustering import kcenter_coreset
    rng = np.random.default_rng(8)
    n, d, kk = 60, 12, 6
    ids = rng.permutation(1000)[:n].astype(np.int64)
    x = rng.normal(size=(n, d)).astype(np.float32)
    t = pa.table({"vec_id": pa.array(ids),
                  "embedding": pa.array(list(x), pa.list_(pa.float32()))})
    out = kcenter_coreset(rd.from_arrow(t).repartition(4), k=kk) \
        .to_pandas()
    q = _quant_int8(x.astype(np.float64))
    order = np.argsort(ids)
    # brute greedy
    first = int(np.argmin(ids))
    chosen = [(0, int(ids[first]), 0)]
    dist = ((q - q[first]) ** 2).sum(axis=1)
    for t_round in range(1, kk):
        best = None
        for i in range(n):
            cand = (int(dist[i]), -int(ids[i]))
            if best is None or cand > best:
                best = cand
                bi = i
        chosen.append((t_round, int(ids[bi]), int(dist[bi])))
        nd = ((q - q[bi]) ** 2).sum(axis=1)
        dist = np.minimum(dist, nd)
    got = list(zip(out["order_idx"], out["vec_id"], out["radius"]))
    assert got == chosen
    # radii non-increasing after the seed row
    assert all(out["radius"].iloc[i] >= out["radius"].iloc[i + 1]
               for i in range(1, kk - 1))


# --- seasonal decomposition --------------------------------------------------

def test_seasonal_decompose_matches_brute(ray_session):
    from web_crawler_ray.stages.windows import seasonal_decompose
    t = _events(n=500, n_users=3, seed=40)
    out = seasonal_decompose(
        rd.from_arrow(t).repartition(4), key_col="event_type",
        half_window=2).to_pandas()
    df = t.to_pandas()
    df["t"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    df["c"] = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
    HOUR = 3_600_000_000
    df["h"] = (df["t"] // HOUR) * HOUR
    for key, g in df.groupby("event_type"):
        gg = g.groupby("h").agg(n=("c", "size"), sx=("c", "sum"))
        hours = gg.index.to_numpy()
        ns, sxs = gg["n"].to_numpy(), gg["sx"].to_numpy()
        y = sxs / ns
        trend = np.empty(len(hours))
        for i in range(len(hours)):
            lo, hi = max(0, i - 2), min(len(hours) - 1, i + 2)
            trend[i] = float(sxs[lo:hi + 1].sum()) \
                / float(ns[lo:hi + 1].sum())
        detr = y - trend
        hod = (hours // HOUR) % 24
        sub = out[out["key"] == key].set_index("hour_ts")
        assert len(sub) == len(hours)
        for i, h in enumerate(hours):
            row = sub.loc[h]
            assert row["y"] == y[i]
            assert row["trend"] == trend[i]
            # decomposition identity holds exactly:
            assert row["y"] - row["trend"] \
                == row["seasonal"] + row["resid"]
        # seasonal is constant per hour-of-day
        sh = sub.copy()
        sh["hod"] = (sh.index.to_numpy() // HOUR) % 24
        assert (sh.groupby("hod")["seasonal"].nunique() == 1).all()


# --- square counting ---------------------------------------------------------

def _brute_squares(src, dst):
    import itertools
    adj = {}
    es = set()
    for s, t in zip(src, dst):
        if s == t:
            continue
        a, b = min(s, t), max(s, t)
        if (a, b) in es:
            continue
        es.add((a, b))
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    total = 0
    npairs = 0
    nodes = sorted(adj)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            w = len(adj[u] & adj[v])
            if w >= 2:
                npairs += 1
                total += w * (w - 1) // 2
    return npairs, total // 2


def test_square_counts_matches_brute(ray_session):
    from web_crawler_ray.stages.graph import square_counts
    rng = np.random.default_rng(17)
    src = rng.integers(0, 25, 150).astype(np.int64)
    dst = rng.integers(0, 25, 150).astype(np.int64)
    npairs, squares = _brute_squares(src, dst)
    assert squares > 0
    t = pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    for nb, dl in ((1, 10**6), (5, 10**6), (5, 0)):
        out = square_counts(rd.from_arrow(t).repartition(nb),
                            driver_limit=dl,
                            num_partitions=4).to_pandas().iloc[0]
        assert out["n_diag_pairs"] == npairs
        assert out["squares"] == squares


def test_square_counts_known_shapes(ray_session):
    from web_crawler_ray.stages.graph import square_counts
    # C4 = 1 square; K4 = 3 squares; triangle = 0
    c4 = pa.table({"src": pa.array([1, 2, 3, 4], pa.int64()),
                   "dst": pa.array([2, 3, 4, 1], pa.int64())})
    assert square_counts(rd.from_arrow(c4)).to_pandas() \
        .iloc[0]["squares"] == 1
    k4s, k4d = zip(*[(a, b) for a in range(4) for b in range(a + 1, 4)])
    k4 = pa.table({"src": pa.array(list(k4s), pa.int64()),
                   "dst": pa.array(list(k4d), pa.int64())})
    assert square_counts(rd.from_arrow(k4)).to_pandas() \
        .iloc[0]["squares"] == 3
    tri = pa.table({"src": pa.array([1, 2, 3], pa.int64()),
                    "dst": pa.array([2, 3, 1], pa.int64())})
    assert square_counts(rd.from_arrow(tri)).to_pandas() \
        .iloc[0]["squares"] == 0


# --- bipartite check ---------------------------------------------------------

def test_bipartite_check_cycles(ray_session):
    from web_crawler_ray.stages.graph import bipartite_check

    def cycle(base, L):
        return [(base + i, base + (i + 1) % L) for i in range(L)]

    edges = cycle(0, 4) + cycle(10, 5) + cycle(20, 6) + cycle(30, 3)
    src = np.array([e[0] for e in edges], np.int64)
    dst = np.array([e[1] for e in edges], np.int64)
    t = pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    for dl in (10**6, 0):
        out = bipartite_check(rd.from_arrow(t).repartition(3),
                              driver_limit=dl, num_partitions=4) \
            .to_pandas().set_index("component").sort_index()
        assert out.loc[0]["is_bipartite"] == 1   # C4
        assert out.loc[10]["is_bipartite"] == 0  # C5
        assert out.loc[20]["is_bipartite"] == 1  # C6
        assert out.loc[30]["is_bipartite"] == 0  # C3
        assert out["n_nodes"].tolist() == [4, 5, 6, 3]


def test_bipartite_check_path_and_star(ray_session):
    from web_crawler_ray.stages.graph import bipartite_check
    # trees are always bipartite
    src = np.array([1, 2, 3, 10, 10, 10], np.int64)
    dst = np.array([2, 3, 4, 11, 12, 13], np.int64)
    t = pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    out = bipartite_check(rd.from_arrow(t)).to_pandas()
    assert (out["is_bipartite"] == 1).all()
    assert sorted(out["n_nodes"].tolist()) == [4, 4]


# --- Gram matrix -------------------------------------------------------------

def test_gram_matrix_matches_brute(ray_session):
    from web_crawler_ray.stages.similarity import gram_matrix
    rng = np.random.default_rng(23)
    n, d = 40, 10
    x = rng.normal(size=(n, d)).astype(np.float32)
    x[5] = 0.0
    t = pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                  "embedding": pa.array(list(x), pa.list_(pa.float32()))})
    out = gram_matrix(rd.from_arrow(t).repartition(4)).to_pandas()
    q = _quant_int8(x.astype(np.float64))
    G = q.T @ q
    assert len(out) == d * (d + 1) // 2
    for _, r in out.iterrows():
        assert G[r["dim_i"], r["dim_j"]] == r["g"]
    # partition invariance (pure integer combiner)
    out2 = gram_matrix(rd.from_arrow(t).repartition(1)).to_pandas()
    pd.testing.assert_frame_equal(out, out2)


# --- decision-tree scoring ---------------------------------------------------

def test_decision_tree_score_matches_brute(ray_session):
    from web_crawler_ray.stages.classify import decision_tree_score
    tree = {"feat": "a", "thr": 5,
            "lo": {"leaf": 1},
            "hi": {"feat": "b", "thr": 0,
                   "lo": {"leaf": 2}, "hi": {"leaf": 3}}}
    a = np.array([0, 5, 9, 4, 6], np.int64)
    b = np.array([-1, -1, 1, 1, 0], np.int64)
    t = pa.table({"a": pa.array(a), "b": pa.array(b)})

    def feats(tb):
        return {"a": tb.column("a").to_numpy(zero_copy_only=False),
                "b": tb.column("b").to_numpy(zero_copy_only=False)}

    out = decision_tree_score(rd.from_arrow(t).repartition(2),
                              tree, feats).to_pandas()
    want = []
    for ai, bi in zip(a, b):
        if ai < 5:
            want.append(1)
        elif bi < 0:
            want.append(2)
        else:
            want.append(3)
    assert sorted(zip(out["a"], out["score"])) \
        == sorted(zip(a.tolist(), want))


# --- kNN distance outliers ---------------------------------------------------

def test_knn_dist_outliers_matches_brute(ray_session):
    from web_crawler_ray.stages.similarity import knn_dist_outliers
    rng = np.random.default_rng(9)
    n, d, k = 30, 8, 4
    x = rng.normal(size=(n, d)).astype(np.float32)
    t = pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                  "embedding": pa.array(list(x), pa.list_(pa.float32()))})
    out = knn_dist_outliers(rd.from_arrow(t).repartition(3), k=k) \
        .to_pandas().set_index("vec_id").sort_index()
    q = _quant_int8(x.astype(np.float64))
    for i in range(n):
        d2 = ((q - q[i]) ** 2).sum(axis=1)
        d2[i] = 2**62
        want = np.sort(d2)[k - 1]
        assert out.loc[i, "d_k"] == want


def test_knn_dist_outliers_planted(ray_session):
    from web_crawler_ray.stages.similarity import knn_dist_outliers
    # a far-away point must have the largest d_k
    rng = np.random.default_rng(2)
    x = rng.normal(0, 0.05, size=(20, 6)).astype(np.float32)
    x[7] = 50.0
    t = pa.table({"vec_id": pa.array(np.arange(20, dtype=np.int64)),
                  "embedding": pa.array(list(x), pa.list_(pa.float32()))})
    out = knn_dist_outliers(rd.from_arrow(t), k=3).to_pandas()
    assert out.loc[out["d_k"].idxmax(), "vec_id"] == 7


# --- consistent hashing ------------------------------------------------------

def test_consistent_hash_matches_brute_and_is_stable(ray_session):
    import hashlib
    from web_crawler_ray.stages.relational import consistent_hash_assign
    MASK = (1 << 63) - 1
    ring = []
    for i in range(8):
        for r in range(16):
            h = int.from_bytes(hashlib.md5(
                f"s{i}:{r}".encode()).digest()[8:], "little") & MASK
            ring.append((h, f"s{i}"))
    ring.sort()
    keys = np.arange(1, 200, dtype=np.int64)
    t = pa.table({"c_custkey": pa.array(keys)})
    out = consistent_hash_assign(rd.from_arrow(t).repartition(3),
                                 "c_custkey").to_pandas() \
        .set_index("c_custkey")
    for kk in keys:
        h = int.from_bytes(hashlib.md5(
            str(int(kk)).encode()).digest()[8:], "little") & MASK
        match = next((s for p, s in ring if p >= h), ring[0][1])
        assert out.loc[kk, "server"] == match
    # every server owns some keys at n=199 (sanity of spread)
    assert out["server"].nunique() >= 6


# --- LOF ---------------------------------------------------------------------

def _brute_lof(q, k):
    n = len(q)
    d = ((q[:, None, :] - q[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d, 2**62)
    dk = np.sort(d, axis=1)[:, k - 1]
    nbrs = [np.flatnonzero(d[i] <= dk[i]) for i in range(n)]
    lrd = np.empty(n)
    for i in range(n):
        sr = sum(int(max(dk[j], d[i, j])) for j in nbrs[i])
        lrd[i] = float(len(nbrs[i])) / float(sr)
    lof = np.empty(n)
    for i in range(n):
        acc = 0.0
        for j in sorted(nbrs[i]):
            acc = acc + lrd[j]
        lof[i] = (acc / float(len(nbrs[i]))) / lrd[i]
    return [len(x) for x in nbrs], lof


def test_lof_matches_brute(ray_session):
    from web_crawler_ray.stages.similarity import lof_outliers
    rng = np.random.default_rng(12)
    n, d, k = 40, 6, 4
    x = rng.normal(size=(n, d)).astype(np.float32)
    x[11] = 30.0  # planted outlier
    t = pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                  "embedding": pa.array(list(x), pa.list_(pa.float32()))})
    out = lof_outliers(rd.from_arrow(t).repartition(3), k=k) \
        .to_pandas().set_index("vec_id").sort_index()
    q = _quant_int8(x.astype(np.float64))
    nns, lof = _brute_lof(q, k)
    for i in range(n):
        assert out.loc[i, "n_neighbors"] == nns[i]
        assert out.loc[i, "lof"] == lof[i]  # bit-exact fold parity
    # the planted point is the strongest outlier
    assert out["lof"].idxmax() == 11
    # int8 quantization is per-vector scale-invariant, so the planted
    # point's LOF is modest — but still the maximum and > 1
    assert out.loc[11, "lof"] > 1.2


# --- CUPED -------------------------------------------------------------------

def test_cuped_matches_brute(ray_session):
    from web_crawler_ray.stages.aggregates import cuped_adjust
    t = _events(n=600, n_users=9, seed=50)
    cutoff = int(np.int64(1_700_000_000_000_000) + 3 * 3_600_000_000)
    out = cuped_adjust(rd.from_arrow(t).repartition(4),
                       cutoff_us=cutoff).to_pandas() \
        .set_index("user_id").sort_index()
    df = t.to_pandas()
    df["t"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    df["c"] = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
    g = df.groupby("user_id").apply(
        lambda s: pd.Series({
            "x": int(s.loc[s["t"] < cutoff, "c"].sum()),
            "y": int(s.loc[s["t"] >= cutoff, "c"].sum())}),
        include_groups=False)
    x = g["x"].to_numpy(np.int64)
    y = g["y"].to_numpy(np.int64)
    n = len(g)
    sx, sy = int(x.sum()), int(y.sum())
    sxx, sxy = int((x * x).sum()), int((x * y).sum())
    theta = float(n * sxy - sx * sy) / float(n * sxx - sx * sx)
    xbar = float(sx) / float(n)
    for uid, xi, yi in zip(g.index, x, y):
        row = out.loc[uid]
        assert row["x_cents"] == xi and row["y_cents"] == yi
        assert row["y_adj"] == float(yi) - theta * (float(xi) - xbar)
    # variance reduction actually happened (cov(x,y) != 0 here)
    yv = y - y.mean()
    ya = out["y_adj"].to_numpy() - out["y_adj"].to_numpy().mean()
    assert (ya ** 2).sum() <= (yv ** 2).sum()


# --- Kaplan-Meier ------------------------------------------------------------

def test_kaplan_meier_matches_brute(ray_session):
    from web_crawler_ray.stages.windows import kaplan_meier
    rng = np.random.default_rng(31)
    n = 500
    ts = (np.int64(1_700_000_000_000_000)
          + rng.integers(0, 10 * 3_600_000_000, n))
    t = pa.table({
        "user_id": pa.array(rng.integers(0, 40, n).astype(np.int64)),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "event_type": pa.array(
            np.array(["click", "view", "error"])[rng.integers(0, 3, n)]),
    })
    out = kaplan_meier(rd.from_arrow(t).repartition(4)).to_pandas()
    df = t.to_pandas()
    df["t"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    durs = {}
    for uid, g in df.groupby("user_id"):
        t0 = g["t"].min()
        errs = g[(g["event_type"] == "error") & (g["t"] > t0)]
        if len(errs):
            durs[uid] = (int(errs["t"].min() - t0), 1)
        else:
            durs[uid] = (int(g["t"].max() - t0), 0)
    for grp in (0, 1):
        dd = np.array([d for u, (d, e) in durs.items()
                       if u % 2 == grp])
        ee = np.array([e for u, (d, e) in durs.items()
                       if u % 2 == grp])
        sub = out[out["grp"] == grp].reset_index(drop=True)
        s = 1.0
        i = 0
        for ft in np.unique(dd[ee == 1]):
            n_risk = int((dd >= ft).sum())
            d_i = int(((dd == ft) & (ee == 1)).sum())
            s = s * (float(n_risk - d_i) / float(n_risk))
            row = sub.iloc[i]
            assert row["duration_us"] == ft
            assert row["n_risk"] == n_risk
            assert row["n_events"] == d_i
            assert row["survival"] == s
            i += 1
        assert i == len(sub)
        # survival is non-increasing
        assert (np.diff(sub["survival"].to_numpy()) <= 0).all()


# --- DiD ---------------------------------------------------------------------

def test_did_matches_brute(ray_session):
    from web_crawler_ray.stages.aggregates import did_estimate
    t = _events(n=700, n_users=8, seed=60)
    cutoff = int(np.int64(1_700_000_000_000_000) + 3 * 3_600_000_000)
    out = did_estimate(rd.from_arrow(t).repartition(3),
                       cutoff_us=cutoff).to_pandas().iloc[0]
    df = t.to_pandas()
    df["t"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    df["c"] = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
    m = {}
    for trt in (0, 1):
        for post in (0, 1):
            sel = df[(df["user_id"] % 2 == trt)
                     & ((df["t"] >= cutoff) == bool(post))]
            m[(trt, post)] = float(sel["c"].sum()) / float(len(sel))
    assert out["m_c_pre"] == m[(0, 0)]
    assert out["m_t_post"] == m[(1, 1)]
    assert out["did"] == (m[(1, 1)] - m[(1, 0)]) \
        - (m[(0, 1)] - m[(0, 0)])


# --- partition skew ----------------------------------------------------------

def test_partition_skew_counts(ray_session):
    import hashlib
    from web_crawler_ray.stages.relational import partition_skew
    keys = np.concatenate((np.arange(1, 300),
                           np.full(500, 7))).astype(np.int64)
    t = pa.table({"k": pa.array(keys)})
    out = partition_skew(rd.from_arrow(t).repartition(4), "k",
                         n_partitions=16).to_pandas() \
        .set_index("partition_id")
    acc = {}
    for kk in keys:
        h = int.from_bytes(hashlib.md5(
            str(int(kk)).encode()).digest()[8:], "little") & ((1 << 63) - 1)
        acc[h % 16] = acc.get(h % 16, 0) + 1
    assert out["n_rows"].to_dict() == acc
    assert out["n_rows"].sum() == len(keys)
    # the hot key shows up as visible skew
    assert out["n_rows"].max() >= 500


# --- diameter double sweep ---------------------------------------------------

def test_diameter_sweep_path_and_random(ray_session):
    from web_crawler_ray.stages.graph import diameter_sweep

    def und(src, dst):
        s = np.asarray(src + dst, np.int64)
        d = np.asarray(dst + src, np.int64)
        return pa.table({"src": pa.array(s), "dst": pa.array(d)})

    # path 0-1-2-3-4-5: diameter 5, exact for double sweep
    t = und([0, 1, 2, 3, 4], [1, 2, 3, 4, 5])
    out = diameter_sweep(rd.from_arrow(t)).to_pandas().iloc[0]
    assert out["start_node"] == 0
    assert out["ecc_start"] == 5 and out["far_node"] == 5
    assert out["diameter_lb"] == 5 and out["end_node"] == 0
    # random connected graph: diameter_lb <= true diameter,
    # >= ecc(start)
    rng = np.random.default_rng(14)
    src = list(range(29)) + rng.integers(0, 30, 20).tolist()
    dst = list(range(1, 30)) + rng.integers(0, 30, 20).tolist()
    t2 = und([int(x) for x in src], [int(x) for x in dst])
    out2 = diameter_sweep(rd.from_arrow(t2)).to_pandas().iloc[0]
    import collections
    adj = collections.defaultdict(set)
    for a, b in zip(src, dst):
        adj[a].add(b)
        adj[b].add(a)

    def bfs_ecc(s):
        h = {s: 0}
        q = [s]
        while q:
            nq = []
            for x in q:
                for y in adj[x]:
                    if y not in h:
                        h[y] = h[x] + 1
                        nq.append(y)
            q = nq
        return h

    true_diam = max(max(bfs_ecc(s).values()) for s in adj)
    assert out2["ecc_start"] <= out2["diameter_lb"] <= true_diam


# --- video scene detection ---------------------------------------------------

def test_video_scenes_recovers_planting(ray_session):
    from web_crawler_ray.stages import multimodal as M
    refs = [f"vid://{i}" for i in range(12)]
    tbl = M.synth_y4m_table_scenes(refs)
    out = M.VideoSceneStage(thresh_per_px=30)(tbl).to_pandas()
    # brute: recompute SAD cuts straight from the decoded frames
    for ref, payload in zip(tbl.column("media_ref").to_pylist(),
                            tbl.column("payload").to_pylist()):
        frames, _ = M.decode_y4m(payload)
        y = frames[:, :, :, 0].astype(np.int64)
        sad = np.abs(y[1:] - y[:-1]).sum(axis=(1, 2))
        want = (np.flatnonzero(
            sad > 30 * y.shape[1] * y.shape[2]) + 1).tolist()
        got = sorted(out[(out["media_ref"] == ref)
                         & (out["cut_idx"] >= 0)]["cut_idx"])
        assert got == want
        sent = out[(out["media_ref"] == ref) & (out["cut_idx"] == -1)]
        assert sent["sad"].iloc[0] == len(frames)
    # planting worked: at least one stream has >= 1 cut
    assert (out["cut_idx"] >= 0).sum() > 0


# --- audio fingerprinting ----------------------------------------------------

def test_audio_fingerprint_planted_tones(ray_session):
    from web_crawler_ray.stages import multimodal as M
    rate, F = 16000, 256
    # two pure tones, switched halfway: peak bins must follow
    bin1, bin2 = 20, 50
    f1 = bin1 * rate / F
    f2 = bin2 * rate / F
    tt = np.arange(4096) / rate
    x = np.concatenate((
        (10000 * np.sin(2 * np.pi * f1 * tt[:2048])),
        (10000 * np.sin(2 * np.pi * f2 * tt[:2048])))).astype(np.int16)
    payload = M.encode_wav(x, rate=rate)
    tbl = pa.table({"media_ref": pa.array(["a"], pa.string()),
                    "payload": pa.array([payload], pa.large_binary())})
    out = M.AudioFingerprintStage(frame=F, hop=128)(tbl).to_pandas()
    hashes = out["fp_hash"].to_numpy()
    # steady-state landmarks are (bin, bin) pairs of the active tone
    assert (hashes == bin1 * 4096 + bin1).sum() > 5
    assert (hashes == bin2 * 4096 + bin2).sum() > 5
    # determinism
    out2 = M.AudioFingerprintStage(frame=F, hop=128)(tbl).to_pandas()
    assert (out2["fp_hash"].to_numpy() == hashes).all()


# --- bitmap index ------------------------------------------------------------

def test_bitmap_index_matches_brute(ray_session):
    from web_crawler_ray.stages.relational import bitmap_index
    rng = np.random.default_rng(44)
    keys = rng.permutation(400)[:300].astype(np.int64)
    vals = np.array(["A", "B", "C"])[rng.integers(0, 3, 300)]
    t = pa.table({"v": pa.array(vals), "k": pa.array(keys)})
    out = bitmap_index(rd.from_arrow(t).repartition(4), "v", "k") \
        .to_pandas()
    acc = {}
    for v, k in zip(vals, keys):
        cell = (v, int(k) // 63)
        acc[cell] = acc.get(cell, 0) | (1 << (int(k) % 63))
    got = {(r["value"], r["chunk"]): r["bits"]
           for _, r in out.iterrows()}
    assert got == acc
    # popcounts reconstruct exact per-value distinct counts
    for v in "ABC":
        n = out[out["value"] == v]["n_set"].sum()
        assert n == (vals == v).sum()  # keys are distinct here


# --- Benford audit -----------------------------------------------------------

def test_benford_audit_matches_brute(ray_session):
    from web_crawler_ray.stages.aggregates import (BENFORD_P,
                                                   benford_audit)
    rng = np.random.default_rng(3)
    # log-uniform values follow Benford closely
    # an INTEGER number of decades makes the log-uniform Benford-exact
    v = np.exp(rng.uniform(0, 4 * np.log(10.0), 4000))
    t = pa.table({"x": pa.array(np.round(v, 2))})
    out = benford_audit(rd.from_arrow(t).repartition(4), "x") \
        .to_pandas()
    cents = np.rint(np.round(v, 2) * 100).astype(np.int64)
    cents = cents[cents > 0]
    digs = np.array([int(str(c)[0]) for c in cents])
    total = len(digs)
    chi2 = 0.0
    for i in range(9):
        n_obs = int((digs == i + 1).sum())
        assert out.iloc[i]["n_obs"] == n_obs
        e = float(total) * BENFORD_P[i]
        assert out.iloc[i]["expected"] == e
        dd = float(n_obs) - e
        chi2 = chi2 + dd * dd / e
    assert out.iloc[0]["chi2"] == chi2
    # log-uniform data should LOOK Benford: chi2 below gross misfit
    assert chi2 < 30.0


# --- golden record -----------------------------------------------------------

def test_golden_record_survivorship(ray_session):
    from web_crawler_ray.stages.relational import golden_record
    # key 1: high-priority row has NULL note -> note survives from a
    # lower-priority row; cents survives from the high-priority row
    t = pa.table({
        "k": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "prio": pa.array([1, 2, 3, 1, 1], pa.int64()),
        "ts_us": pa.array([10, 50, 99, 5, 9], pa.int64()),
        "seq": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "f_cents": pa.array([100, 200, 300, 400, 500], pa.int64()),
        "f_note": pa.array([None, "b", "c", None, "e"], pa.string()),
    })
    out = golden_record(rd.from_arrow(t).repartition(3), "k", "prio",
                        "ts_us", "seq", ["f_cents", "f_note"]) \
        .to_pandas().set_index("k").sort_index()
    assert out.loc[1, "f_cents"] == 100   # best priority
    assert out.loc[1, "f_note"] == "b"    # first non-null in order
    # key 2: same priority -> later ts wins
    assert out.loc[2, "f_cents"] == 500
    assert out.loc[2, "f_note"] == "e"
    assert out["n_rows"].tolist() == [3, 2]


# --- Shapley channel attribution ---------------------------------------------

def test_shapley_matches_brute_and_efficiency(ray_session):
    import itertools
    import math
    from web_crawler_ray.stages.aggregates import shapley_channels
    rng = np.random.default_rng(77)
    n_ev = 900
    t = pa.table({
        "user_id": pa.array(rng.integers(0, 60, n_ev).astype(np.int64)),
        "event_type": pa.array(np.array(
            ["click", "error", "signup", "view", "purchase"])[
                rng.integers(0, 5, n_ev)])})
    out = shapley_channels(rd.from_arrow(t).repartition(4)) \
        .to_pandas().set_index("channel")
    chan = ["click", "error", "signup", "view"]
    df = t.to_pandas()
    masks = {}
    for uid, g in df.groupby("user_id"):
        if (g["event_type"] == "purchase").any():
            m = 0
            for i, c in enumerate(chan):
                if (g["event_type"] == c).any():
                    m |= 1 << i
            masks[uid] = m

    def v(S):
        return sum((m & S) == m for m in masks.values())

    # brute Shapley via permutations
    phi = {c: 0.0 for c in chan}
    for perm in itertools.permutations(range(4)):
        S = 0
        for c in perm:
            phi[chan[c]] += v(S | (1 << c)) - v(S)
            S |= 1 << c
    for c in chan:
        phi[c] /= math.factorial(4)
        assert out.loc[c, "phi"] == phi[c]
    # efficiency: sum of numerators == 24 * (v(N) - v({}))
    assert out["numer"].sum() == 24 * (v(15) - v(0))


# --- RANSAC line fit ---------------------------------------------------------

def test_ransac_recovers_planted_line(ray_session):
    from web_crawler_ray.stages.aggregates import ransac_line
    rng = np.random.default_rng(21)
    n = 300
    x = np.arange(n, dtype=np.int64)
    y = 7 * x + 100  # planted line
    noise = rng.integers(0, n, 80)
    y = y.copy()
    y[noise] += rng.integers(3000, 50000, 80)  # outliers way off
    t = pa.table({"id": pa.array(x), "x": pa.array(x),
                  "y": pa.array(y.astype(np.int64))})
    out = ransac_line(rd.from_arrow(t).repartition(3), "id", "x", "y",
                      n_sample=8, tol=10).to_pandas().iloc[0]
    # the winning candidate lies on the planted line: slope 7 exactly
    assert out["dy"] == 7 * out["dx"]
    assert out["slope"] == 7.0
    assert out["n_inliers"] >= n - 80 - 8


def test_ransac_tie_and_count_brute(ray_session):
    from web_crawler_ray.stages.aggregates import ransac_line
    rng = np.random.default_rng(5)
    x = rng.integers(0, 50, 120).astype(np.int64)
    y = rng.integers(0, 10000, 120).astype(np.int64)
    ids = np.arange(120, dtype=np.int64)
    t = pa.table({"id": pa.array(ids), "x": pa.array(x),
                  "y": pa.array(y)})
    tol = 1500
    out = ransac_line(rd.from_arrow(t), "id", "x", "y",
                      n_sample=6, tol=tol).to_pandas().iloc[0]
    # brute over the same candidate set
    order = np.argsort(ids)[:6]
    best = None
    for a in range(6):
        for b in range(a + 1, 6):
            ia, ib = order[a], order[b]
            if x[ia] == x[ib]:
                continue
            lhs = np.abs((y - y[ia]) * (x[ib] - x[ia])
                         - (y[ib] - y[ia]) * (x - x[ia]))
            n_in = int((lhs <= tol * abs(x[ib] - x[ia])).sum())
            cand = (-n_in, int(ids[ia]), int(ids[ib]))
            if best is None or cand < best:
                best = cand
    assert out["n_inliers"] == -best[0]
    assert out["i_key"] == best[1] and out["j_key"] == best[2]


# --- Viterbi -----------------------------------------------------------------

def test_viterbi_matches_brute(ray_session):
    from web_crawler_ray.stages.windows import (VITERBI_EMIT,
                                                VITERBI_TRANS,
                                                viterbi_sessions)
    t = _events(n=400, n_users=6, seed=70)
    # _events uses types click/view/buy: remap buy -> purchase
    et = ["purchase" if x == "buy" else x
          for x in t.column("event_type").to_pylist()]
    t = t.set_column(3, "event_type", pa.array(et))
    out = viterbi_sessions(rd.from_arrow(t).repartition(4)) \
        .to_pandas().set_index("key").sort_index()
    df = t.to_pandas()
    df["t"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    (t00, t01), (t10, t11) = VITERBI_TRANS
    for uid, g in df.groupby("user_id"):
        g = g.sort_values(["t", "event_id"], kind="mergesort")
        seq = g["event_type"].tolist()
        c0, c1 = VITERBI_EMIT[seq[0]][0], VITERBI_EMIT[seq[0]][1]
        for s in seq[1:]:
            e0, e1 = VITERBI_EMIT[s]
            c0, c1 = (e0 + min(c0 + t00, c1 + t10),
                      e1 + min(c0 + t01, c1 + t11))
        row = out.loc[uid]
        assert row["n_events"] == len(seq)
        assert row["cost_0"] == c0 and row["cost_1"] == c1
        assert row["best_cost"] == min(c0, c1)
        assert row["best_state"] == (1 if c1 < c0 else 0)


# --- WKT polygon area --------------------------------------------------------

def test_wkt_area_known_shapes(ray_session):
    from web_crawler_ray.stages.extract import wkt_polygon_area_batch
    t = pa.table({
        "poly_id": pa.array([1, 2, 3], pa.int64()),
        "wkt": pa.array([
            "POLYGON((0 0, 4 0, 4 3, 0 3, 0 0))",    # 4x3 rect, CCW
            "POLYGON((0 0, 0 3, 4 3, 4 0, 0 0))",    # same, CW
            "POLYGON((0 0, 2 0, 1 2, 0 0))",         # triangle area 2
        ])})
    out = wkt_polygon_area_batch(t).to_pandas().set_index("poly_id")
    assert out.loc[1, "area2"] == 24 and out.loc[1, "n_vertices"] == 4
    assert out.loc[2, "area2"] == -24                # signed
    assert out.loc[3, "area2"] == 4
    # unclosed ring (no repeated first vertex) also works
    t2 = pa.table({"poly_id": pa.array([9], pa.int64()),
                   "wkt": pa.array(["POLYGON((0 0, 4 0, 4 3, 0 3))"])})
    out2 = wkt_polygon_area_batch(t2).to_pandas().iloc[0]
    assert out2["area2"] == 24 and out2["n_vertices"] == 4
    # negative coordinates parse
    t3 = pa.table({"poly_id": pa.array([5], pa.int64()),
                   "wkt": pa.array(
                       ["POLYGON((-2 -2, 2 -2, 2 2, -2 2, -2 -2))"])})
    assert wkt_polygon_area_batch(t3).to_pandas().iloc[0]["area2"] == 32


# --- point in polygon --------------------------------------------------------

def test_point_in_polygon_known_shapes(ray_session):
    from web_crawler_ray.stages.extract import point_in_polygons_batch
    square = (1, [(0, 0), (10, 0), (10, 10), (0, 10)])
    tri = (2, [(20, 0), (30, 0), (25, 10)])
    concave = (3, [(0, 20), (10, 20), (10, 30), (5, 22), (0, 30)])
    pts = pa.table({
        "pt_id": pa.array(np.arange(7, dtype=np.int64)),
        "x": pa.array(np.array([5, 15, 25, 28, 5, 5, 2], np.int64)),
        "y": pa.array(np.array([5, 5, 3, 9, 29, 21, 25], np.int64))})
    out = point_in_polygons_batch(pts, [square, tri, concave]) \
        .to_pandas()
    got = set(zip(out["pt_id"], out["poly_id"]))
    assert (0, 1) in got          # inside square
    assert (1, 1) not in got      # right of square
    assert (2, 2) in got          # inside triangle
    assert (3, 2) not in got      # outside the right slanted edge
    assert (4, 3) not in got      # inside the concave notch
    assert (5, 3) in got          # in the solid part
    assert (6, 3) in got          # left lobe of the concave shape


def test_point_in_polygon_matches_mpl_if_available(ray_session):
    from web_crawler_ray.stages.extract import point_in_polygons_batch
    try:
        from matplotlib.path import Path
    except ImportError:
        import pytest
        pytest.skip("matplotlib not installed")
    rng = np.random.default_rng(33)
    ring = [(int(x), int(y)) for x, y in
            rng.integers(-40, 40, (7, 2))]
    px = rng.integers(-50, 50, 200).astype(np.int64)
    py = rng.integers(-50, 50, 200).astype(np.int64)
    pts = pa.table({"pt_id": pa.array(np.arange(200, dtype=np.int64)),
                    "x": pa.array(px), "y": pa.array(py)})
    out = point_in_polygons_batch(pts, [(1, ring)]).to_pandas()
    got = set(out["pt_id"])
    path = Path(np.array(ring + [ring[0]], float))
    want = {i for i in range(200)
            if path.contains_point((float(px[i]), float(py[i])))}
    # boundary-point conventions may differ; interior points agree
    diff = got.symmetric_difference(want)
    assert len(diff) <= 3


# --- bandit replay -----------------------------------------------------------

def _brute_bandit(rows):
    """rows: ordered (arm in 1..3 or 0, is_reward). Returns
    (n_logged, matched, reward_sum) replaying the greedy policy."""
    r = [rows[i + 1][1] if i + 1 < len(rows) else 0
         for i in range(len(rows))]
    seq = [(a, rr) for (a, _), rr in zip(rows, r) if a > 0]
    n = [0, 0, 0]
    s = [0, 0, 0]
    matched = rew = 0
    for a, rr in seq:
        pick = None
        for j in range(3):
            if n[j] == 0:
                pick = j
                break
        if pick is None:
            if s[0] * n[1] >= s[1] * n[0] and s[0] * n[2] >= s[2] * n[0]:
                pick = 0
            elif s[1] * n[2] >= s[2] * n[1]:
                pick = 1
            else:
                pick = 2
        if pick == a - 1:
            matched += 1
            rew += rr
            n[pick] += 1
            s[pick] += rr
    return len(seq), matched, rew


def test_bandit_replay_matches_brute(ray_session):
    from web_crawler_ray.stages.windows import bandit_replay
    rng = np.random.default_rng(91)
    n_ev = 800
    t = pa.table({
        "user_id": pa.array(rng.integers(0, 12, n_ev).astype(np.int64)),
        "ts": pa.array((np.int64(1_700_000_000_000_000)
                        + rng.integers(0, 10**9, n_ev))
                       .astype("datetime64[us]")),
        "event_id": pa.array(np.arange(n_ev, dtype=np.int64)),
        "event_type": pa.array(np.array(
            ["click", "view", "signup", "purchase", "error"])[
                rng.integers(0, 5, n_ev)])})
    out = bandit_replay(rd.from_arrow(t).repartition(4)) \
        .to_pandas().set_index("key").sort_index()
    df = t.to_pandas()
    df["t"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    amap = {"click": 1, "view": 2, "signup": 3}
    for uid, g in df.groupby("user_id"):
        g = g.sort_values(["t", "event_id"], kind="mergesort")
        rows = [(amap.get(x, 0), 1 if x == "purchase" else 0)
                for x in g["event_type"]]
        nl, m, rr = _brute_bandit(rows)
        if nl == 0:
            assert uid not in out.index
            continue
        row = out.loc[uid]
        assert row["n_logged"] == nl
        assert row["matched"] == m
        assert row["reward_sum"] == rr


# --- runs test ---------------------------------------------------------------

def test_runs_test_matches_brute(ray_session):
    from web_crawler_ray.stages.windows import runs_test
    t = _events(n=300, n_users=5, seed=80)
    out = runs_test(rd.from_arrow(t).repartition(3)).to_pandas() \
        .set_index("key").sort_index()
    df = t.to_pandas()
    df["t"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    df["c"] = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
    for uid, g in df.groupby("user_id"):
        g = g.sort_values(["t", "event_id"], kind="mergesort")
        c = g["c"].to_numpy()
        med = np.sort(c)[-(-len(c) // 2) - 1]
        sign = c[c != med] > med
        row = out.loc[uid]
        assert row["n_above"] == sign.sum()
        assert row["n_below"] == len(sign) - sign.sum()
        want_runs = 1 + int((sign[1:] != sign[:-1]).sum()) \
            if len(sign) else 0
        assert row["n_runs"] == want_runs


def test_runs_test_alternating_and_blocked(ray_session):
    from web_crawler_ray.stages.windows import runs_test
    # user 1 alternates low/high around a 4-value spread; user 2 is
    # blocked. Expectations computed by the same brute rule.
    vals = [1.0, 8.0, 2.0, 9.0] * 5 + [1.0] * 10 + [9.0] * 10
    uid = [1] * 20 + [2] * 20
    t = pa.table({
        "user_id": pa.array(np.array(uid, np.int64)),
        "ts": pa.array((np.int64(1_700_000_000_000_000)
                        + np.arange(40) * 1_000_000)
                       .astype("datetime64[us]")),
        "event_id": pa.array(np.arange(40, dtype=np.int64)),
        "value": pa.array(np.array(vals))})
    out = runs_test(rd.from_arrow(t)).to_pandas().set_index("key")

    def brute(c):
        c = np.asarray(c, np.int64)
        med = np.sort(c)[-(-len(c) // 2) - 1]
        sign = c[c != med] > med
        runs = 1 + int((sign[1:] != sign[:-1]).sum()) if len(sign) \
            else 0
        return int(sign.sum()), int(len(sign) - sign.sum()), runs

    c1 = np.rint(np.array(vals[:20]) * 100).astype(np.int64)
    c2 = np.rint(np.array(vals[20:]) * 100).astype(np.int64)
    for uid_, cc in ((1, c1), (2, c2)):
        na, nb, nr = brute(cc)
        assert out.loc[uid_, "n_above"] == na
        assert out.loc[uid_, "n_below"] == nb
        assert out.loc[uid_, "n_runs"] == nr
    # the alternating user has strictly more runs than the blocked one
    assert out.loc[1, "n_runs"] > out.loc[2, "n_runs"]


# --- Tukey fences ------------------------------------------------------------

def test_tukey_outliers_matches_brute(ray_session):
    from web_crawler_ray.stages.aggregates import tukey_outliers
    rng = np.random.default_rng(19)
    n = 600
    t = pa.table({
        "g": pa.array(np.array(["A", "B"])[rng.integers(0, 2, n)]),
        "value": pa.array(np.concatenate((
            np.round(rng.normal(50, 5, n - 10), 2),
            np.round(rng.uniform(200, 400, 10), 2))))})
    out = tukey_outliers(rd.from_arrow(t).repartition(4), "g",
                         "value").to_pandas().set_index("key")
    df = t.to_pandas()
    df["c"] = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
    for g, gg in df.groupby("g"):
        c = np.sort(gg["c"].to_numpy())
        nn = len(c)
        q1 = int(c[-(-nn // 4) - 1])
        q3 = int(c[-(-(3 * nn) // 4) - 1])
        lo = float(q1) - 1.5 * float(q3 - q1)
        hi = float(q3) + 1.5 * float(q3 - q1)
        row = out.loc[g]
        assert row["n"] == nn and row["q1"] == q1 and row["q3"] == q3
        assert row["n_low"] == int((c < lo).sum())
        assert row["n_high"] == int((c > hi).sum())
    # the planted far tail shows up
    assert out["n_high"].sum() >= 10


# --- McNemar -----------------------------------------------------------------

def test_mcnemar_matches_brute(ray_session):
    from web_crawler_ray.stages.aggregates import mcnemar_test
    rng = np.random.default_rng(83)
    n_ev = 1200
    cutoff = int(np.int64(1_700_000_000_000_000) + 3 * 3_600_000_000)
    t = pa.table({
        "user_id": pa.array(rng.integers(0, 30, n_ev).astype(np.int64)),
        "ts": pa.array((np.int64(1_700_000_000_000_000)
                        + rng.integers(0, 6 * 3_600_000_000, n_ev))
                       .astype("datetime64[us]")),
        "event_type": pa.array(np.array(
            ["click", "purchase"])[rng.integers(0, 2, n_ev)])})
    out = mcnemar_test(rd.from_arrow(t).repartition(4),
                       cutoff_us=cutoff, min_count=7) \
        .to_pandas().iloc[0]
    df = t.to_pandas()
    df["t"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    cells = {k: 0 for k in range(4)}
    for uid, g in df.groupby("user_id"):
        p = g[g["event_type"] == "purchase"]
        pre = int((p["t"] < cutoff).sum() >= 7)
        post = int((p["t"] >= cutoff).sum() >= 7)
        cells[pre * 2 + post] += 1
    assert out["n_both"] == cells[3]
    assert out["n_pre_only"] == cells[2]
    assert out["n_post_only"] == cells[1]
    assert out["n_neither"] == cells[0]
    b, c = cells[2], cells[1]
    assert b + c > 0
    assert out["chi2"] == float((b - c) ** 2) / float(b + c)


# --- sign test ---------------------------------------------------------------

def test_sign_test_matches_brute(ray_session):
    from web_crawler_ray.stages.windows import sign_test
    t = _events(n=350, n_users=6, seed=88)
    out = sign_test(rd.from_arrow(t).repartition(3)).to_pandas() \
        .set_index("key").sort_index()
    df = t.to_pandas()
    df["t"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    df["c"] = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
    for uid, g in df.groupby("user_id"):
        g = g.sort_values(["t", "event_id"], kind="mergesort")
        c = g["c"].to_numpy()
        m = len(c) // 2
        a, b = c[0:2 * m:2], c[1:2 * m:2]
        row = out.loc[uid]
        assert row["n_pairs"] == m
        assert row["n_plus"] == int((b > a).sum())
        assert row["n_minus"] == int((b < a).sum())
        assert row["n_tie"] == int((b == a).sum())
        assert row["n_plus"] + row["n_minus"] + row["n_tie"] == m
