"""Unit semantics for the fifth-session round-5 additions — OHLC time
bars, per-user CUSUM changepoints, and the rest of the session's op
batches — covering the edges the registry-level DuckDB gate doesn't
reach (partition invariance, brute-force recurrence parity, tie
breaks)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd


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


# --- OHLC bars ---------------------------------------------------------------

def _brute_ohlc(df, bar_us=3_600_000_000):
    df = df.copy()
    df["t"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    df["bar_ts"] = (df["t"] // bar_us) * bar_us
    df["cents"] = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
    rows = []
    for (k, b), g in df.groupby(["event_type", "bar_ts"], sort=True):
        g = g.sort_values(["t", "event_id"], kind="mergesort")
        rows.append({"event_type": k, "bar_ts": b,
                     "px_open": g["value"].iloc[0],
                     "px_high": g["value"].max(),
                     "px_low": g["value"].min(),
                     "px_close": g["value"].iloc[-1],
                     "n_events": len(g),
                     "volume": g["cents"].sum() / 100.0})
    return pd.DataFrame(rows)


def test_ohlc_matches_brute_across_partitionings(ray_session):
    from web_crawler_ray.stages.windows import ohlc_bars
    t = _events()
    want = _brute_ohlc(t.to_pandas())
    for parts in (1, 5, 17):
        got = (ohlc_bars(rd.from_arrow(t).repartition(parts))
               .to_pandas()
               .sort_values(["event_type", "bar_ts"])
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got[want.columns.tolist()], want, check_dtype=False)


def test_ohlc_open_close_tie_break_on_event_id(ray_session):
    from web_crawler_ray.stages.windows import ohlc_bars
    # 3 rows with the SAME timestamp: open must be the min event_id's
    # value, close the max event_id's, regardless of arrival order.
    ts = np.array([5_000_000] * 3, dtype="datetime64[us]")
    t = pa.table({
        "event_id": pa.array(np.array([7, 2, 9], np.int64)),
        "ts": pa.array(ts),
        "event_type": pa.array(["x"] * 3),
        "value": pa.array([10.0, 20.0, 30.0]),
    })
    got = ohlc_bars(rd.from_arrow(t).repartition(3)).to_pandas()
    assert len(got) == 1
    assert got["px_open"].iloc[0] == 20.0   # event_id 2
    assert got["px_close"].iloc[0] == 30.0  # event_id 9
    assert got["px_high"].iloc[0] == 30.0
    assert got["px_low"].iloc[0] == 10.0


# --- CUSUM -------------------------------------------------------------------

def _brute_cusum(df, target=55.0, threshold=250.0):
    out = {}
    for _, g in df.groupby("user_id"):
        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        s = 0.0
        for eid, v in zip(g["event_id"], g["value"]):
            s = max(0.0, s + (v - target))
            out[eid] = s
    return out


def test_cusum_matches_brute_bitexact(ray_session):
    from web_crawler_ray.stages.windows import cusum_per_user
    t = _events(n=600, n_users=5)
    want = _brute_cusum(t.to_pandas())
    got = (cusum_per_user(rd.from_arrow(t).repartition(9),
                          target=55.0, threshold=250.0)
           .to_pandas().set_index("event_id"))
    assert len(got) == len(want)
    for eid, s in want.items():
        assert got.loc[eid, "cusum"] == s          # bit-exact
        assert got.loc[eid, "alarm"] == int(s > 250.0)


def test_cusum_resets_at_zero_floor(ray_session):
    from web_crawler_ray.stages.windows import cusum_per_user
    # values far below target keep the statistic pinned at 0.0
    t = pa.table({
        "event_id": pa.array(np.arange(4, dtype=np.int64)),
        "ts": pa.array(np.arange(4).astype("datetime64[us]")),
        "user_id": pa.array(np.zeros(4, np.int64)),
        "value": pa.array([1.0, 2.0, 1000.0, 1.0]),
    })
    got = (cusum_per_user(rd.from_arrow(t), target=55.0, threshold=250.0)
           .to_pandas().sort_values("event_id"))
    assert got["cusum"].iloc[0] == 0.0
    assert got["cusum"].iloc[1] == 0.0
    assert got["cusum"].iloc[2] == 945.0
    assert got["alarm"].tolist() == [0, 0, 1, 1]


# --- KMV distinct ------------------------------------------------------------

def test_kmv_accuracy_and_exact_branch(ray_session):
    from web_crawler_ray.stages.sketches import kmv_distinct
    # exact branch: fewer distinct than k
    t = pa.table({"v": pa.array(np.arange(40, dtype=np.int64) % 17)})
    out = kmv_distinct(rd.from_arrow(t), "v", k=64).to_pandas()
    assert out["k_used"].iloc[0] == 17
    assert out["est"].iloc[0] == 17.0
    # estimator branch: n >> k, relative error within KMV bounds
    n = 50_000
    t = pa.table({"v": pa.array(np.arange(n, dtype=np.int64))})
    out = kmv_distinct(rd.from_arrow(t).repartition(8),
                       "v", k=512).to_pandas()
    assert out["k_used"].iloc[0] == 512
    est = out["est"].iloc[0]
    assert abs(est - n) / n < 0.15, est


def test_kmv_partition_invariant(ray_session):
    from web_crawler_ray.stages.sketches import kmv_distinct
    rng = np.random.default_rng(3)
    t = pa.table({"v": pa.array(rng.integers(0, 5000, 20_000))})
    outs = [kmv_distinct(rd.from_arrow(t).repartition(p), "v", k=128)
            .to_pandas() for p in (1, 7)]
    # sketch state is a deterministic function of the SET of values
    pd.testing.assert_frame_equal(outs[0], outs[1])


# --- late-data watermark -----------------------------------------------------

def _brute_late(df, delay_us=600_000_000):
    df = df.sort_values("event_id")
    t = df["ts"].astype("datetime64[us]").astype(np.int64).to_numpy()
    wm = np.concatenate(([np.iinfo(np.int64).min],
                         np.maximum.accumulate(t)[:-1]))
    late = (wm != np.iinfo(np.int64).min) & (t + delay_us < wm)
    out = pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                        "late": late.astype(np.int64)})
    g = out.groupby("event_type")
    return pd.DataFrame({"event_type": list(g.groups),
                         "n_events": g.size().to_numpy(np.int64),
                         "n_late": g["late"].sum().to_numpy(np.int64)})


def test_late_data_matches_brute_and_crosses_buckets(ray_session):
    from web_crawler_ray.stages.windows import late_data_stats
    # adversarial: timestamps DECREASE over arrival so lateness is
    # common and the carry-in (cross-bucket prefix max) is load-bearing
    n = 3000
    rng = np.random.default_rng(5)
    ts = (np.int64(1_700_000_000_000_000)
          + rng.integers(0, 7_200_000_000, n)
          - np.arange(n, dtype=np.int64) * 1_000_000)
    t = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "event_type": pa.array(
            np.array(["a", "b"])[rng.integers(0, 2, n)]),
    })
    want = _brute_late(t.to_pandas()).sort_values("event_type") \
        .reset_index(drop=True)
    got = (late_data_stats(rd.from_arrow(t).repartition(11),
                           bucket=256)  # force many buckets
           .to_pandas().sort_values("event_type").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got[want.columns.tolist()], want, check_dtype=False)


# --- sequence match ----------------------------------------------------------

def test_sequence_match_brute_and_order(ray_session):
    from web_crawler_ray.stages.windows import sequence_match
    import re
    t = _events(n=150, n_users=12)
    cmap = {"click": "c", "view": "v", "buy": "p"}
    pat = "vcp"  # ADJACENT view-click-buy: rare enough to split users
    df = t.to_pandas()
    want = {}
    for uid, g in df.groupby("user_id"):
        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        s = "".join(cmap.get(x, "?") for x in g["event_type"])
        want[uid] = (len(g), 1 if re.search(pat, s) else 0)
    got = (sequence_match(rd.from_arrow(t).repartition(7),
                          pattern=pat, code_map=cmap)
           .to_pandas().set_index("user_id"))
    assert len(got) == len(want)
    for uid, (n, m) in want.items():
        assert got.loc[uid, "n_events"] == n
        assert got.loc[uid, "matched"] == m
    # at least one of each outcome, or the test data proves nothing
    assert set(got["matched"].unique()) == {0, 1}


def test_sequence_match_respects_event_order_not_arrival(ray_session):
    from web_crawler_ray.stages.windows import sequence_match
    # arrival order (event_id) says p-c-v but event-time says v-c-p
    t = pa.table({
        "event_id": pa.array(np.array([0, 1, 2], np.int64)),
        "ts": pa.array(np.array([30, 20, 10], np.int64)
                       .astype("datetime64[us]")),
        "user_id": pa.array(np.zeros(3, np.int64)),
        "event_type": pa.array(["buy", "click", "view"]),
    })
    got = sequence_match(rd.from_arrow(t), pattern="v.*c.*p",
                         code_map={"view": "v", "click": "c",
                                   "buy": "p"}).to_pandas()
    assert got["matched"].iloc[0] == 1


# --- z-order layout ----------------------------------------------------------

def _morton16(x, y):
    z = 0
    for i in range(16):
        z |= ((x >> i) & 1) << (2 * i)
        z |= ((y >> i) & 1) << (2 * i + 1)
    return z


def test_zorder_code_matches_scalar_and_locality(ray_session):
    from web_crawler_ray.stages.relational import zorder_layout
    n = 2000
    rng = np.random.default_rng(9)
    xs = rng.integers(0, 1 << 16, n).astype(np.int64)
    ys = rng.integers(0, 1 << 16, n).astype(np.int64)
    t = pa.table({"rid": pa.array(np.arange(n, dtype=np.int64)),
                  "x": pa.array(xs), "y": pa.array(ys)})
    got = zorder_layout(
        rd.from_arrow(t).repartition(6), "x", "y",
        lambda tb: tb.column("x").to_numpy(zero_copy_only=False),
        lambda tb: tb.column("y").to_numpy(zero_copy_only=False),
        id_cols=["rid"], k=n).to_pandas()
    want = {int(r): _morton16(int(x), int(y))
            for r, x, y in zip(t["rid"].to_pylist(),
                               xs, ys)}
    assert len(got) == n
    for rid, z in zip(got["rid"], got["zcode"]):
        assert want[int(rid)] == int(z)
    # z-order invariant: output sorted by (zcode, rid)
    assert (got["zcode"].is_monotonic_increasing
            or (got.sort_values(["zcode", "rid"])["zcode"].to_numpy()
                == got["zcode"].to_numpy()).all())
    # locality: the code of (x, y) and (x+1, y) differ before the code
    # of (x, y) and (x ^ 0x8000, y) — interleaving weights high bits
    assert abs(_morton16(5, 9) - _morton16(6, 9)) < \
        abs(_morton16(5, 9) - _morton16(5 ^ 0x8000, 9))


# --- sampled closeness -------------------------------------------------------

def test_closeness_matches_brute_bfs(ray_session):
    from web_crawler_ray.stages.graph import closeness_sampled
    import collections
    rng = np.random.default_rng(13)
    m = 800
    u = rng.integers(0, 120, m).astype(np.int64)
    v = rng.integers(0, 120, m).astype(np.int64)
    sym_u = np.concatenate([u, v])
    sym_v = np.concatenate([v, u])
    t = pa.table({"src": pa.array(sym_u), "dst": pa.array(sym_v)})
    got = closeness_sampled(rd.from_arrow(t).repartition(4),
                            n_sources=3).to_pandas()
    # brute multi-source BFS
    adj = collections.defaultdict(set)
    for x, y in zip(sym_u, sym_v):
        adj[int(x)].add(int(y))
    seeds = sorted(set(sym_u.tolist()))[:3]
    acc = collections.defaultdict(lambda: [0, 0])
    for s in seeds:
        dist = {s: 0}
        q = [s]
        while q:
            nxt = []
            for x in q:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            q = nxt
        for nd, d in dist.items():
            acc[nd][0] += 1
            acc[nd][1] += d
    assert len(got) == len(acc)
    for _, r in got.iterrows():
        n_src, s_h = acc[int(r["node"])]
        assert r["n_src"] == n_src and r["sum_hops"] == s_h


# --- RAKE keywords -----------------------------------------------------------

def test_rake_scores_by_hand(ray_session):
    from web_crawler_ray.stages.textstats import rake_keywords
    docs = pa.table({"text": pa.array([
        "deep learning of deep networks",
        "the deep model",
        "graph learning",
    ])})
    got = rake_keywords(rd.from_arrow(docs).repartition(2), k=10) \
        .to_pandas().set_index("word")
    # phrases: [deep learning] [deep networks] | [deep model] |
    # [graph learning]   ("of"/"the" break phrases)
    assert got.loc["deep", "freq"] == 3
    assert got.loc["deep", "deg"] == 6      # 2 + 2 + 2
    assert got.loc["learning", "freq"] == 2
    assert got.loc["learning", "deg"] == 4  # 2 + 2
    assert got.loc["model", "deg"] == 2
    assert "the" not in got.index and "of" not in got.index
    # ranking: deg desc puts 'deep' first
    assert got.index[0] == "deep"


def test_rake_partition_invariant(ray_session):
    from web_crawler_ray.stages.textstats import rake_keywords
    rng = np.random.default_rng(4)
    vocab = np.array(["alpha", "beta", "gamma", "the", "delta", "a"])
    docs = pa.table({"text": pa.array(
        [" ".join(vocab[rng.integers(0, 6, 12)]) for _ in range(60)])})
    outs = [rake_keywords(rd.from_arrow(docs).repartition(p), k=5)
            .to_pandas().reset_index(drop=True) for p in (1, 9)]
    pd.testing.assert_frame_equal(outs[0], outs[1])


# --- Apriori triples ---------------------------------------------------------

def test_apriori_matches_brute_and_pruning_is_lossless(ray_session):
    from web_crawler_ray.stages.relational import apriori_triples
    import itertools, collections
    rng = np.random.default_rng(21)
    n = 2000
    g = rng.integers(0, 300, n).astype(np.int64)
    i = rng.integers(0, 25, n).astype(np.int64)
    t = pa.table({"g": pa.array(g), "i": pa.array(i)})
    got = apriori_triples(rd.from_arrow(t).repartition(6), "g", "i",
                          min_support=3).to_pandas()
    baskets = collections.defaultdict(set)
    for gg, ii in zip(g, i):
        baskets[gg].add(ii)
    cnt = collections.Counter()
    for items in baskets.values():
        for tri in itertools.combinations(sorted(items), 3):
            cnt[tri] += 1
    want = {tri: c for tri, c in cnt.items() if c >= 3}
    assert len(got) == len(want)
    for _, r in got.iterrows():
        key = (int(r["item_a"]), int(r["item_b"]), int(r["item_c"]))
        assert want[key] == int(r["support"])


def test_apriori_empty_result_keeps_schema(ray_session):
    from web_crawler_ray.stages.relational import apriori_triples
    t = pa.table({"g": pa.array(np.array([1, 1, 2], np.int64)),
                  "i": pa.array(np.array([5, 6, 5], np.int64))})
    got = apriori_triples(rd.from_arrow(t), "g", "i", min_support=2)
    assert got.num_rows == 0
    assert got.column_names == ["item_a", "item_b", "item_c",
                                "support"]


# --- KMV set operations ------------------------------------------------------

def test_kmv_set_ops_exact_branch(ray_session):
    from web_crawler_ray.stages.sketches import kmv_set_ops
    # 10 click users {0..9}, 8 view users {5..12}: union 13, inter 5
    rows = ([(u, "click") for u in range(10)] * 2
            + [(u, "view") for u in range(5, 13)])
    t = pa.table({"user_id": pa.array([r[0] for r in rows], pa.int64()),
                  "event_type": pa.array([r[1] for r in rows])})
    out = kmv_set_ops(rd.from_arrow(t).repartition(3), "user_id",
                      "event_type", "click", "view", k=64).to_pandas()
    assert out["k_a"].iloc[0] == 10 and out["k_b"].iloc[0] == 8
    assert out["est_union"].iloc[0] == 13.0
    assert out["n_match"].iloc[0] == 5
    assert out["est_intersection"].iloc[0] == 5.0


def test_kmv_set_ops_estimator_accuracy(ray_session):
    from web_crawler_ray.stages.sketches import kmv_set_ops
    na, nb, overlap = 4000, 3000, 1500
    a = np.arange(na)
    b = np.arange(na - overlap, na - overlap + nb)
    rows_u = np.concatenate([a, b])
    rows_t = np.array(["click"] * na + ["view"] * nb)
    t = pa.table({"user_id": pa.array(rows_u.astype(np.int64)),
                  "event_type": pa.array(rows_t)})
    out = kmv_set_ops(rd.from_arrow(t).repartition(7), "user_id",
                      "event_type", "click", "view", k=512).to_pandas()
    true_union = na + nb - overlap
    assert abs(out["est_union"].iloc[0] - true_union) / true_union < 0.2
    assert abs(out["est_intersection"].iloc[0] - overlap) / overlap < 0.35


# --- stream-stream window join -----------------------------------------------

def test_stream_window_join_matches_brute(ray_session):
    from web_crawler_ray.stages.joins import stream_window_join
    t = _events(n=300, n_users=6)
    w = 1_800_000_000  # 30 min
    got = (stream_window_join(rd.from_arrow(t).repartition(7),
                              "user_id", "ts", "event_id",
                              "event_type", "click", "view",
                              window_us=w)
           .to_pandas().sort_values(["key", "left_id", "right_id"])
           .reset_index(drop=True))
    df = t.to_pandas()
    df["t"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    want = []
    cl = df[df["event_type"] == "click"]
    vw = df[df["event_type"] == "view"]
    for _, c in cl.iterrows():
        for _, v in vw.iterrows():
            if c["user_id"] == v["user_id"] and \
                    abs(v["t"] - c["t"]) <= w:
                want.append((c["user_id"], c["event_id"],
                             v["event_id"], v["t"] - c["t"]))
    want = pd.DataFrame(want, columns=["key", "left_id", "right_id",
                                       "dt_us"]) \
        .sort_values(["key", "left_id", "right_id"]) \
        .reset_index(drop=True)
    assert len(got) > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_stream_window_join_window_boundary_inclusive(ray_session):
    from web_crawler_ray.stages.joins import stream_window_join
    # dt exactly == window on both sides must pair; one tick past not
    t = pa.table({
        "user_id": pa.array(np.zeros(4, np.int64)),
        "ts": pa.array(np.array([1_000_000, 2_000_000, 0, 2_000_001],
                                np.int64).astype("datetime64[us]")),
        "event_id": pa.array(np.arange(4, dtype=np.int64)),
        "event_type": pa.array(["click", "view", "view", "view"]),
    })
    got = stream_window_join(rd.from_arrow(t), "user_id", "ts",
                             "event_id", "event_type", "click",
                             "view", window_us=1_000_000).to_pandas()
    assert sorted(got["right_id"].tolist()) == [1, 2]


# --- window dedup ------------------------------------------------------------

def test_window_dedup_tracks_kept_not_previous(ray_session):
    from web_crawler_ray.stages.windows import window_dedup
    # gap 10: events at t=0, 4, 8, 12 -> kept 0 and 12 (4 and 8 are
    # within 10 of the KEPT 0; a lag filter would wrongly keep 12 only
    # if measured against 8)
    t = pa.table({
        "user_id": pa.array(np.zeros(4, np.int64)),
        "ts": pa.array(np.array([0, 4, 8, 12], np.int64)
                       .astype("datetime64[us]")),
        "event_id": pa.array(np.arange(4, dtype=np.int64)),
        "event_type": pa.array(["x"] * 4),
    })
    got = window_dedup(rd.from_arrow(t), gap_us=10).to_pandas() \
        .sort_values("event_id")
    assert got["kept"].tolist() == [1, 0, 0, 1]


def test_window_dedup_matches_brute(ray_session):
    from web_crawler_ray.stages.windows import window_dedup
    t = _events(n=500, n_users=6)
    gap = 3_600_000_000
    df = t.to_pandas()
    df["t"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    want = {}
    for _, g in df.groupby(["user_id", "event_type"]):
        g = g.sort_values(["t", "event_id"], kind="mergesort")
        last = None
        for eid, tt in zip(g["event_id"], g["t"]):
            k = 1 if last is None or tt - last >= gap else 0
            want[eid] = k
            if k:
                last = tt
    got = window_dedup(rd.from_arrow(t).repartition(9), gap_us=gap) \
        .to_pandas().set_index("event_id")
    assert len(got) == len(want)
    for eid, k in want.items():
        assert got.loc[eid, "kept"] == k
    assert set(got["kept"].unique()) == {0, 1}


# --- Holt linear smoothing ---------------------------------------------------

def test_holt_matches_brute_bitexact(ray_session):
    from web_crawler_ray.stages.windows import holt_linear
    t = _events(n=400, n_users=5)
    a, ca, be, cb = 0.25, 0.75, 0.125, 0.875
    df = t.to_pandas()
    want = {}
    for _, g in df.groupby("user_id"):
        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        l = b = None
        for eid, v in zip(g["event_id"], g["value"]):
            if l is None:
                l, b = v, 0.0
            else:
                l_new = a * v + ca * (l + b)
                b = be * (l_new - l) + cb * b
                l = l_new
            want[eid] = (l, b)
    got = holt_linear(rd.from_arrow(t).repartition(8),
                      alpha=a, beta=be) \
        .to_pandas().set_index("event_id")
    for eid, (l, b) in want.items():
        assert got.loc[eid, "level"] == l     # bit-exact
        assert got.loc[eid, "trend"] == b


# --- A/B lift ----------------------------------------------------------------

def test_abtest_lift_hand_computed(ray_session):
    from web_crawler_ray.stages.aggregates import abtest_lift
    # 4 even users (2 convert), 4 odd users (1 converts); convert =
    # >= 2 purchases
    rows = []
    purchases = {0: 2, 2: 3, 4: 1, 6: 0, 1: 2, 3: 1, 5: 0, 7: 1}
    for u, np_ in purchases.items():
        rows += [(u, "purchase")] * np_ + [(u, "view")]
    t = pa.table({"user_id": pa.array([r[0] for r in rows], pa.int64()),
                  "event_type": pa.array([r[1] for r in rows])})
    out = abtest_lift(rd.from_arrow(t).repartition(3),
                      convert_min=2).to_pandas()
    assert out["n_a"].iloc[0] == 4 and out["c_a"].iloc[0] == 2
    assert out["n_b"].iloc[0] == 4 and out["c_b"].iloc[0] == 1
    p1, p2 = 2 / 4, 1 / 4
    lift = p1 - p2
    p = 3 / 8
    q = 8 / 16
    want_z = lift / np.sqrt(p * (1.0 - p) * q)
    assert out["lift"].iloc[0] == lift
    assert out["z_stat"].iloc[0] == want_z
    assert np.isfinite(out["z_stat"].iloc[0])


# --- share of total ----------------------------------------------------------

def test_share_of_total_sums_to_one_and_matches_brute(ray_session):
    from web_crawler_ray.stages.aggregates import share_of_total
    t = _events(n=300, n_users=5)
    got = share_of_total(rd.from_arrow(t).repartition(6)).to_pandas()
    df = t.to_pandas()
    df["cents"] = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
    tot = df.groupby("event_type")["cents"].sum()
    want = {eid: c / tot[k] for eid, k, c in
            zip(df["event_id"], df["event_type"], df["cents"])}
    assert len(got) == len(want)
    for _, r in got.iterrows():
        assert want[int(r["event_id"])] == r["share"]   # bit-exact
    s = got.groupby("event_type")["share"].sum()
    assert np.allclose(s.to_numpy(), 1.0)


# --- isotonic regression -----------------------------------------------------

def test_isotonic_monotone_and_matches_sklearn_free_brute(ray_session):
    from web_crawler_ray.stages.aggregates import isotonic_hourly
    t = _events(n=2000, n_users=9, seed=31)
    out = isotonic_hourly(rd.from_arrow(t).repartition(7)).to_pandas()
    df = t.to_pandas()
    df["hour"] = (df["ts"].astype("datetime64[us]").astype(np.int64)
                  // 3_600_000_000) % 24
    df["cents"] = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
    for k, g in df.groupby("event_type"):
        got = out[out["event_type"] == k].sort_values("hour")
        # monotone non-decreasing
        f = got["fitted"].to_numpy()
        assert (np.diff(f) >= 0).all()
        # minimax identity against brute O(h^2)
        gg = g.groupby("hour").agg(n=("cents", "size"),
                                   s=("cents", "sum"))
        hours = gg.index.to_numpy()
        ns, ss = gg["n"].to_numpy(), gg["s"].to_numpy()
        cs = np.concatenate(([0], np.cumsum(ss)))
        cn = np.concatenate(([0], np.cumsum(ns)))
        h = len(hours)
        for i in range(h):
            best = -np.inf
            for j in range(i + 1):
                mn = min((cs[k2 + 1] - cs[j]) / (cn[k2 + 1] - cn[j])
                         for k2 in range(i, h))
                best = max(best, mn)
            assert got["fitted"].to_numpy()[i] == best / 100.0
        # PAVA optimality sanity: fitted equals mean when means are
        # already isotone within a pooled block is implied by identity


def test_isotonic_pools_violators(ray_session):
    from web_crawler_ray.stages.aggregates import isotonic_hourly
    # hours 0..2 with means 30, 10, 20 -> isotonic fit pools all
    # three to 20 (total mean) for h0/h1... brute: PAVA(30,10,20)
    # with equal weights = (20, 20, 20)
    ts = np.array([0, 3_600_000_000, 7_200_000_000], np.int64)
    t = pa.table({
        "event_type": pa.array(["x"] * 3),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "value": pa.array([30.0, 10.0, 20.0]),
    })
    out = isotonic_hourly(rd.from_arrow(t)).to_pandas() \
        .sort_values("hour")
    assert np.allclose(out["fitted"].to_numpy(), 20.0)


# --- frequency capping -------------------------------------------------------

def test_freq_cap_matches_brute(ray_session):
    from web_crawler_ray.stages.windows import freq_cap
    t = _events(n=800, n_users=4, seed=41)
    got = freq_cap(rd.from_arrow(t).repartition(9), cap=2) \
        .to_pandas().set_index("event_id")
    df = t.to_pandas()
    df["t"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    df["day"] = df["t"] // 86_400_000_000
    want = {}
    for _, g in df.groupby(["user_id", "event_type", "day"]):
        g = g.sort_values(["t", "event_id"], kind="mergesort")
        for r, eid in enumerate(g["event_id"], 1):
            want[eid] = r
    assert len(got) == len(want)
    for eid, r in want.items():
        assert got.loc[eid, "rank"] == r
        assert got.loc[eid, "capped"] == int(r > 2)
    assert (got["capped"] == 1).any() and (got["capped"] == 0).any()


def test_closeness_fast_path_equals_composed_path(ray_session):
    from web_crawler_ray.stages.graph import closeness_sampled
    rng = np.random.default_rng(23)
    m = 400
    u = rng.integers(0, 60, m).astype(np.int64)
    v = rng.integers(0, 60, m).astype(np.int64)
    t = pa.table({"src": pa.array(np.concatenate([u, v])),
                  "dst": pa.array(np.concatenate([v, u]))})
    fast = closeness_sampled(rd.from_arrow(t).repartition(3),
                             n_sources=3).to_pandas()
    composed = closeness_sampled(rd.from_arrow(t).repartition(3),
                                 n_sources=3,
                                 driver_limit=0).to_pandas()
    pd.testing.assert_frame_equal(fast, composed)


# --- next-event accuracy -----------------------------------------------------

def test_next_event_accuracy_hand_case(ray_session):
    from web_crawler_ray.stages.windows import next_event_accuracy
    # user 0 sequence: a b a b a c   -> transitions a>b x2, b>a x2,
    # a>c x1 ; pred(a)=b (2>1), pred(b)=a
    types = ["a", "b", "a", "b", "a", "c"]
    t = pa.table({
        "user_id": pa.array(np.zeros(6, np.int64)),
        "ts": pa.array(np.arange(6).astype("datetime64[us]")),
        "event_id": pa.array(np.arange(6, dtype=np.int64)),
        "event_type": pa.array(types),
    })
    got = next_event_accuracy(rd.from_arrow(t)).to_pandas() \
        .set_index("event_type")
    assert got.loc["a", "n_trans"] == 3
    assert got.loc["a", "n_correct"] == 2
    assert got.loc["a", "accuracy"] == 2 / 3
    assert got.loc["b", "n_trans"] == 2
    assert got.loc["b", "accuracy"] == 1.0
    assert "c" not in got.index   # no outgoing transitions


# --- item-item cosine --------------------------------------------------------

def test_item_item_cosine_hand_case(ray_session):
    from web_crawler_ray.stages.relational import item_item_cosine
    # baskets: {1,2,3}, {1,2}, {1,3} -> c12=2, c13=2, c23=1;
    # n1=3, n2=2, n3=2
    g = np.array([10, 10, 10, 20, 20, 30, 30], np.int64)
    i = np.array([1, 2, 3, 1, 2, 1, 3], np.int64)
    t = pa.table({"g": pa.array(g), "i": pa.array(i)})
    got = item_item_cosine(rd.from_arrow(t).repartition(3), "g", "i",
                           min_support=1).to_pandas()
    got = got.set_index(["item_a", "item_b"])
    assert got.loc[(1, 2), "support"] == 2
    assert got.loc[(1, 2), "cosine"] == 2.0 / np.sqrt(6.0)
    assert got.loc[(1, 3), "cosine"] == 2.0 / np.sqrt(6.0)
    assert got.loc[(2, 3), "cosine"] == 1.0 / np.sqrt(4.0)


# --- sorted-neighborhood linkage ---------------------------------------------

def test_snm_matches_brute_across_block_boundaries(ray_session):
    from web_crawler_ray.stages.joins import sorted_neighborhood_pairs
    import itertools
    rng = np.random.default_rng(33)
    names = [f"rec{rng.integers(0, 100):03d}x" for _ in range(200)]
    t = pa.table({"nm": pa.array(names),
                  "rid": pa.array(np.arange(200, dtype=np.int64))})
    w, k = 4, 2
    # many partitions force cross-block windows
    got = sorted_neighborhood_pairs(
        rd.from_arrow(t).repartition(13), "nm", "rid",
        window=w, max_dist=k).to_pandas()

    def lev(a, b):
        m, n = len(a), len(b)
        d = list(range(n + 1))
        for i in range(1, m + 1):
            prev, d[0] = d[0], i
            for j in range(1, n + 1):
                prev, d[j] = d[j], min(d[j] + 1, d[j - 1] + 1,
                                       prev + (a[i - 1] != b[j - 1]))
        return d[n]

    order = sorted(range(200), key=lambda r: (names[r], r))
    want = set()
    for pos_a, pos_b in itertools.combinations(range(200), 2):
        if pos_b - pos_a <= w:
            ra, rb = order[pos_a], order[pos_b]
            dd = lev(names[ra], names[rb])
            if dd <= k:
                want.add((min(ra, rb), max(ra, rb), dd))
    got_set = {(int(a), int(b), int(d)) for a, b, d in
               zip(got["id_a"], got["id_b"], got["dist"])}
    assert got_set == want
    assert len(want) > 0


# --- perceptual image dedup --------------------------------------------------

def test_ahash_deterministic_and_injective_on_corpus(ray_session):
    from web_crawler_ray.stages import multimodal as M
    refs = [f"img{c:04d}" for c in range(64)]
    tbl = M.synth_ppm_table(refs)
    hashes = [M.ahash64(M.decode_ppm(p))
              for p in tbl.column("payload").to_pylist()]
    assert len(set(hashes)) == 64          # injective on the corpus
    # re-decode gives the identical hash (pure integer pipeline)
    again = [M.ahash64(M.decode_ppm(p))
             for p in tbl.column("payload").to_pylist()]
    assert hashes == again


def test_image_dedup_groups_match_planting(ray_session):
    from web_crawler_ray.stages import multimodal as M
    import hashlib, collections
    refs = [f"media://host{i % 7}/asset{i}" for i in range(300)]
    blob = M.synth_ppm_table_planted(refs, n_images=16)
    ds = rd.from_arrow(blob).repartition(9)
    got = M.image_dedup_groups(ds).to_pandas()
    want = collections.defaultdict(list)
    for r in refs:
        cid = int.from_bytes(hashlib.md5(r.encode()).digest()[8:],
                             "little") % 16
        want[cid].append(r)
    assert len(got) == len(want)
    want_groups = {(min(v), len(v)) for v in want.values()}
    got_groups = {(r, int(n)) for r, n in
                  zip(got["rep_ref"], got["n_refs"])}
    assert got_groups == want_groups
    # partition invariance
    got2 = M.image_dedup_groups(rd.from_arrow(blob).repartition(2)) \
        .to_pandas()
    assert {(r, int(n)) for r, n in
            zip(got2["rep_ref"], got2["n_refs"])} == want_groups
