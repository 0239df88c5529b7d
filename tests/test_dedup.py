"""D2/D3/D4 + content-hash + training-data dedup semantics."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from web_crawler_ray.stages import dedup as D


def test_similarity_weights_verbatim():
    a = {"location_address": "100 Main Street", "location_name": "Acme",
         "postcode": "62701", "latitude": "37.0", "longitude": "-122.0"}
    assert D.similarity(a, dict(a)) == 1.0
    # only postcode present on both -> weight 0.1/0.1
    b1 = {"postcode": "62701"}
    b2 = {"postcode": "62-701"}
    assert D.similarity(b1, b2) == 1.0  # normalized postcodes equal
    b3 = {"postcode": "99999"}
    assert D.similarity(b1, b3) == 0.0
    # coords within 100 m => proximity 1.0
    c1 = {"latitude": "37.0000", "longitude": "-122.0000"}
    c2 = {"latitude": "37.0005", "longitude": "-122.0000"}  # ~55 m
    assert D.similarity(c1, c2) == 1.0
    # ~2.5 km => 1 - 2.5/5 = ~0.5
    c3 = {"latitude": "37.0225", "longitude": "-122.0000"}
    assert abs(D.similarity(c1, c3) - 0.5) < 0.01


def test_fuzzy_greedy_order_dependence():
    # greedy scan: first unprocessed row absorbs all matches
    rows = [
        {"name": "Acme HQ", "address": "100 Main Street, Springfield",
         "latitude": "37.0", "longitude": "-122.0", "postal_code": "62701",
         "source_url": "a", "discovery_seq": 0},
        {"name": "Acme HQ", "address": "100 Main St, Springfield",
         "latitude": "37.0001", "longitude": "-122.0", "postal_code": "62701",
         "source_url": "b", "discovery_seq": 1},
        {"name": "Other Co", "address": "999 Elm Road, Denver",
         "latitude": "39.7", "longitude": "-105.0", "postal_code": "80201",
         "source_url": "c", "discovery_seq": 2},
    ]
    out = D.fuzzy_dedup_greedy(rows)
    assert len(out) == 2
    merged = out[0]
    assert merged["merged_from"] == 2
    # longest value wins (enhanced-dedup:119-127)
    assert merged["address"] == "100 Main Street, Springfield"
    assert merged["source_url"] == "a, b"


def test_fuzzy_blocked_matches_global(ray_session):
    """Blocked execution == global greedy when no pair crosses blocks."""
    rows = []
    for i in range(30):
        city = ["Springfield", "Denver", "Austin"][i % 3]
        post = ["62701", "80201", "73301"][i % 3]
        rows.append({"name": f"Acme {i % 3}", "address": f"{100 + i % 3} Main Street, {city}",
                     "latitude": "", "longitude": "", "postal_code": post,
                     "source_url": f"u{i}", "discovery_seq": i})
    global_out = D.fuzzy_dedup_greedy(sorted(rows, key=lambda r: r["discovery_seq"]))
    ds = rd.from_pandas(pd.DataFrame(rows))
    blocked = D.fuzzy_dedup(ds).to_pandas()
    assert len(blocked) == len(global_out)
    g = {(r["name"], r["address"]) for r in global_out}
    b = set(zip(blocked["name"], blocked["address"]))
    assert g == b


def test_d2_canonical_merge(ray_session):
    df = pd.DataFrame([
        {"location_name": "Acme", "location_address": "1 Main St",
         "street_or_city": "Springfield", "postcode": "62701",
         "latitude": "", "longitude": "", "state": "", "discovery_seq": 1},
        {"location_name": "Acme", "location_address": "1 Main St",
         "street_or_city": "Springfield", "postcode": "62701",
         "latitude": "37.0", "longitude": "-122.0", "state": "IL", "discovery_seq": 2},
    ])
    ds = rd.from_pandas(df).map_batches(D.add_canonical_key, batch_format="pyarrow")
    out = D.dedup_canonical(ds).to_pandas()
    assert len(out) == 1
    # first-seen base, later dup fills empties
    assert out.iloc[0]["latitude"] == "37.0"
    assert out.iloc[0]["state"] == "IL"


def test_content_hash_stage(ray_session):
    shards = [D.ContentHashShard.remote() for _ in range(2)]
    stage = D.ContentDedupStage(shards, text_col="text")
    b1 = pa.table({"text": ["a", "b", "a", "c"]})
    out1 = stage(b1)
    assert out1.column("text").to_pylist() == ["a", "b", "c"]
    b2 = pa.table({"text": ["c", "d"]})
    out2 = stage(b2)
    assert out2.column("text").to_pylist() == ["d"]


def test_exact_dedup(ray_session):
    df = pd.DataFrame({"doc_id": [3, 1, 2, 5, 4],
                       "text": ["x", "x", "y", "y", "z"]})
    out = D.exact_dedup(rd.from_pandas(df)).to_pandas()
    assert sorted(out["doc_id"]) == [1, 2, 4]


def test_minhash_finds_near_dups(ray_session):
    base = ("the quick brown fox jumps over the lazy dog and runs far away "
            "into the deep green forest before sunset tonight ") * 3
    near = base.replace("lazy", "sleepy")
    other = "completely different text about quarterly financial results " * 6
    df = pd.DataFrame({"doc_id": [1, 2, 3], "text": [base, near, other]})
    pairs = D.minhash_candidate_pairs(rd.from_pandas(df)).to_pandas()
    assert (1, 2) in set(zip(pairs["id_a"], pairs["id_b"]))
    assert D.jaccard(base, near) > 0.7
    assert D.jaccard(base, other) < 0.2


def test_simhash_hamming():
    a = D.simhash64("the quick brown fox jumps over the lazy dog " * 4)
    b = D.simhash64("the quick brown fox jumps over the sleepy dog " * 4)
    c = D.simhash64("completely unrelated quarterly financial review text " * 4)
    assert D.hamming64(a, b) < D.hamming64(a, c)
    assert D.simhash64("") == 0


def _simhash64_spec(text):
    """The scalar definition the vectorized kernel must reproduce:
    acc[i] += bit_i(blake2b64(word)) ? +1 : -1; out bit i iff acc[i] > 0."""
    import hashlib
    words = D._WORD_RE.findall((text or "").lower())
    acc = [0] * 64
    for w in words:
        h = int.from_bytes(
            hashlib.blake2b(w.encode(), digest_size=8).digest(), "big")
        for i in range(64):
            acc[i] += 1 if (h >> i) & 1 else -1
    return sum(1 << i for i in range(64) if acc[i] > 0)


def test_simhash_batch_matches_scalar_spec():
    import random
    rng = random.Random(11)
    vocab = ["alpha", "beta", "gamma", "office", "street", "42", "x", "ümlaut"]
    texts = ["", None, "a", "hello world hello",
             "The quick brown fox-jumps over 123 lazy dogs!"]
    texts += [" ".join(rng.choices(vocab, k=rng.randint(0, 30)))
              for _ in range(100)]
    batch = D.simhash64_batch(texts)
    for i, t in enumerate(texts):
        assert int(batch[i]) == _simhash64_spec(t)


def test_d4_cross_page(ray_session):
    df = pd.DataFrame([
        {"location_address": "100 Main Street Springfield", "location_name": "",
         "phone": "", "discovery_seq": 0},
        {"location_address": "100 Main Street, Springfield!", "location_name": "Acme",
         "phone": "555", "discovery_seq": 1},
        {"location_address": "short", "location_name": "", "phone": "", "discovery_seq": 2},
    ])
    out = D.dedup_cross_page(rd.from_pandas(df)).to_pandas()
    # the two squash-equal rows collapse to the more-complete one; the short
    # (unkeyed) row passes through
    assert len(out) == 2
    kept = out[out["location_address"].str.contains("Main")]
    assert kept.iloc[0]["location_name"] == "Acme"


@pytest.fixture(scope="module")
def ray_session():
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    yield


def test_sim_feat_equals_similarity():
    """The fast kernel must return values identical to the verbatim one
    (above-threshold: exact equality; below: both below)."""
    import random
    rng = random.Random(9)
    streets = ["100 Main Street", "100 Main St", "5 Oak Ave", ""]
    names = ["Acme", "Acme HQ", "", "Other"]
    posts = ["62701", "80201", ""]
    rows = []
    for _ in range(40):
        lat = rng.choice(["", "37.0", "37.0005", "39.7"])
        lon = "" if not lat else "-122.0"
        rows.append({"address": rng.choice(streets), "name": rng.choice(names),
                     "postal_code": rng.choice(posts),
                     "latitude": lat, "longitude": lon})
    memo = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            ref = D.similarity(rows[i], rows[j])
            fast = D._sim_feat(D._FuzzyFeat(rows[i]), D._FuzzyFeat(rows[j]),
                               0.85, memo)
            if ref >= 0.85 or fast >= 0.85:
                assert abs(ref - fast) < 1e-12, (rows[i], rows[j], ref, fast)
            else:
                assert fast < 0.85


def test_fuzzy_mixed_block_types_fall_back_to_host_allpairs(ray_session):
    """A postcode row and a nearby geo-only row (a pair the reference merges
    site-wide) must still be compared: mixed block types within a host fall
    back to the per-host all-pairs scan (ADVICE r1)."""
    rows = [
        {"name": "Acme Corp", "address": "100 Main Street, Springfield",
         "latitude": "39.80", "longitude": "-89.65", "postal_code": "62701",
         "source_url": "https://h.example/a", "discovery_seq": 0},
        {"name": "Acme Corp", "address": "100 Main St, Springfield",
         "latitude": "39.80", "longitude": "-89.65", "postal_code": "",
         "source_url": "https://h.example/b", "discovery_seq": 1},
    ]
    global_out = D.fuzzy_dedup_greedy(rows)
    assert len(global_out) == 1  # the reference would merge this pair
    ds = rd.from_pandas(pd.DataFrame(rows))
    blocked = D.fuzzy_dedup(ds).to_pandas()
    assert len(blocked) == 1


def test_verify_jaccard_pairs_matches_kernel(ray_session):
    """Distributed pair verification == driver-side jaccard() kernel,
    value-for-value, on planted near-dups."""
    base = "the quick brown fox jumps over the lazy dog near the old river bank "
    rows = [
        {"doc_id": 1, "text": base * 3},
        {"doc_id": 2, "text": (base * 3).replace("quick", "fast")},
        {"doc_id": 3, "text": "a totally unrelated text about compilers and parsers " * 3},
        {"doc_id": 4, "text": base * 3},
    ]
    ds = rd.from_pandas(pd.DataFrame(rows))
    pairs = pd.DataFrame({"id_a": [1, 1, 1, 2], "id_b": [2, 3, 4, 3]})
    out = D.verify_jaccard_pairs(ds, pairs)
    assert len(out) == 4
    texts = {r["doc_id"]: r["text"] for r in rows}
    for r in out.itertuples():
        assert r.jaccard == D.jaccard(texts[r.id_a], texts[r.id_b])
    assert out[(out.id_a == 1) & (out.id_b == 4)]["jaccard"].iloc[0] == 1.0
    # empty pair list -> empty verified frame with the right columns
    empty = D.verify_jaccard_pairs(ds, pairs.iloc[0:0])
    assert list(empty.columns) == ["id_a", "id_b", "jaccard"] and len(empty) == 0


def test_union_find_and_drop_ids(ray_session):
    verified = pd.DataFrame({"id_a": [1, 2, 7], "id_b": [2, 3, 9],
                             "jaccard": [0.9, 0.9, 0.9]})
    dropped = D.union_find_drop_set(verified)
    assert dropped == {2, 3, 9}  # min id of each component kept
    ds = rd.from_pandas(pd.DataFrame({"doc_id": list(range(1, 11))}))
    kept = sorted(D.drop_ids(ds, dropped).to_pandas()["doc_id"])
    assert kept == [1, 4, 5, 6, 7, 8, 10]
    # empty drop set is a no-op
    assert len(D.drop_ids(ds, set()).to_pandas()) == 10


def test_minhash_dedup_driver_never_materializes_text(ray_session, monkeypatch, tmp_path):
    """Scale guard (VERDICT r1 #1): the near-dup query path must not pull
    the corpus text to the driver — every driver-side materialization is
    O(pairs) metadata (no 'text' column)."""
    import pyarrow.parquet as pq
    import ray.data as rdm
    from web_crawler_ray.pipelines.queries import q_minhash_dedup
    import numpy as np
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(400)]
    rows = [{"doc_id": i,
             "text": " ".join(rng.choice(vocab, size=40))} for i in range(60)]
    base = "one two three four five six seven eight nine ten eleven twelve "
    rows += [{"doc_id": 100 + i, "text": base * 3} for i in range(4)]  # near-dups
    sf = tmp_path / "documents.parquet"
    pq.write_table(pa.Table.from_pandas(pd.DataFrame(rows)), str(sf))

    seen_cols: list[list[str]] = []
    orig = rdm.Dataset.to_pandas

    def spy(self, *a, **kw):
        df = orig(self, *a, **kw)
        seen_cols.append(list(df.columns))
        return df

    monkeypatch.setattr(rdm.Dataset, "to_pandas", spy)
    out = q_minhash_dedup(str(tmp_path))
    kept = out.to_pandas()
    assert all("text" not in cols for cols in seen_cols), seen_cols
    # the 4 identical planted docs collapse to 1 survivor
    assert len(kept) == 60 + 1


def test_scraper_dedup_improved_kernel():
    """E13 removeDuplicatesImproved (scraper.service.js:115-175): same
    street-number+zip merges; longer raw address replaces the kept row;
    word-overlap > 0.7 merges; distinct addresses survive."""
    locs = [
        {"address": "100 Main St, Springfield, 62701", "name": "a"},
        {"address": "100 Main Street, Springfield, IL 62701", "name": "b"},  # same num+zip, longer
        {"address": "200 Oak Avenue, Denver, 80201", "name": "c"},
        {"address": "200 Oak Ave, Denver, 80201", "name": "d"},              # same num+zip, shorter
        {"address": "931 Pine Road, Austin", "name": "e"},
    ]
    out = D.scraper_dedup_improved(locs)
    assert [l["name"] for l in out] == ["b", "c", "e"]
    # similarity path: > 0.7 word overlap, no shared num+zip pattern
    assert D.scraper_is_similar(
        D._scraper_norm("Unit Red Tower Plaza West Wing"),
        D._scraper_norm("Unit Red Tower Plaza West Annex"))
    assert not D.scraper_is_similar(
        D._scraper_norm("1 A St, 11111"), D._scraper_norm("2 B St, 22222"))
    # JS quirk: duplicate words in words1 each count (common/union-set)
    assert D.scraper_similarity("a a b", "a b") == 3 / 2
    # simple variant: first-seen on lower().strip()
    simple = D.scraper_dedup_simple(
        [{"address": "X St", "name": "p"}, {"address": "x st", "name": "q"},
         {"address": "Y St", "name": "r"}])
    assert [l["name"] for l in simple] == ["p", "r"]


def test_scraper_dedup_distributed(ray_session):
    rows = [
        {"address": "100 Main St, Springfield, 62701",
         "source_url": "https://h1.example/a", "discovery_seq": 0, "name": "a"},
        {"address": "100 Main Street, Springfield, IL 62701",
         "source_url": "https://h1.example/b", "discovery_seq": 1, "name": "b"},
        {"address": "100 Main St, Springfield, 62701",
         "source_url": "https://h2.example/a", "discovery_seq": 2, "name": "c"},
    ]
    out = D.dedup_scraper_improved(rd.from_pandas(pd.DataFrame(rows))).to_pandas()
    # per-host scope: h1 merges (keeps longer 'b'), h2 keeps its own copy
    assert sorted(out["name"]) == ["b", "c"]


def test_vectorized_greedy_equals_scalar():
    """The numpy UB-screened greedy must produce IDENTICAL clusters to
    the scalar reference form on randomized mixed-completeness data."""
    import random
    rng = random.Random(17)
    streets = ["100 Main Street", "100 Main St", "5 Oak Ave", "99 Elm Rd", ""]
    names = ["Acme", "Acme HQ", "Acme Headquarters", "", "Other Co"]
    posts = ["62701", "80201", "62-701", ""]
    for trial in range(6):
        rows = []
        for k in range(rng.randint(5, 60)):
            lat = rng.choice(["", "37.0", "37.0005", "37.0225", "39.7"])
            rows.append({"address": rng.choice(streets),
                         "name": rng.choice(names),
                         "postal_code": rng.choice(posts),
                         "latitude": lat,
                         "longitude": "" if not lat else "-122.0",
                         "source_url": f"u{k}", "discovery_seq": k})
        fast = D.fuzzy_dedup_greedy(rows)
        ref = D.fuzzy_dedup_greedy_scalar(rows)
        assert len(fast) == len(ref), trial
        for a, b in zip(fast, ref):
            assert a == b, (trial, a, b)


def test_fuzzy_output_invariant_to_arrival_order(ray_session):
    """Rows from one page share discovery_seq; within_page_idx makes the
    greedy scan order total, so shuffle ARRIVAL order must not change
    the result (the run-to-run determinism fix)."""
    rows = []
    for j, (name, addr) in enumerate([
            ("Acme HQ", "100 Main Street, Springfield"),
            ("Acme Headquarters", "100 Main St, Springfield"),
            ("Acme West", "900 Oak Avenue, Denver"),
            ("Acme W.", "900 Oak Ave, Denver")]):
        rows.append({"name": name, "address": addr, "latitude": "",
                     "longitude": "", "postal_code": "62701" if j < 2 else "80201",
                     "source_url": "https://h.example/contact",
                     "discovery_seq": 7, "within_page_idx": j})
    import itertools
    outs = set()
    for perm in itertools.permutations(rows):
        df = pd.DataFrame(list(perm))
        out = D.fuzzy_dedup(rd.from_pandas(df)).to_pandas()
        outs.add(tuple(sorted(zip(out["name"], out["address"]))))
    assert len(outs) == 1, outs


def test_simhash_near_dup_pairs_equals_brute_force(ray_session):
    """Banded simhash near-dup == brute-force all-pairs Hamming<=3
    (pigeonhole recall is exact at 4 bands), on planted small edits."""
    base = ("the quick brown fox jumps over the lazy dog while the cat "
            "sleeps near the warm fire inside the old house tonight ") * 4
    rows = [{"doc_id": 1, "text": base},
            {"doc_id": 2, "text": base.replace("warm", "hot")},
            {"doc_id": 3, "text": base.replace("lazy", "sleepy")},
            {"doc_id": 4, "text": "entirely different quarterly revenue "
                                  "analysis with unrelated vocabulary " * 5},
            {"doc_id": 5, "text": base}]
    sigs = {r["doc_id"]: D.simhash64(r["text"]) for r in rows}
    brute = sorted((a, b) for a in sigs for b in sigs
                   if a < b and D.hamming64(sigs[a], sigs[b]) <= 3)
    assert (1, 5) in brute  # identical docs: hamming 0
    out = D.simhash_near_dup_pairs(rd.from_pandas(pd.DataFrame(rows)))
    got = sorted(zip(out["id_a"], out["id_b"]))
    assert got == brute
    for r in out.itertuples():
        assert r.hamming == D.hamming64(sigs[r.id_a], sigs[r.id_b])


def test_scraper_similarity_properties():
    """calculateSimilarity bounds and quirk invariants via hypothesis."""
    from hypothesis import given, strategies as st
    words = st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=4),
                     min_size=0, max_size=8)

    @given(words, words)
    def check(w1, w2):
        s1, s2 = " ".join(w1), " ".join(w2)
        v = D.scraper_similarity(s1, s2)
        assert 0.0 <= v  # can exceed 1.0 only via the duplicate-count quirk
        if s1 == s2 and s1:
            assert v >= 1.0  # identical strings always clear the 0.7 bar
        assert D.scraper_is_similar(s1, s1) or not s1.strip()

    check()


@pytest.mark.parametrize("num_partitions", [1, 3, 96])
def test_fuzzy_hash_exchange_equals_scalar_per_host(ray_session,
                                                    num_partitions):
    """fuzzy_dedup's raw-task hash exchange (stages/shuffles.py) returns,
    for any partition count, exactly the rows of the scalar reference
    greedy run per host in (discovery_seq, within_page_idx) order:
    _fuzzy_host_group imposes its own total scan order, so neither
    arrival order nor how hosts share partitions is visible. Multi-host,
    multi-block input so both the split and reduce waves are exercised."""
    from web_crawler_ray.stages.shuffles import hash_map_groups
    names = ["Acme", "Globex", "Initech", "Umbrella", "Hooli", "Vandelay",
             "Stark", "Wayne", "Wonka", "Tyrell", "Cyberdyne", "Soylent"]
    streets = ["Main Street", "Oak Avenue", "Pine Road", "Elm Boulevard",
               "Cedar Lane", "Harbor Drive"]
    rng = np.random.default_rng(11)
    by_host: dict[int, list[dict]] = {}
    seq = 0
    for h in range(17):
        for i in range(int(rng.integers(1, 40))):
            k = 0 if i > 0 and rng.random() < 0.4 else i  # 0: a repeat
            by_host.setdefault(h, []).append({
                "name": f"{names[k % 12]} {streets[k % 6].split()[0]} {k}",
                "address": f"{100 + 37 * k} {streets[k % 6]}, City{h}",
                "latitude": "", "longitude": "",
                "postal_code": f"{60000 + h}",
                "source_url": f"https://host{h}.example/p{i}",
                "discovery_seq": seq, "within_page_idx": i % 2})
            seq += 1 - i % 2  # two rows per page
    rows = [r for rs in by_host.values() for r in rs]
    cols = sorted(rows[0])
    ds = rd.from_pandas(pd.DataFrame(rows)).repartition(7)
    got = hash_map_groups(ds, "fuzzy_host", D._fuzzy_host_group,
                          num_partitions=num_partitions,
                          prepare=D._add_fuzzy_keys).to_pandas()
    want = [r for rs in by_host.values() for r in D.fuzzy_dedup_greedy_scalar(
        sorted(rs, key=lambda r: (r["discovery_seq"], r["within_page_idx"])))]
    assert len(rows) > len(want) > len(by_host)  # 329 rows -> 180
    assert sorted(map(tuple, got[cols].values.tolist())) == \
        sorted(tuple(r[c] for c in cols) for r in want)


@pytest.mark.parametrize("exchange", ["hash_map_groups", "int_part_map",
                                      "near_dup_pairs_exact"])
def test_exchange_runs_lazy_upstream_once(ray_session, tmp_path, exchange):
    """The raw-task exchanges and the exact near-dup block-pair pass
    execute a lazy upstream plan exactly once: a ``map_batches`` UDF
    leaves one marker file per call, and after the exchange there is
    exactly one marker per input block. (Taking the refs with a bare
    ``to_arrow_refs()`` ran the plan a second time for its schema.)"""
    import uuid
    from web_crawler_ray.stages import shuffles, similarity

    def mark(t: pa.Table) -> pa.Table:
        first = t.column("k")[0].as_py()
        (tmp_path / f"{first}-{uuid.uuid4().hex}").touch()
        return t

    blocks = [pa.table({"k": list(range(i, i + 10)),
                        "v": [i] * 10,
                        "e": [[1.0, 0.0], [0.0, 1.0]] * 5})
              for i in range(0, 50, 10)]
    ds = rd.from_arrow_refs([ray.put(b) for b in blocks]).map_batches(
        mark, batch_format="pyarrow", batch_size=None)
    if exchange == "hash_map_groups":
        out = shuffles.hash_map_groups(ds, "v", lambda g: g.head(1))
        assert sorted(out.to_pandas()["k"].tolist()) == list(range(0, 50, 10))
    elif exchange == "int_part_map":
        out = shuffles.int_part_map(ds, "v", lambda df: df, num_partitions=3)
        assert sorted(out.to_pandas()["k"].tolist()) == list(range(50))
    else:  # rows of equal parity carry the same vector
        pairs = similarity.near_dup_pairs(ds, threshold=0.5, id_col="k",
                                          vec_col="e", method="exact")
        assert list(zip(pairs["id_a"], pairs["id_b"])) == [
            (a, b) for a in range(50) for b in range(a + 1, 50)
            if a % 2 == b % 2]
    assert sorted(int(f.name.split("-")[0]) for f in tmp_path.iterdir()) \
        == list(range(0, 50, 10))
