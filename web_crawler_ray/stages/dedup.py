"""Dedup pipeline (SURVEY §2.5) + large-scale training-data dedup.

Crawl-side (reference semantics):
- D2 canonical-key dedup + merge (address-normalizer.service.js:285-335)
- D3 blocked fuzzy dedup (enhanced-deduplication.service.js:7-164):
  greedy order-dependent clustering with weighted similarity — address
  Levenshtein 0.4, haversine proximity 0.3, name Levenshtein 0.2,
  postcode exact 0.1, threshold 0.85; per-field longest-value merge.
  Ray shape: ``groupby(block_key).map_groups`` where the block key is
  (normalized postcode ∥ coarse geo cell ∥ city prefix) — greedy scan
  inside a block follows global ``discovery_seq`` order, preserving the
  reference output whenever no qualifying pair crosses blocks (asserted
  on fixtures in tests).
- D4 cross-page squashed-address dedup (crawler.service.js:206-235)
- Content-hash dedup service: stateful actor-pool stage (north star) —
  exact content hashes checked/inserted across partitions in the same
  shard actors as the URL-seen set (state/seen.py).

Training-data (documents table, 100 TB path):
- exact_dedup: hash -> groupby -> first (hash-partition, no data skew:
  uniform hash key)
- minhash_lsh_dedup: shingle -> minhash (vectorized numpy) -> banded
  LSH -> bucket groupby -> candidate verify -> keep first per cluster
- simhash_dedup: 64-bit simhash, bucket by band
- ngram_jaccard_pairs: verified Jaccard over LSH candidates
- embedding near-dup: see stages/similarity.py

All heavy steps are ``map_batches`` with numpy/pyarrow kernels; the
only shuffles are the groupbys on hash/bucket keys (pre-reduced inside
batches where possible).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.hashing import hash64_many
from ..functions.normalize import (
    canonical_key, dedup_norm_enhanced, dedup_norm_postcode, haversine_km,
    levenshtein_ratio, levenshtein_ratio_many, squash_address,
)
from ..state.seen import SeenShard, scatter_check_and_add

def _seq_sort(g: pd.DataFrame) -> pd.DataFrame:
    """Deterministic scan order for order-dependent dedups: global page
    order (discovery_seq) + within-page extraction order. discovery_seq
    alone is NOT total — all locations of one page share its seq, and a
    stable sort would then preserve shuffle ARRIVAL order, which varies
    run to run."""
    if "discovery_seq" not in g.columns:
        return g
    keys = ["discovery_seq"]
    if "within_page_idx" in g.columns:
        keys.append("within_page_idx")
    return g.sort_values(keys)


# ---------------------------------------------------------------------------
# D2: canonical-key dedup + merge
# ---------------------------------------------------------------------------

_D2_FIELDS = ("location_name", "location_address", "latitude", "longitude",
              "country_iso3", "postcode", "state", "street_or_city",
              "activity_at_asset", "footprint", "height", "usage_share")


def add_canonical_key(batch: pa.Table) -> pa.Table:
    names = batch.column("location_name").to_pylist() if "location_name" in batch.column_names else batch.column("name").to_pylist()
    streets = batch.column("location_address").to_pylist() if "location_address" in batch.column_names else batch.column("address").to_pylist()
    cities = batch.column("street_or_city").to_pylist() if "street_or_city" in batch.column_names else batch.column("city").to_pylist()
    posts = batch.column("postcode").to_pylist() if "postcode" in batch.column_names else batch.column("postal_code").to_pylist()
    lats = batch.column("latitude").to_pylist()
    lons = batch.column("longitude").to_pylist()
    keys = [canonical_key(n, s, c, p, la, lo) or ""
            for n, s, c, p, la, lo in zip(names, streets, cities, posts, lats, lons)]
    if "canonical_key" in batch.column_names:
        batch = batch.drop_columns(["canonical_key"])
    return batch.append_column("canonical_key", pa.array(keys, pa.string()))


def _merge_d2(group: pd.DataFrame) -> pd.DataFrame:
    """First-seen base; later dups fill empty fields (address-normalizer:305-331)."""
    g = _seq_sort(group)
    base = g.iloc[0].copy()
    for _, row in g.iloc[1:].iterrows():
        for col in g.columns:
            v = base[col]
            if (v is None or v == "" or (isinstance(v, float) and np.isnan(v))) and row[col] not in (None, ""):
                base[col] = row[col]
    return base.to_frame().T


def dedup_canonical(ds, key: str = "canonical_key"):
    """D2 as a Ray op: groupby(key).map_groups(first-seen merge)."""
    return ds.groupby(key).map_groups(_merge_d2, batch_format="pandas")


# ---------------------------------------------------------------------------
# D3: fuzzy dedup — verbatim pairwise kernel + blocked distribution
# ---------------------------------------------------------------------------

def _g(loc: dict, *keys):
    """Field lookup across raw (address/name/postal_code) and enriched
    (location_address/location_name/postcode) row shapes."""
    for k in keys:
        v = loc.get(k)
        if v not in (None, ""):
            return v
    return None


def similarity(loc1: dict, loc2: dict) -> float:
    """enhanced-deduplication.service.js:46-95, weights verbatim."""
    total_w = 0.0
    score = 0.0
    a1 = _g(loc1, "location_address", "address")
    a2 = _g(loc2, "location_address", "address")
    if a1 and a2:
        score += levenshtein_ratio(dedup_norm_enhanced(a1), dedup_norm_enhanced(a2)) * 0.4
        total_w += 0.4
    la1, lo1 = loc1.get("latitude"), loc1.get("longitude")
    la2, lo2 = loc2.get("latitude"), loc2.get("longitude")
    if la1 and lo1 and la2 and lo2:
        try:
            d = haversine_km(float(la1), float(lo1), float(la2), float(lo2))
            prox = 1.0 if d < 0.1 else max(0.0, 1 - d / 5)
            score += prox * 0.3
            total_w += 0.3
        except ValueError:
            pass
    n1 = _g(loc1, "location_name", "name")
    n2 = _g(loc2, "location_name", "name")
    if n1 and n2:
        score += levenshtein_ratio(n1.lower(), n2.lower()) * 0.2
        total_w += 0.2
    p1 = _g(loc1, "postcode", "postal_code")
    p2 = _g(loc2, "postcode", "postal_code")
    if p1 and p2:
        score += (1.0 if dedup_norm_postcode(p1) == dedup_norm_postcode(p2) else 0.0) * 0.1
        total_w += 0.1
    return score / total_w if total_w > 0 else 0.0


def _merge_fuzzy(locs: list[dict]) -> dict:
    """enhanced-deduplication.service.js:100-164 (longest value wins)."""
    if len(locs) == 1:
        return dict(locs[0])
    merged = dict(locs[0])
    fields = [f for f in _D2_FIELDS if f in locs[0]] or \
        [f for f in ("name", "address", "latitude", "longitude", "country",
                     "postal_code", "state", "city", "activity") if f in locs[0]]
    for f in fields:
        vals = [l.get(f) for l in locs if l.get(f) not in (None, "") and str(l.get(f))]
        if vals:
            merged[f] = sorted(vals, key=lambda v: len(str(v)), reverse=True)[0]
    src = []
    for l in locs:
        s = l.get("source_url")
        if s and s not in src:
            src.append(s)
    merged["source_url"] = ", ".join(src)
    qs = [l.get("quality_score") for l in locs if l.get("quality_score") is not None]
    if qs:
        merged["quality_score"] = max(qs)
    merged["merged_from"] = len(locs)
    return merged


class _FuzzyFeat:
    """Per-row precomputed similarity features (normalization + parses are
    hoisted out of the O(n²) loop; values identical to ``similarity``)."""

    __slots__ = ("addr", "lat", "lon", "name", "post")

    def __init__(self, loc: dict):
        a = _g(loc, "location_address", "address")
        self.addr = dedup_norm_enhanced(a) if a else None
        la, lo = loc.get("latitude"), loc.get("longitude")
        self.lat = self.lon = None
        if la and lo:
            try:
                self.lat, self.lon = float(la), float(lo)
            except ValueError:
                pass
        n = _g(loc, "location_name", "name")
        self.name = n.lower() if n else None
        p = _g(loc, "postcode", "postal_code")
        self.post = dedup_norm_postcode(p) if p else None


def _sim_feat(f1: _FuzzyFeat, f2: _FuzzyFeat, threshold: float,
              lev_memo: dict) -> float:
    """Same value as ``similarity`` on the original rows, with (a) a
    memo on Levenshtein pairs and (b) an exact upper-bound early exit:
    lev_ratio(s1,s2) <= 1 - |len1-len2|/max_len, so if the score with
    that bound already misses the threshold, the DP is skipped."""
    total_w = 0.0
    fixed = 0.0
    lev_terms = []  # (weight, s1, s2)
    if f1.addr is not None and f2.addr is not None:
        lev_terms.append((0.4, f1.addr, f2.addr))
        total_w += 0.4
    if f1.lat is not None and f2.lat is not None:
        d = haversine_km(f1.lat, f1.lon, f2.lat, f2.lon)
        fixed += (1.0 if d < 0.1 else max(0.0, 1 - d / 5)) * 0.3
        total_w += 0.3
    if f1.name is not None and f2.name is not None:
        lev_terms.append((0.2, f1.name, f2.name))
        total_w += 0.2
    if f1.post is not None and f2.post is not None:
        fixed += (1.0 if f1.post == f2.post else 0.0) * 0.1
        total_w += 0.1
    if total_w == 0:
        return 0.0
    ub = fixed
    for w, s1, s2 in lev_terms:
        ub += w * (1.0 if s1 == s2 else
                   1.0 - abs(len(s1) - len(s2)) / max(len(s1), len(s2), 1))
    if ub / total_w < threshold:
        return 0.0  # cannot reach threshold; exact value not needed
    score = fixed
    for w, s1, s2 in lev_terms:
        key = (s1, s2)
        r = lev_memo.get(key)
        if r is None:
            r = levenshtein_ratio(s1, s2)
            lev_memo[key] = r
        score += w * r
    return score / total_w


def fuzzy_dedup_greedy_scalar(locs: list[dict],
                              threshold: float = 0.85) -> list[dict]:
    """Reference form of the greedy O(n²) clustering in input order
    (enhanced-dedup:7-41): scalar pair loop, memoized Levenshtein.
    Kept as the equivalence baseline for the vectorized fast path."""
    feats = [_FuzzyFeat(l) for l in locs]
    lev_memo: dict = {}
    merged = []
    processed: set[int] = set()
    for i in range(len(locs)):
        if i in processed:
            continue
        dups = [i]
        for j in range(i + 1, len(locs)):
            if j in processed:
                continue
            if _sim_feat(feats[i], feats[j], threshold, lev_memo) >= threshold:
                dups.append(j)
                processed.add(j)
        merged.append(_merge_fuzzy([locs[k] for k in dups]))
        processed.add(i)
    return merged


def _haversine_km_vec(lat1: float, lon1: float, lat2: np.ndarray,
                      lon2: np.ndarray) -> np.ndarray:
    """numpy haversine, same formula as functions.normalize.haversine_km
    (used only for the UPPER-BOUND screen — the exact kernel recomputes
    with the scalar form, so ulp-level differences cannot change output;
    an epsilon guard below absorbs them)."""
    r = 6371.0
    dlat = np.radians(lat2 - lat1)
    dlon = np.radians(lon2 - lon1)
    a = (np.sin(dlat / 2) ** 2
         + np.cos(np.radians(lat1)) * np.cos(np.radians(lat2))
         * np.sin(dlon / 2) ** 2)
    return r * 2 * np.arctan2(np.sqrt(a), np.sqrt(1 - a))


def _char_count_matrix(strs: list) -> np.ndarray:
    """(n, alphabet) int32 codepoint-count matrix over the non-None
    strings (None rows are all-zero). Used for the bag-of-characters
    Levenshtein lower bound: dist(a,b) >= max(|a|,|b|) - Σ_c min(cnt_a,
    cnt_b) — an alignment matches at most the multiset intersection, so
    every other position of the longer string needs an edit. Fully
    vectorized build: one utf-32 decode + one bincount."""
    n = len(strs)
    lens = np.array([len(s) if s else 0 for s in strs], np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.zeros((n, 1), np.int32)
    enc = np.frombuffer("".join(s for s in strs if s).encode("utf-32-le"),
                        np.uint32)
    _, inv = np.unique(enc, return_inverse=True)
    a = int(inv.max()) + 1
    row = np.repeat(np.arange(n), lens)
    return np.bincount(row * a + inv, minlength=n * a).reshape(n, a) \
             .astype(np.int32)


def fuzzy_dedup_greedy(locs: list[dict], threshold: float = 0.85) -> list[dict]:
    """Greedy O(n²) clustering in input order (enhanced-dedup:7-41).

    Output identical to ``fuzzy_dedup_greedy_scalar`` (asserted in
    tests). The scan is split into three vectorized phases:

    1. **All-pairs UPPER-BOUND screen**, evaluated as chunked (rows ×
       n) matrix kernels over the strict upper triangle: exact
       geo/postcode terms + the tighter of the Levenshtein LENGTH
       bound and the bag-of-characters bound (``_char_count_matrix``)
       — both true upper bounds on lev_ratio, so the screen only
       discards pairs that provably miss the threshold (minus an ulp
       epsilon — can only ADD candidates). The per-anchor loop form of
       this screen paid ~500k tiny numpy-kernel launches per bench run
       (profiled round 4, ~40% of reduce CPU); the matrix form is the
       same float64 elementwise arithmetic (bit-identical bounds) in
       ~n/chunk launches. The screen ignores processed-status — a
       superset of the pairs the online scan would screen — which is
       what makes it order-free and batchable.
    2. **One batched Levenshtein prefill** over every distinct string
       pair the survivors need (features are immutable during the
       scan, so memo values are scan-order independent). Replaces
       ~10k per-anchor mini-batches with one sorted-and-chunked DP.
    3. The **greedy scan itself**, now pure memo lookups over each
       anchor's precomputed candidate list in ascending-j order —
       exactly the reference's visit order, so cluster assignment is
       unchanged.
    """
    n = len(locs)
    if n <= 2:
        return fuzzy_dedup_greedy_scalar(locs, threshold)
    feats = [_FuzzyFeat(l) for l in locs]
    addr_len = np.array([len(f.addr) if f.addr is not None else -1
                         for f in feats], np.float64)
    name_len = np.array([len(f.name) if f.name is not None else -1
                         for f in feats], np.float64)
    lat = np.array([f.lat if f.lat is not None else np.nan for f in feats])
    lon = np.array([f.lon if f.lon is not None else np.nan for f in feats])
    post_ids: dict[str, int] = {}
    post = np.array([post_ids.setdefault(f.post, len(post_ids))
                     if f.post is not None else -1 for f in feats], np.int64)
    has_geo = ~np.isnan(lat)
    addr_cnt = _char_count_matrix([f.addr for f in feats])
    name_cnt = _char_count_matrix([f.name for f in feats])

    eps = threshold - 1e-9
    jj = np.arange(n)
    pi_parts: list[np.ndarray] = []
    pj_parts: list[np.ndarray] = []
    # chunk the anchor axis so each (chunk × n) float64 matrix stays
    # ~32 MB even at the FUZZY_ALLPAIRS_MAX host bound
    chunk = max(1, int(4_000_000 // n))
    for c0 in range(0, n - 1, chunk):
        I = np.arange(c0, min(c0 + chunk, n - 1))
        ali, alj = addr_len[I][:, None], addr_len[None, :]
        nli, nlj = name_len[I][:, None], name_len[None, :]
        m_addr = (ali >= 0) & (alj >= 0)
        m_name = (nli >= 0) & (nlj >= 0)
        m_geo = has_geo[I][:, None] & has_geo[None, :]
        m_post = (post[I][:, None] >= 0) & (post[None, :] >= 0)
        total_w = (0.4 * m_addr + 0.3 * m_geo + 0.2 * m_name
                   + 0.1 * m_post)
        # Levenshtein length bound: ratio <= 1 - |l1-l2|/max(l1,l2)
        addr_ub = 1.0 - np.abs(ali - alj) / np.maximum(
            np.maximum(ali, alj), 1.0)
        name_ub = 1.0 - np.abs(nli - nlj) / np.maximum(
            np.maximum(nli, nlj), 1.0)
        with np.errstate(invalid="ignore"):
            d = _haversine_km_vec(lat[I][:, None], lon[I][:, None], lat, lon)
            # UPPER bound under d's ulp uncertainty vs the scalar
            # haversine: widen the d<0.1 plateau (a 0.02 jump — an
            # epsilon on the SCORE cannot absorb a boundary flip)
            # and shift the linear branch up by the margin. NaN d
            # (either side lacks geo) is masked to 0 by m_geo.
            geo_t = np.where(m_geo,
                             np.where(d < 0.1 + 1e-9, 1.0,
                                      np.maximum(0.0, 1 - (d - 1e-9) / 5)),
                             0.0)
        post_t = (post[None, :] == post[I][:, None]).astype(np.float64)
        ub = (0.4 * addr_ub * m_addr + 0.3 * geo_t * m_geo
              + 0.2 * name_ub * m_name + 0.1 * post_t * m_post)
        with np.errstate(invalid="ignore", divide="ignore"):
            ub = np.where(total_w > 0, ub / np.maximum(total_w, 1e-12), 0.0)
        keep = (jj[None, :] > I[:, None]) & (ub >= eps)
        ci, cj = np.nonzero(keep)  # row-major => sorted by (i, j)
        if not len(ci):
            continue
        pi, pj = I[ci], jj[cj]
        # Stage-2 refinement on the (few) length-bound survivors:
        # tighten the lev terms with the bag-of-characters bound
        # (ratio <= Σ min(char counts) / max_len), recompute the score
        # bound, re-screen. Both are true upper bounds, so min() is
        # too: pruning cannot change output (pinned in tests). Applied
        # post-screen so the O(alphabet) per-pair cost is paid only on
        # survivors, keeping the full O(n²) stage-1 cheap. Per-pair
        # unconditional application ≡ the per-anchor masked form: a
        # pair with the addr/name mask off has its term zeroed either
        # way.
        ma, mn = m_addr[ci, cj], m_name[ci, cj]
        a_ub = addr_ub[ci, cj]
        if ma.any():
            amax = np.maximum(np.maximum(addr_len[pi], addr_len[pj]), 1.0)
            a_bag = np.minimum(addr_cnt[pi], addr_cnt[pj]).sum(1) / amax
            a_ub = np.minimum(a_ub, a_bag)
        n_ub = name_ub[ci, cj]
        if mn.any():
            nmax = np.maximum(np.maximum(name_len[pi], name_len[pj]), 1.0)
            n_bag = np.minimum(name_cnt[pi], name_cnt[pj]).sum(1) / nmax
            n_ub = np.minimum(n_ub, n_bag)
        ub2 = (0.4 * a_ub * ma + 0.3 * geo_t[ci, cj] * m_geo[ci, cj]
               + 0.2 * n_ub * mn + 0.1 * post_t[ci, cj] * m_post[ci, cj])
        with np.errstate(invalid="ignore", divide="ignore"):
            tw = total_w[ci, cj]
            ub2 = np.where(tw > 0, ub2 / np.maximum(tw, 1e-12), 0.0)
        keep2 = ub2 >= eps
        pi_parts.append(pi[keep2])
        pj_parts.append(pj[keep2])

    pair_i = np.concatenate(pi_parts) if pi_parts else np.zeros(0, np.int64)
    pair_j = np.concatenate(pj_parts) if pj_parts else np.zeros(0, np.int64)

    # one batched DP over every distinct string pair the survivors need
    lev_memo: dict = {}
    need = []
    for i, k in zip(pair_i.tolist(), pair_j.tolist()):
        fi, fk = feats[i], feats[k]
        for s1, s2 in ((fi.addr, fk.addr), (fi.name, fk.name)):
            if (s1 is not None and s2 is not None and s1 != s2
                    and (s1, s2) not in lev_memo):
                lev_memo[(s1, s2)] = 0.0  # placeholder marks membership
                need.append((s1, s2))
    if need:
        for pr, r in zip(need, levenshtein_ratio_many(need)):
            lev_memo[pr] = r

    # greedy scan: ascending-j candidates per anchor, memo-only kernel
    starts = np.searchsorted(pair_i, np.arange(n + 1))
    pj_list = pair_j.tolist()
    merged = []
    processed = np.zeros(n, dtype=bool)
    for i in range(n):
        if processed[i]:
            continue
        processed[i] = True
        dups = [i]
        for k in pj_list[starts[i]:starts[i + 1]]:
            if processed[k]:
                continue
            if _sim_feat(feats[i], feats[k], threshold, lev_memo) >= threshold:
                dups.append(k)
                processed[k] = True
        merged.append(_merge_fuzzy([locs[idx] for idx in dups]))
    return merged


def block_key(loc: dict) -> str:
    """Blocking key for distributed fuzzy dedup: source host ∥ (normalized
    postcode, else coarse geo cell (0.05° ≈ 5 km, the haversine cutoff),
    else city prefix).

    Host scoping is faithful: the reference's fuzzy dedup runs within ONE
    crawl/site (crawler.service.js:187-190 site-wide at 0.85) and never
    across sites, so cross-host pairs are out of scope by construction —
    and it bounds block sizes at web scale (a block is one host × one
    postcode). Within-block scan follows global discovery_seq order."""
    from urllib.parse import urlsplit
    src = (loc.get("source_url") or "").split(",")[0].strip()
    host = urlsplit(src).netloc if src else ""
    p = _g(loc, "postcode", "postal_code")
    if p:
        return f"{host}|p:" + dedup_norm_postcode(p)
    la, lo = loc.get("latitude"), loc.get("longitude")
    if la and lo:
        try:
            return f"{host}|g:{round(float(la) / 0.05)}:{round(float(lo) / 0.05)}"
        except ValueError:
            pass
    c = (_g(loc, "street_or_city", "city") or _g(loc, "location_address", "address") or "")[:16].lower()
    return f"{host}|c:" + re.sub(r"[^a-z0-9]", "", c)


def _fuzzy_group(g: pd.DataFrame) -> pd.DataFrame:
    g = _seq_sort(g)
    out = fuzzy_dedup_greedy(g.to_dict("records"))
    res = pd.DataFrame(out)
    res = res.drop(columns=[c for c in ("merged_from",) if c not in g.columns
                            and c in res.columns], errors="ignore")
    # restore the input dtypes: the dict round-trip widens float32/int32
    # to float64/int64, which made nonempty reduce blocks disagree with
    # empty-partition block schemas (Ray Data then warns and re-dedups
    # schemas per block). Lossless — the values originated at the input
    # dtype, so the narrowing cast is exact.
    if len(res):
        res = res.astype({c: g.dtypes[c] for c in res.columns
                          if c in g.columns and res[c].dtype != g.dtypes[c]},
                         copy=False)
    return res


FUZZY_ALLPAIRS_MAX = 20_000  # per-host all-pairs bound (~2×10^8 screened
# pairs at numpy speed); politeness-bounded crawls stay far below it


def _fuzzy_host_group(g: pd.DataFrame) -> pd.DataFrame:
    """Per-host task. DEFAULT: the reference's site-wide all-pairs greedy
    scan (crawler.service.js:187-190 dedups per site) — affordable at
    realistic per-site sizes because fuzzy_dedup_greedy's inner loop is
    a vectorized upper-bound screen. Fidelity is exact: no pair of one
    host is ever separated by blocking (the round-1 postcode/geo blocks
    split mixed-completeness pairs AND same-type near-misses like
    adjacent postcodes or cell-edge coordinates).

    Pathological hosts above FUZZY_ALLPAIRS_MAX rows fall back to the
    fine postcode/geo/city blocks (bounded compute; the documented
    divergence: a qualifying pair crossing those blocks is missed —
    logged via the truncated scan)."""
    if len(g) <= FUZZY_ALLPAIRS_MAX:
        return _fuzzy_group(g)
    outs = [_fuzzy_group(sub) for _, sub in g.groupby("fuzzy_block", sort=True)]
    return pd.concat(outs, ignore_index=True) if outs else g.iloc[0:0]


def _add_fuzzy_keys(batch: pa.Table) -> pa.Table:
    """Append fuzzy_dedup's exchange key (fuzzy_host) and in-host block
    (fuzzy_block). block_key reads a handful of fields — convert only
    those columns, not the whole (potentially wide) row."""
    need = [c for c in ("source_url", "postcode", "postal_code",
                        "latitude", "longitude", "street_or_city",
                        "city", "location_address", "address")
            if c in batch.column_names]
    cols = {c: batch.column(c).to_pylist() for c in need}
    keys = [block_key({c: cols[c][i] for c in need})
            for i in range(batch.num_rows)]
    hosts = [k.split("|", 1)[0] for k in keys]
    out = batch.append_column("fuzzy_block", pa.array(keys, pa.string()))
    return out.append_column("fuzzy_host", pa.array(hosts, pa.string()))


def fuzzy_dedup(ds, prepare=None, finish=None):
    """D3 distributed: shuffle keyed by HOST (the crawl's single partition
    key — the reference dedups within one site, crawler.service.js:187-190),
    with postcode/geo-cell/city blocking applied within the host task.
    Skew note: a host's per-round size is already capped by the politeness
    budget; a pathological host can be salted into (host, postcode-range)
    sub-shards without changing results because blocks never span salts.

    The exchange is the raw-task hash shuffle (stages/shuffles.py; the
    sort-based ``groupby().map_groups`` cost ~4 s of fixed all-to-all
    overhead per run on these tiny rows). _fuzzy_host_group imposes its
    own total scan order, so arrival order and partition count are
    invisible in the output rows (tests: scalar greedy per host).
    ``prepare`` (pa.Table -> pa.Table, row-wise: input rows to location
    rows) runs in the split tasks before the key derivation; ``finish``
    (pa.Table -> pa.Table, row-wise) runs on the deduplicated rows
    inside the reduce tasks.

    Execution timing: this runs EAGERLY — it executes the upstream
    pipeline once, runs the split wave at call time and returns the
    materialized reduce outputs (stages/shuffles.hash_map_groups)."""
    # key derivation rides inside the shuffle's split tasks — no separate
    # map_batches job for it
    from .shuffles import hash_map_groups
    keys = _add_fuzzy_keys if prepare is None else (
        lambda t: _add_fuzzy_keys(prepare(t)))
    return hash_map_groups(ds, "fuzzy_host", _fuzzy_host_group,
                           prepare=keys, finish=finish)


# ---------------------------------------------------------------------------
# E13: legacy scraper dedup variants (scraper.service.js:105-189)
# ---------------------------------------------------------------------------

def scraper_dedup_simple(locations: list[dict]) -> list[dict]:
    """removeDuplicates (:105-113): first-seen on lowercased trimmed address."""
    seen: set[str] = set()
    out = []
    for loc in locations:
        key = (loc.get("address") or "").lower().strip()
        if key not in seen:
            seen.add(key)
            out.append(loc)
    return out


_SCRAPER_PUNCT_RE = re.compile(r"[.,\-]")
_SCRAPER_WS_RE = re.compile(r"\s+")
_SCRAPER_NUM_RE = re.compile(r"\d+")


def _scraper_norm(addr: str) -> str:
    return _SCRAPER_WS_RE.sub(" ", _SCRAPER_PUNCT_RE.sub(" ", addr.lower())).strip()


def scraper_similarity(s1: str, s2: str) -> float:
    """calculateSimilarity (:178-189) — JS quirks preserved: words1
    duplicates each count once per occurrence; denominator is the union
    SET size; ''.split(' ') yields the [''] singleton."""
    words1 = s1.split(" ")
    words2 = s2.split(" ")
    all_words = set(words1) | set(words2)
    common = sum(1 for w in words1 if w in words2)
    return common / len(all_words)


def scraper_is_similar(a1: str, a2: str) -> bool:
    """isSimilarAddress (:155-175): same first number (street) AND same
    last number (zip) when both have >=2 numbers, else word-overlap > 0.7."""
    n1 = _SCRAPER_NUM_RE.findall(a1)
    n2 = _SCRAPER_NUM_RE.findall(a2)
    if len(n1) >= 2 and len(n2) >= 2 and n1[0] == n2[0] and n1[-1] == n2[-1]:
        return True
    return scraper_similarity(a1, a2) > 0.7


def scraper_dedup_improved(locations: list[dict]) -> list[dict]:
    """removeDuplicatesImproved (:115-152), verbatim semantics including
    the quirks: the seen map scans in insertion order and BREAKS on the
    first similar key; a longer-raw-address duplicate REPLACES the kept
    row (matched by raw address) and its normalized key is ADDED while
    the old key stays in the map; an equal-or-shorter duplicate changes
    nothing."""
    seen: dict[str, dict] = {}
    unique: list[dict] = []
    for loc in locations:
        norm = _scraper_norm(loc.get("address") or "")
        is_dup = False
        # list() snapshot: the replace branch inserts seen[norm] mid-scan;
        # today both loops break right after, but iterating a snapshot
        # keeps the mutation safe by construction (the JS Map loop also
        # stops at the first match, so semantics are unchanged)
        for key, value in list(seen.items()):
            if scraper_is_similar(norm, key):
                is_dup = True
                if len(loc.get("address") or "") > len(value.get("address") or ""):
                    for idx, u in enumerate(unique):
                        if u.get("address") == value.get("address"):
                            unique[idx] = loc
                            seen[norm] = loc
                            break
                break
        if not is_dup:
            unique.append(loc)
            seen[norm] = loc
    return unique


def _scraper_group(g: pd.DataFrame) -> pd.DataFrame:
    g = _seq_sort(g)
    out = scraper_dedup_improved(g.to_dict("records"))
    return pd.DataFrame(out) if out else g.iloc[0:0]


def dedup_scraper_improved(ds):
    """E13 improved dedup as a selectable distributed strategy: keyed by
    host (the engine's single partition key — the legacy scraper dedups
    within one scrape), scan in discovery_seq order inside the group."""
    def add_host(batch: pa.Table) -> pa.Table:
        from urllib.parse import urlsplit
        srcs = (batch.column("source_url").to_pylist()
                if "source_url" in batch.column_names
                else [""] * batch.num_rows)
        hosts = [urlsplit((s or "").split(",")[0].strip()).netloc for s in srcs]
        return batch.append_column("scr_host", pa.array(hosts, pa.string()))
    return (ds.map_batches(add_host, batch_format="pyarrow")
              .groupby("scr_host")
              .map_groups(_scraper_group, batch_format="pandas"))


# ---------------------------------------------------------------------------
# D4: cross-page squashed-address dedup (crawler.service.js:206-235)
# ---------------------------------------------------------------------------

def _d4_group(g: pd.DataFrame) -> pd.DataFrame:
    def n_filled(row) -> int:
        return sum(1 for v in row if v not in (None, "") and not
                   (isinstance(v, float) and np.isnan(v)))
    if "discovery_seq" in g.columns:
        g = _seq_sort(g)
    best, best_n = None, -1
    for i in range(len(g)):
        n = n_filled(g.iloc[i])
        if n > best_n:  # strict > keeps the FIRST max (reference keeps existing on tie)
            best, best_n = i, n
    return g.iloc[[best]]


def dedup_cross_page(ds, addr_col: str = "location_address"):
    def add_key(batch: pa.Table) -> pa.Table:
        addrs = batch.column(addr_col).to_pylist()
        keys = [squash_address(a or "") for a in addrs]
        keys = [k if len(k) >= 10 else "" for k in keys]
        return batch.append_column("squash_key", pa.array(keys, pa.string()))
    ds = ds.map_batches(add_key, batch_format="pyarrow")
    keyed = ds.filter(lambda r: r["squash_key"] != "")
    unkeyed = ds.filter(lambda r: r["squash_key"] == "")
    return keyed.groupby("squash_key").map_groups(_d4_group, batch_format="pandas").union(unkeyed)


# ---------------------------------------------------------------------------
# Content-hash dedup service — stateful actor-pool stage (north star)
# ---------------------------------------------------------------------------

# the content-hash set is the URL-seen shard keyed on content hashes
ContentHashShard = SeenShard


class ContentDedupStage:
    """map_batches stage that drops rows whose content hash was already seen
    ANYWHERE in the run (cross-partition exact dedup via shard actors).

    NOTE: first-wins is arrival-order dependent across parallel tasks;
    for deterministic output use ``exact_dedup`` (groupby) instead. This
    stage exists for the streaming path where a shuffle is too expensive
    and any single representative is acceptable (north-star dedup
    service over content hashes).
    """

    def __init__(self, shards: list, text_col: str = "text"):
        self.shards = shards
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch.column(self.text_col).cast(pa.string()), "")
        h = hash64_many(texts.to_pylist())
        # within the batch the first occurrence of a hash is the candidate
        _, first = np.unique(h, return_index=True)
        keep = np.zeros(len(h), dtype=bool)
        keep[first] = scatter_check_and_add(self.shards, h[first])
        return batch.filter(pa.array(keep))


# ---------------------------------------------------------------------------
# Training-data dedup over the `documents` table
# ---------------------------------------------------------------------------

def add_text_hash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    texts = batch.column(text_col).to_pylist()
    out = np.empty(len(texts), dtype=np.uint64)
    for i, t in enumerate(texts):
        out[i] = int.from_bytes(
            hashlib.blake2b((t or "").encode(), digest_size=8).digest(), "big")
    return batch.append_column("text_hash", pa.array(out, pa.uint64()))


def exact_dedup(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Exact dedup: hash-partitioned groupby, keep min id (deterministic).

    Scale: the shuffle key is a uniform 64-bit hash — no skew; partial
    within-batch dedup happens for free because groupby sorts by key.
    """
    ds = ds.map_batches(lambda b: add_text_hash(b, text_col), batch_format="pyarrow")

    def first_per_group(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(id_col).head(1)

    return ds.groupby("text_hash").map_groups(first_per_group, batch_format="pandas")


# --- MinHash + LSH -----------------------------------------------------------

_MERSENNE = (1 << 61) - 1


def _minhash_params(n_perm: int, seed: int = 1) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=n_perm, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, _MERSENNE, size=n_perm, dtype=np.int64).astype(np.uint64)
    return a, b


_WORD_RE = re.compile(r"\w+")
# ASCII twin for the md5 oracle variants: DuckDB RE2's \w is ASCII-only,
# Python re's \w is Unicode-aware — they agree only on pure-ASCII text.
# The md5 pipelines tokenize with this class so oracle parity holds on
# any input (ADVICE r3).
_WORD_RE_ASCII = re.compile(r"[0-9A-Za-z_]+")


_WORD_HASH_CACHE: dict[str, int] = {}
_SHINGLE_B = np.uint64(0x100000001B3)  # FNV-ish odd multiplier


def shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """k-word shingles -> 64-bit hashes.

    Vectorized: one blake2b per DISTINCT word (process-wide cache — real
    corpora repeat words heavily), then the k-gram hash is a numpy
    rolling polynomial combine of the word hashes (wraparound uint64
    multiply-add). Deterministic across processes; uniformity equals the
    underlying blake2b word hashes.
    """
    words = _WORD_RE.findall((text or "").lower())
    if len(words) < k:
        words = words + [""] * (k - len(words))
    cache = _WORD_HASH_CACHE
    wh = np.empty(len(words), dtype=np.uint64)
    for i, w in enumerate(words):
        h = cache.get(w)
        if h is None:
            h = int.from_bytes(hashlib.blake2b(w.encode(), digest_size=8).digest(), "big")
            if len(cache) < 1_000_000:
                cache[w] = h
        wh[i] = h
    n = max(1, len(words) - k + 1)
    with np.errstate(over="ignore"):
        acc = wh[0:n].copy()
        for j in range(1, k):
            acc = acc * _SHINGLE_B + wh[j:j + n]
    return acc


def minhash_signature(sh: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a*x + b) mod p minwise over shingles — one numpy outer product."""
    x = (sh[:, None] * a[None, :] + b[None, :]) % np.uint64(_MERSENNE)
    return x.min(axis=0)


class MinHashStage:
    """map_batches stage: text -> (band_id, band_hash, doc_id) exploded rows."""

    def __init__(self, n_perm: int = 64, n_bands: int = 16, k: int = 3,
                 id_col: str = "doc_id", text_col: str = "text"):
        assert n_perm % n_bands == 0
        self.a, self.b = _minhash_params(n_perm)
        self.n_bands = n_bands
        self.rows_per_band = n_perm // n_bands
        self.k = k
        self.id_col, self.text_col = id_col, text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_pylist()
        texts = batch.column(self.text_col).to_pylist()
        o_id, o_band, o_hash = [], [], []
        for i, t in zip(ids, texts):
            sig = minhash_signature(shingle_hashes(t, self.k), self.a, self.b)
            for bd in range(self.n_bands):
                seg = sig[bd * self.rows_per_band:(bd + 1) * self.rows_per_band]
                bh = int.from_bytes(
                    hashlib.blake2b(seg.tobytes(), digest_size=8).digest(), "big")
                o_id.append(i)
                o_band.append(bd)
                o_hash.append(bh)
        return pa.table({self.id_col: pa.array(o_id),
                         "band_id": pa.array(o_band, pa.int32()),
                         "band_hash": pa.array(o_hash, pa.uint64())})


def minhash_candidate_pairs(ds, n_perm: int = 64, n_bands: int = 16, k: int = 3,
                            id_col: str = "doc_id", text_col: str = "text"):
    """documents -> candidate near-dup pairs (id_a < id_b), deduped.

    Shuffle: groupby (band_id, band_hash) — bucket sizes are bounded in
    practice; a hot bucket (boilerplate cluster) is capped inside
    map_groups to the first 64 docs by id (logged via `truncated` col).
    """
    bands = ds.map_batches(MinHashStage(n_perm, n_bands, k, id_col, text_col),
                           batch_format="pyarrow")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = sorted(g[id_col].tolist())
        ids = ids[:64]  # hot-bucket cap (documented truncation)
        out_a, out_b = [], []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                out_a.append(ids[i])
                out_b.append(ids[j])
        return pd.DataFrame({"id_a": out_a, "id_b": out_b})

    p = bands.groupby(["band_id", "band_hash"]).map_groups(pairs, batch_format="pandas")

    def dd(g: pd.DataFrame) -> pd.DataFrame:
        return g.head(1)

    return p.groupby(["id_a", "id_b"]).map_groups(dd, batch_format="pandas")


def _banded_pairs_bucket(g: pd.DataFrame, id_col: str,
                         cap: int = 64) -> pd.DataFrame:
    """All in-signature pairs for one coarse bucket of (band_id,
    band_hash) groups, numpy-vectorized (sort -> segment boundaries ->
    triu-emit -> in-bucket dedup). Same candidate set as the historical
    per-signature pandas groups: unique sorted ids per signature, capped
    at the first ``cap`` (the documented hot-bucket truncation)."""
    empty = pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                          "id_b": pd.Series([], dtype=np.int64)})
    if len(g) < 2:
        return empty
    g = g.sort_values(["band_id", "band_hash", id_col], kind="mergesort")
    bid = g["band_id"].to_numpy()
    bh = g["band_hash"].to_numpy()
    ids = g[id_col].to_numpy()
    new = np.r_[True, (bid[1:] != bid[:-1]) | (bh[1:] != bh[:-1])]
    starts = np.flatnonzero(new)
    ends = np.r_[starts[1:], len(bid)]
    out_a, out_b = [], []
    for s, e in zip(starts, ends):
        if e - s < 2:
            continue
        u = np.unique(ids[s:e])[:cap]
        if len(u) < 2:
            continue
        ia, ib = np.triu_indices(len(u), k=1)
        out_a.append(u[ia])
        out_b.append(u[ib])
    if not out_a:
        return empty
    ab = np.stack([np.concatenate(out_a), np.concatenate(out_b)], axis=1)
    uniq = np.unique(ab, axis=0)
    return pd.DataFrame({"id_a": uniq[:, 0].astype(np.int64),
                         "id_b": uniq[:, 1].astype(np.int64)})


def minhash_candidate_pairs_df(ds, n_perm: int = 64, n_bands: int = 16,
                               k: int = 3, id_col: str = "doc_id",
                               text_col: str = "text") -> pd.DataFrame:
    """Candidate pairs as a (small) driver DataFrame.

    Same candidates as ``minhash_candidate_pairs`` but (a) the exchange
    is the raw-task int-key shuffle with MinHash signatures computed
    INSIDE the split tasks and a vectorized triu-emit once per coarse
    bucket (the per-signature pandas groups dominated q:minhash_dedup
    wall time), and (b) the cross-band dedup is a driver-side
    ``drop_duplicates`` over the O(pairs) frame instead of a second full
    shuffle — the pair set is bounded by the hot-bucket cap, so this is
    strictly metadata-sized. Preferred by the verify paths (queries /
    curation), which pull the pairs to the driver anyway for the
    broadcast pair map."""
    from .shuffles import int_part_map
    stage = MinHashStage(n_perm, n_bands, k, id_col, text_col)

    def prep(t: pa.Table) -> pa.Table:
        out = stage(t)
        mix = (out.column("band_hash").to_numpy().astype(np.uint64)
               * np.uint64(0x9E3779B97F4A7C15)
               + out.column("band_id").to_numpy().astype(np.uint64))
        return out.append_column(
            "sig_bucket", pa.array((mix % np.uint64(256)).astype(np.int32),
                                   pa.int32()))

    p = int_part_map(ds, "sig_bucket",
                     lambda df: _banded_pairs_bucket(df, id_col),
                     num_partitions=64, prepare=prep).to_pandas()
    return (p.drop_duplicates()
            .sort_values(["id_a", "id_b"]).reset_index(drop=True))


def jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    a = set(shingle_hashes(text_a, k).tolist())
    b = set(shingle_hashes(text_b, k).tolist())
    if not a and not b:
        return 1.0
    return len(a & b) / max(1, len(a | b))


# --- distributed candidate-pair Jaccard verification -------------------------
# The 100 TB path: the corpus NEVER reaches the driver. The candidate-pair
# list (O(pairs), tiny relative to the corpus) is broadcast once via
# ray.put; one streaming map_batches pass over the texts emits per-pair
# shingle SETS for candidate docs only; one groupby(pair_id) shuffle
# (O(pairs × shingles) rows) joins the two sides and computes exact
# Jaccard inside the task. The driver materializes only the verified-pair
# table. When |pairs| outgrows the broadcast budget, the same shape
# becomes a Dataset join of the pair table against texts on id — the
# verify stage is unchanged.

_PAIRMAP_CACHE: dict[str, dict] = {}


def _pair_map(ref) -> dict:
    """Per-worker cache of the broadcast pair map (read once per worker)."""
    key = ref.hex()
    hit = _PAIRMAP_CACHE.get(key)
    if hit is None:
        hit = ray.get(ref)
        _PAIRMAP_CACHE.clear()
        _PAIRMAP_CACHE[key] = hit
    return hit


def _emit_pair_shingles(batch: pa.Table, ref, k: int, id_col: str,
                        text_col: str) -> pa.Table:
    pm = _pair_map(ref)
    ids = batch.column(id_col).to_pylist()
    texts = batch.column(text_col).to_pylist()
    o_pid: list[int] = []
    o_id: list[int] = []
    o_sh: list[np.ndarray] = []
    for i, t in zip(ids, texts):
        entries = pm.get(int(i))
        if not entries:
            continue
        sh = np.unique(shingle_hashes(t, k))
        for pid in entries:
            o_pid.append(pid)
            o_id.append(int(i))
            o_sh.append(sh)
    return pa.table({"pair_id": pa.array(o_pid, pa.int64()),
                     "member_id": pa.array(o_id, pa.int64()),
                     "shingles": pa.array(o_sh, pa.list_(pa.uint64()))})


def _pair_jaccard_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """Exact Jaccard for one hash bucket of pair ids: walk the sorted
    (pair_id, member_id) segments and intersect each pair's shingle
    arrays — per-pair numpy, no per-pair pandas group machinery. A pair
    with a member missing from the corpus is unverifiable and dropped."""
    empty = pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                          "id_b": pd.Series([], dtype=np.int64),
                          "jaccard": pd.Series([], dtype=np.float64)})
    if len(g) < 2:
        return empty
    g = g.sort_values(["pair_id", "member_id"], kind="mergesort")
    pid = g["pair_id"].to_numpy()
    first = np.r_[True, pid[1:] != pid[:-1]]
    starts = np.flatnonzero(first)
    counts = np.diff(np.r_[starts, len(pid)])
    two = starts[counts == 2]  # pairs with both members present
    if two.size == 0:
        return empty
    mem = g["member_id"].to_numpy()
    sh = g["shingles"].to_numpy()
    out_j = np.empty(two.size, dtype=np.float64)
    for i, s in enumerate(two):
        a = np.asarray(sh[s], dtype=np.uint64)
        b = np.asarray(sh[s + 1], dtype=np.uint64)
        if a.size == 0 and b.size == 0:
            out_j[i] = 1.0  # mirrors jaccard()'s both-empty case
        else:
            inter = np.intersect1d(a, b, assume_unique=True).size
            out_j[i] = inter / max(1, a.size + b.size - inter)
    return pd.DataFrame({"id_a": mem[two].astype(np.int64),
                         "id_b": mem[two + 1].astype(np.int64),
                         "jaccard": out_j})


def verify_jaccard_pairs(texts_ds, pairs: pd.DataFrame, k: int = 3,
                         id_col: str = "doc_id",
                         text_col: str = "text") -> pd.DataFrame:
    """Exact k-shingle Jaccard for each candidate pair, computed
    DISTRIBUTIVELY (values identical to ``jaccard()`` on the pair texts
    — asserted in tests). Returns (id_a, id_b, jaccard), O(pairs) rows.

    ``pairs`` must have id_a < id_b columns (minhash_candidate_pairs
    output). Driver memory: the pair map + the verified result, never
    the corpus.
    """
    if len(pairs) == 0:
        return pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                             "id_b": pd.Series([], dtype=np.int64),
                             "jaccard": pd.Series([], dtype=np.float64)})
    need: dict[int, list[int]] = {}
    for pid, (a, b) in enumerate(zip(pairs["id_a"], pairs["id_b"])):
        need.setdefault(int(a), []).append(pid)
        need.setdefault(int(b), []).append(pid)
    ref = ray.put(need)
    from .shuffles import int_part_map

    def prep(t: pa.Table) -> pa.Table:
        out = _emit_pair_shingles(t, ref, k, id_col, text_col)
        bucket = (out.column("pair_id").to_numpy() % 64).astype(np.int32)
        return out.append_column("pair_bucket",
                                 pa.array(bucket, pa.int32()))

    out = int_part_map(texts_ds, "pair_bucket", _pair_jaccard_bucket,
                       num_partitions=64, prepare=prep).to_pandas()
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def union_find_drop_set(verified: pd.DataFrame) -> set[int]:
    """Union-find over the (tiny) verified-pair set: returns the ids to
    DROP (everything but the min id of each connected component)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    members: set[int] = set()
    for r in verified.itertuples():
        a, b = int(r.id_a), int(r.id_b)
        members.add(a)
        members.add(b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {i for i in members if find(i) != i}


def drop_duplicates_by_pairs(ds, pairs, id_col: str = "doc_id",
                             driver_limit: int | None = None,
                             num_partitions: int = 8):
    """Resolve verified duplicate PAIRS into connected components and
    drop every member except the component minimum — the clustering
    tail of every near-dup pipeline (reference semantics:
    enhanced-deduplication.service.js keeps the first of each group).

    ``pairs`` is a pandas DataFrame or Dataset with (id_a, id_b).
    Below ``driver_limit`` edges (default stages/graph.DRIVER_CC_MAX)
    the union-find runs driver-side and the O(drop) id set broadcasts
    into a streamed ``np.isin`` filter — right while pairs fit one
    machine. Above it — or when forced with ``driver_limit=0`` — the
    components run as the distributed min-label propagation
    (stages/graph.py) and the drop is the keyed shuffled anti-join
    (relational.semi_join_shuffled), so neither the pair graph nor the
    corpus ever materializes on the driver. Output identical either
    way (pinned in tests/test_graph_hh.py)."""
    import pandas as pd
    import ray.data as rd
    from .graph import DRIVER_CC_MAX, connected_components
    if driver_limit is None:
        driver_limit = DRIVER_CC_MAX

    if isinstance(pairs, pd.DataFrame):
        edges_tbl = pa.table({
            "src": pa.array(pairs["id_a"].to_numpy(np.int64)),
            "dst": pa.array(pairs["id_b"].to_numpy(np.int64))})
        edges = rd.from_arrow(edges_tbl)
    else:
        edges = pairs.map_batches(
            lambda t: pa.table({"src": t.column("id_a").cast(pa.int64()),
                                "dst": t.column("id_b").cast(pa.int64())}),
            batch_format="pyarrow")

    cc = connected_components(edges, driver_limit=driver_limit,
                              num_partitions=num_partitions)
    if isinstance(cc, pa.Table):  # driver path: broadcast the drop set
        node = cc.column("node").to_numpy(zero_copy_only=False)
        comp = cc.column("component").to_numpy(zero_copy_only=False)
        return drop_ids(ds, set(node[node != comp].tolist()), id_col)
    # distributed path: (node != component) rows are the drops; remove
    # them with the shuffled anti-join — one keyed exchange, no driver.
    from .relational import semi_join_shuffled

    def _drops(t: pa.Table) -> pa.Table:
        keep = pc.not_equal(t.column("node"), t.column("component"))
        return pa.table({id_col: t.column("node").filter(keep)})

    drops = cc.map_batches(_drops, batch_format="pyarrow")
    return semi_join_shuffled(ds, drops, id_col, anti=True,
                              num_partitions=num_partitions)


def drop_ids(ds, dropped: set[int], id_col: str = "doc_id"):
    """Anti-join a (small, broadcast) drop set against a Dataset:
    vectorized np.isin inside map_batches — the corpus streams."""
    drop_arr = np.sort(np.fromiter(dropped, dtype=np.int64, count=len(dropped)))
    dref = ray.put(drop_arr)

    def f(t: pa.Table) -> pa.Table:
        d = ray.get(dref)
        ids = t.column(id_col).to_numpy()
        return t.filter(pa.array(~np.isin(ids, d)))

    return ds.map_batches(f, batch_format="pyarrow")


# --- SimHash -----------------------------------------------------------------

# Per-worker word-hash memo: text corpora repeat words heavily, so each
# worker process hashes a given word at most once per hash_fn. Bounded to
# keep worker heaps flat at 100 TB text volumes (cleared wholesale when
# full — a memo, not a correctness structure).
_WORD_HASH_MEMO: dict[str, dict[str, int]] = {"blake2b": {}, "md5": {}}
_WORD_HASH_MEMO_CAP = 1_000_000


def _word_hash64(w: str, hash_fn: str = "blake2b") -> int:
    """64-bit word hash. ``blake2b`` is the default engine hash;
    ``md5`` is the DuckDB-reproducible variant — the low 8 digest bytes
    read little-endian, matching DuckDB's ``md5_number_lower(w)``
    (validated in tests), which makes simhash/fingerprint queries
    oracle-checkable."""
    memo = _WORD_HASH_MEMO[hash_fn]
    h = memo.get(w)
    if h is None:
        if len(memo) >= _WORD_HASH_MEMO_CAP:
            memo.clear()
        if hash_fn == "md5":
            h = int.from_bytes(hashlib.md5(w.encode()).digest()[8:], "little")
        else:
            h = int.from_bytes(
                hashlib.blake2b(w.encode(), digest_size=8).digest(), "big")
        memo[w] = h
    return h


def simhash64(text: str, hash_fn: str = "blake2b") -> int:
    """Classic 64-bit simhash over word features (scalar reference form)."""
    return int(simhash64_batch([text], hash_fn=hash_fn)[0])


def simhash64_batch(texts, hash_fn: str = "blake2b") -> np.ndarray:
    """Vectorized batch simhash — identical output to the per-doc scalar
    definition (acc[i] += bit_i(blake2b64(word)) ? +1 : -1; out bit i set
    iff acc[i] > 0, i.e. 2*ones[i] > n_words).

    One bit-matrix pass per batch: memoized per-word hashes, a single
    ``np.unpackbits`` over all words of all docs, and ``np.add.reduceat``
    at doc boundaries — no per-word numpy ops (the round-2 bench showed a
    64-lane op per WORD dominating q:simhash).

    Word model: ``\\w+`` (Python re, Unicode-aware) for the default
    blake2b hash; the ``md5`` oracle variant uses the ASCII class
    ``[0-9A-Za-z_]+`` so tokenization matches DuckDB RE2's ASCII ``\\w``
    on ANY input (e.g. 'straße' -> ['stra','e'] on both sides), not just
    the pure-ASCII sf corpora."""
    n_docs = len(texts)
    out = np.zeros(n_docs, dtype=np.uint64)
    if n_docs == 0:
        return out
    word_re = _WORD_RE_ASCII if hash_fn == "md5" else _WORD_RE
    word_lists = [word_re.findall((t or "").lower()) for t in texts]
    lengths = np.array([len(ws) for ws in word_lists], dtype=np.int64)
    nonempty = np.flatnonzero(lengths > 0)
    if nonempty.size == 0:
        return out
    # Factorize (C-speed) so blake2b runs once per UNIQUE word, then gather.
    codes, uniques = pd.factorize(
        np.concatenate([np.asarray(ws, dtype=object) for ws in word_lists
                        if ws]))
    uniq_h = np.fromiter((_word_hash64(w, hash_fn) for w in uniques),
                         dtype=np.uint64, count=len(uniques))
    flat = uniq_h[codes]
    # (n_words, 64) bit matrix; byte 0 of a native-little-endian uint64 is
    # the LSB, so bitorder="little" puts bit i of h in column i.
    bits = np.unpackbits(flat.view(np.uint8).reshape(-1, 8), axis=1,
                         bitorder="little")
    ne_lens = lengths[nonempty]
    # Segment sums: per-doc uint8 .sum(axis=0) is a pairwise C reduction —
    # measured ~20x faster than cumsum/reduceat variants at 250k words.
    ones = np.empty((ne_lens.size, 64), dtype=np.int64)
    s = 0
    for i, ln in enumerate(ne_lens):
        ones[i] = bits[s:s + ln].sum(axis=0)
        s += ln
    mask = (2 * ones) > ne_lens[:, None]
    powers = np.uint64(1) << np.arange(64, dtype=np.uint64)
    out[nonempty] = (mask.astype(np.uint64) * powers).sum(axis=1)
    return out


class SimHashStage:
    def __init__(self, id_col: str = "doc_id", text_col: str = "text",
                 hash_fn: str = "blake2b"):
        self.id_col, self.text_col, self.hash_fn = id_col, text_col, hash_fn

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        h = simhash64_batch(texts, hash_fn=self.hash_fn)
        return batch.append_column("simhash", pa.array(h, pa.uint64()))


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


class SimHashBandStage:
    """map_batches stage: text -> 4 exploded (band_id, band_val) rows per
    doc, carrying the full 64-bit simhash for in-bucket verification."""

    def __init__(self, id_col: str = "doc_id", text_col: str = "text",
                 hash_fn: str = "blake2b"):
        self.id_col, self.text_col, self.hash_fn = id_col, text_col, hash_fn

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy()
        texts = batch.column(self.text_col).to_pylist()
        sigs = simhash64_batch(texts, hash_fn=self.hash_fn)
        n = len(sigs)
        bands = np.arange(4, dtype=np.int32)
        o_id = np.repeat(ids.astype(np.int64), 4)
        o_band = np.tile(bands, n)
        o_val = ((sigs[:, None] >> (np.uint64(16) * bands.astype(np.uint64)))
                 & np.uint64(0xFFFF)).astype(np.int32).ravel()
        o_sig = np.repeat(sigs, 4)
        return pa.table({self.id_col: pa.array(o_id, pa.int64()),
                         "band_id": pa.array(o_band, pa.int32()),
                         "band_val": pa.array(o_val, pa.int32()),
                         "simhash": pa.array(o_sig, pa.uint64())})


def simhash_near_dup_pairs(ds, max_hamming: int = 3, id_col: str = "doc_id",
                           text_col: str = "text",
                           hash_fn: str = "blake2b") -> pd.DataFrame:
    """SimHash near-duplicate pairs (id_a < id_b, Hamming ≤ max_hamming).

    Banding on the 4 × 16-bit chunks of the fingerprint: a pair within
    Hamming 3 differs in at most 3 chunks, so by PIGEONHOLE it agrees
    exactly on at least one — candidate recall is 1.0 (not
    probabilistic) for max_hamming ≤ 3. One groupby on (band_id,
    band_val); exact Hamming verification runs inside the bucket task
    (the full simhash rides with the row — no second pass over texts);
    the driver sees only qualifying pairs, deduped across bands with an
    O(pairs) drop_duplicates."""
    assert max_hamming <= 3, "4-band pigeonhole guarantees recall only to 3"
    bands = ds.map_batches(SimHashBandStage(id_col, text_col, hash_fn),
                           batch_format="pyarrow")

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(subset=[id_col]).sort_values(id_col).head(64)
        ids = g[id_col].to_numpy()
        sigs = g["simhash"].to_numpy()
        out_a, out_b, out_h = [], [], []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                d = hamming64(int(sigs[i]), int(sigs[j]))
                if d <= max_hamming:
                    out_a.append(int(ids[i]))
                    out_b.append(int(ids[j]))
                    out_h.append(d)
        return pd.DataFrame({"id_a": out_a, "id_b": out_b, "hamming": out_h})

    p = bands.groupby(["band_id", "band_val"]).map_groups(
        bucket_pairs, batch_format="pandas").to_pandas()
    return (p.drop_duplicates(subset=["id_a", "id_b"])
            .sort_values(["id_a", "id_b"]).reset_index(drop=True))
