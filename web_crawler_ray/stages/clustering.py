"""Distributed k-means (Lloyd's) over an embedding column — the
cluster-based curation step of large training-data pipelines
(cluster-then-balance / SemDeDup-style semantic grouping, public
techniques). The reference engine has no clustering; this extends the
similarity family (SURVEY §2 LLM-pipeline add-ons) the same way ANN and
near-dup do.

Scale shape per iteration: centroids (k x dim floats) are ``ray.put``
ONCE and every batch computes assignments + per-cluster partial sums
vectorized (one matmul); the driver reduces k x dim partials per batch —
O(k * dim * n_batches) driver traffic, NO shuffle, the dataset streams.
Assignment is a final stateless map_batches pass.

Determinism: init = k-means++ on a bounded hash-sampled subset with a
FIXED seed (hash ordering decorrelates the sample from id/block layout,
so sequential/planted id ranges don't collapse the init into one blob);
partial sums are combined in a deterministic order (sorted by each
batch's min id) so float addition order — hence every centroid — is
reproducible run to run for a fixed dataset.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from ..functions.hashing import hash64_many
from .shuffles import arrow_refs


def _stack(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    a = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = a.values.to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(len(a), -1)


def _plusplus_init(sample: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Deterministic k-means++ over the driver-side sample (m x dim)."""
    rng = np.random.default_rng(seed)
    idx = [int(rng.integers(len(sample)))]
    for _ in range(1, k):
        C = sample[idx]
        d2 = ((sample[:, None, :] - C[None]) ** 2).sum(-1).min(1)
        tot = d2.sum()
        p = d2 / tot if tot > 0 else None
        idx.append(int(rng.choice(len(sample), p=p)))
    return sample[idx].copy()


def kmeans_fit(ds, k: int = 4, iters: int = 10, col: str = "embedding",
               id_col: str = "vec_id", init_sample: int = 1024,
               seed: int = 0xC0FFEE) -> np.ndarray:
    """Fit k centroids with Lloyd's iterations; returns (k, dim) float64.

    Init: the ``init_sample`` rows with the smallest blake2b(id) (a
    deterministic uniform sample whatever the id/block layout — a
    driver pull bounded at m x dim floats), then k-means++ with a fixed
    seed. Empty clusters keep their previous centroid (deterministic,
    no reseeding). ``iters`` is fixed (no data-dependent stopping) so
    the pass count is known and the job is resumable mid-schedule.
    """
    def add_h(t: pa.Table) -> pa.Table:
        h = hash64_many([str(v) for v in t.column(id_col).to_pylist()])
        return t.append_column("__h", pa.array(h.astype(np.uint64)))

    samp = (ds.map_batches(add_h, batch_format="pyarrow")
              .sort("__h").limit(init_sample).to_pandas())
    sample = np.stack([np.asarray(v, np.float64) for v in samp[col]])
    cent = _plusplus_init(sample, k, seed)

    for _ in range(iters):
        ref = ray.put(cent)

        def partial(t: pa.Table) -> pa.Table:
            C = ray.get(ref)
            X = _stack(t.column(col))
            d2 = (X * X).sum(1)[:, None] - 2.0 * (X @ C.T)
            a = (d2 + (C * C).sum(1)[None, :]).argmin(1)
            sums = np.zeros_like(C)
            np.add.at(sums, a, X)
            counts = np.bincount(a, minlength=len(C)).astype(np.int64)
            order = np.int64(t.column(id_col).to_numpy().min())
            return pa.table({
                "cluster": pa.array(np.arange(len(C), dtype=np.int64)),
                "count": pa.array(counts),
                "sum": pa.array(list(sums), pa.list_(pa.float64())),
                "batch_min_id": pa.array(np.full(len(C), order)),
            })

        parts = (ds.map_batches(partial, batch_format="pyarrow")
                   .to_pandas())  # k rows per batch — small by design
        parts = parts.sort_values(["batch_min_id", "cluster"],
                                  kind="mergesort")
        sums = np.zeros_like(cent)
        counts = np.zeros(k, np.int64)
        for _, row in parts.iterrows():
            c = int(row["cluster"])
            sums[c] += np.asarray(row["sum"], np.float64)
            counts[c] += int(row["count"])
        nonzero = counts > 0
        cent = cent.copy()
        cent[nonzero] = sums[nonzero] / counts[nonzero, None]
    return cent


def kmeans_assign(ds, centroids: np.ndarray, col: str = "embedding",
                  id_col: str = "vec_id"):
    """Assign every row to its nearest centroid — stateless streaming
    map_batches against the broadcast (k x dim) matrix."""
    ref = ray.put(np.asarray(centroids, np.float64))

    def assign(t: pa.Table) -> pa.Table:
        C = ray.get(ref)
        X = _stack(t.column(col))
        d2 = (X * X).sum(1)[:, None] - 2.0 * (X @ C.T) + (C * C).sum(1)[None, :]
        return pa.table({
            id_col: t.column(id_col),
            "cluster": pa.array(d2.argmin(1).astype(np.int64)),
        })

    return ds.map_batches(assign, batch_format="pyarrow")


def dbscan_geo(pts_ds, eps_deg: float, min_pts: int,
               cos_ref: float = 0.75, id_col: str = "id",
               lat_col: str = "la", lon_col: str = "lo"):
    """Deterministic DBSCAN over 2-D coordinates under the
    equirectangular metric — density clustering with noise, the
    spatial sibling of k-means (Ester et al.; the first-found border
    assignment of the textbook algorithm is made order-free here:
    border points take the MINIMUM cluster label among their core
    neighbors, and a cluster's label is the MINIMUM core id in its
    component, so output is independent of visit order). A point is
    CORE iff its closed eps-neighborhood has ≥ ``min_pts`` points
    (self included); core points cluster by eps-connectivity; border
    points attach; everything else is noise (label −1). All decisions
    are integer/compare-only on top of the exact squared-degree
    distances grid_distance_pairs emits — bit-exact vs SQL.

    Scale shape: candidate pairs come from grid_distance_pairs' 3×3
    cell-blocked exchange (O(density) per cell, one shuffle);
    core-core connectivity routes through connected_components
    (driver union-find below DRIVER_CC_MAX edges, distributed
    min-label propagation above); the driver holds O(points + pairs)
    — the per-point labeling IS the result. Returns a pyarrow Table
    (id, label, is_core) sorted by id."""
    import ray.data as rd

    from .graph import connected_components
    from .joins import grid_distance_pairs

    pts_ds = pts_ds.materialize()
    ids_parts = [pa.table(b).column(id_col).to_numpy(
        zero_copy_only=False).astype(np.int64)
        for b in pts_ds.select_columns([id_col])
        .iter_batches(batch_format="pyarrow")]
    empty = pa.table({"id": pa.array([], pa.int64()),
                      "label": pa.array([], pa.int64()),
                      "is_core": pa.array([], pa.int64())})
    if not ids_parts:
        return empty
    ids = np.sort(np.concatenate(ids_parts))
    n = len(ids)
    if n == 0:
        return empty

    pairs = grid_distance_pairs(pts_ds, id_col, lat_col, lon_col,
                                eps_deg, cos_ref=cos_ref)
    ia = pairs.column("id_a").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    ib = pairs.column("id_b").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    xa = np.searchsorted(ids, ia)
    xb = np.searchsorted(ids, ib)
    deg = (np.bincount(xa, minlength=n)
           + np.bincount(xb, minlength=n)).astype(np.int64)
    is_core = deg + 1 >= min_pts

    label = np.full(n, -1, np.int64)
    cc_mask = is_core[xa] & is_core[xb]
    if cc_mask.any():
        cc = connected_components(rd.from_arrow(pa.table({
            "src": pa.array(ia[cc_mask]),
            "dst": pa.array(ib[cc_mask])})))
        cn = cc.column("node").to_numpy(zero_copy_only=False)
        cl = cc.column("component").to_numpy(zero_copy_only=False)
        label[np.searchsorted(ids, cn)] = cl
    # isolated core points (no core neighbor) form singleton clusters
    lone = is_core & (label == -1)
    label[lone] = ids[lone]

    # border points: min core-neighbor cluster label
    half = is_core[xa] ^ is_core[xb]
    bidx = np.where(is_core[xa], xb, xa)[half]
    blbl = np.where(is_core[xa], label[xa], label[xb])[half]
    border = np.full(n, np.iinfo(np.int64).max, np.int64)
    np.minimum.at(border, bidx, blbl)
    take = (~is_core) & (border != np.iinfo(np.int64).max)
    label[take] = border[take]

    return pa.table({"id": pa.array(ids),
                     "label": pa.array(label),
                     "is_core": pa.array(is_core.astype(np.int64))})


def kcenter_coreset(ds, k: int = 8, id_col: str = "vec_id",
                    vec_col: str = "embedding"):
    """Greedy k-center coreset (Gonzalez farthest-point) over the
    embedding table — the diversity-sampling primitive for active
    learning / coreset selection — made EXACTLY reproducible by
    running on the int8-quantized codes (quantize_embeddings' exact
    integer q vectors), so every distance is an exact integer squared
    euclidean and every argmax tie-breaks on min vec_id:

        c_0   = vector with the smallest id
        d_i   = ||q_i - q_{c_0}||^2
        round t: c_t = argmax d (ties -> min id);
                 d_i <- min(d_i, ||q_i - q_{c_t}||^2)

    Returns a pa.Table (order_idx, vec_id, radius): radius = the
    selected point's distance at selection time (the k-center
    coverage radius sequence, non-increasing); radius[0] = 0.

    Scale shape: the quantized codes + current distances live in a
    materialized Dataset; each of the k rounds is one map_batches
    distance update against the BROADCAST chosen center plus a
    per-batch (max dist, min id) combiner — O(k) driver scalars, no
    shuffle anywhere."""
    import ray

    def quant(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        col = t.column(vec_col).combine_chunks()
        offs = col.offsets.to_numpy(zero_copy_only=False)
        if t.num_rows == 0:
            return pa.table({"vid": pa.array([], pa.int64()),
                             "q": pa.array([], pa.list_(pa.int64())),
                             "d": pa.array([], pa.int64())})
        dim = int(offs[1] - offs[0])
        x = col.values.to_numpy(zero_copy_only=False) \
            .astype(np.float64).reshape(len(ids), dim)
        maxabs = np.abs(x).max(axis=1)
        safe = np.where(maxabs == 0.0, 1.0, maxabs)
        sc = (x * 127.0) / safe[:, None]
        q = (np.sign(sc) * np.floor(np.abs(sc) + 0.5)).astype(np.int64)
        q[maxabs == 0.0] = 0
        return pa.table({
            "vid": pa.array(ids),
            "q": pa.array(list(q), pa.list_(pa.int64())),
            "d": pa.array(np.full(len(ids), -1, np.int64))})

    state = ds.map_batches(quant, batch_format="pyarrow").materialize()

    @ray.remote
    def _pick_min_id(t: pa.Table):
        if t.num_rows == 0:
            return None
        v = t.column("vid").to_numpy(zero_copy_only=False)
        i = int(np.argmin(v))
        return (int(v[i]),
                np.array(t.column("q")[i].as_py(), np.int64))

    @ray.remote
    def _pick_far(t: pa.Table):
        if t.num_rows == 0:
            return None
        v = t.column("vid").to_numpy(zero_copy_only=False)
        d = t.column("d").to_numpy(zero_copy_only=False)
        best = np.lexsort((v, -d))[0]
        return (int(d[best]), int(v[best]),
                np.array(t.column("q")[best].as_py(), np.int64))

    # c0: min id across blocks
    picks = [p for p in ray.get([_pick_min_id.remote(r)
                                 for r in arrow_refs(state)])
             if p is not None]
    if not picks:
        return pa.table({"order_idx": pa.array([], pa.int64()),
                         "vec_id": pa.array([], pa.int64()),
                         "radius": pa.array([], pa.int64())})
    c_id, c_q = min(picks, key=lambda p: p[0])
    chosen = [(0, c_id, 0)]

    for t_round in range(1, k):
        cq_ref = ray.put(c_q)
        cid = c_id

        def upd(t: pa.Table, _cq_ref=cq_ref) -> pa.Table:
            if t.num_rows == 0:
                return t
            cq = ray.get(_cq_ref)
            qs = t.column("q").combine_chunks()
            m = qs.values.to_numpy(zero_copy_only=False) \
                .reshape(t.num_rows, len(cq))
            diff = m - cq[None, :]
            nd = np.einsum("ij,ij->i", diff, diff)
            d = t.column("d").to_numpy(zero_copy_only=False)
            nd = np.where(d < 0, nd, np.minimum(d, nd))
            return pa.table({"vid": t.column("vid"), "q": t.column("q"),
                             "d": pa.array(nd.astype(np.int64))})

        state = state.map_batches(upd, batch_format="pyarrow") \
                     .materialize()
        far = [p for p in ray.get([_pick_far.remote(r)
                                   for r in arrow_refs(state)])
               if p is not None]
        d_best, c_id, c_q = max(
            far, key=lambda p: (p[0], -p[1]))
        chosen.append((t_round, c_id, d_best))

    return pa.table({
        "order_idx": pa.array([c[0] for c in chosen], pa.int64()),
        "vec_id": pa.array([c[1] for c in chosen], pa.int64()),
        "radius": pa.array([c[2] for c in chosen], pa.int64())})
