"""Distributed connected components — the clustering step every
near-duplicate pipeline needs at scale.

The reference clusters duplicate groups single-process inside
enhanced-deduplication.service.js (pairwise similarity -> greedy
groups); the minhash/LSH ops in ``stages/dedup.py`` produce PAIRS and
today resolve them into components with a driver union-find over
O(pairs) rows. That is the right call while pairs fit on the driver;
this module adds the 100 TB form: min-label propagation expressed as
iterated keyed exchanges (tagged-union raw-task hash shuffle +
grouped ``min()``), with
the driver seeing only an O(1) convergence scalar per round.

Rounds needed = O(log diameter) with the pointer jump (near-dup
clusters are star-ish: diameter 2-3 in practice). Each round is a
keyed exchange of the undirected edge list with the current labels
plus one grouped min — O(E)-row shuffles; no driver materialization.
Dataset.join is deliberately avoided: its hash shuffle fails on
fully-empty partitions, which converged label columns produce.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from .shuffles import arrow_refs

DRIVER_CC_MAX = 1_000_000  # edge count below which the graph ops run
# their driver-side numpy kernel: O(E) (or O(E alpha(N))) on one core
# beats 2-3 keyed shuffles per ROUND (measured at 514k edges: driver
# CSR BFS 3.2 s vs 12.4 s for 6 relaxation exchanges on one node), and
# the input is the SAME O(E) row stream a single reduce task would see.
# Above it the per-round exchanges win because the rows no longer fit
# one worker comfortably; both paths are output-identical (pinned).


def _owner_lookup(df: pd.DataFrame) -> pd.DataFrame:
    """Partition kernel for the keyed owner-lookup exchange (the
    join-free form of ``edges JOIN labels``): rows with tag=1 define a
    unique gkey -> lab mapping; rows with tag=0 carry (gkey, dst) and
    emit (node=dst, label=lab[gkey]). Fully vectorized (argsort +
    searchsorted); every follower's owner is co-partitioned by
    construction (same gkey => same partition)."""
    tag = df["tag"].to_numpy()
    own, fol = df[tag == 1], df[tag == 0]
    if not len(fol):
        return pd.DataFrame({"node": np.array([], np.int64),
                             "label": np.array([], np.int64)})
    ok = own["gkey"].to_numpy(np.int64)
    ol = own["lab"].to_numpy(np.int64)
    o = np.argsort(ok, kind="stable")
    ok, ol = ok[o], ol[o]
    fg = fol["gkey"].to_numpy(np.int64)
    idx = np.searchsorted(ok, fg)
    if len(ok) == 0 or not np.array_equal(ok[np.clip(idx, 0,
                                                     len(ok) - 1)], fg):
        raise ValueError("owner-lookup exchange: follower key without "
                         "an owner row (caller must key owners by "
                         "every follower gkey)")
    return pd.DataFrame({"node": fol["dst"].to_numpy(np.int64),
                         "label": ol[idx]})


def _min_per_node(df: pd.DataFrame) -> pd.DataFrame:
    """Partition kernel: MIN(label) GROUP BY node, vectorized."""
    n = df["node"].to_numpy(np.int64)
    lb = df["label"].to_numpy(np.int64)
    if not len(n):
        return pd.DataFrame({"node": n, "label": lb})
    order = np.lexsort((lb, n))
    ns, ls = n[order], lb[order]
    starts = np.concatenate(([0], np.flatnonzero(ns[1:] != ns[:-1]) + 1))
    return pd.DataFrame({"node": ns[starts], "label": ls[starts]})


@ray.remote
def _isin_count(t: pa.Table, seed_arr) -> int:
    return int(np.isin(t.column("node").to_numpy(zero_copy_only=False),
                       seed_arr).sum())


@ray.remote
def _label_sum(t: pa.Table) -> int:
    import pyarrow.compute as pc
    return int(pc.sum(t.column("label")).as_py() or 0)


def _distinct_edges(df: pd.DataFrame) -> pd.DataFrame:
    """Partition kernel: DISTINCT (src, dst). Partitioned by src, so
    within-partition dedup IS global dedup."""
    u = df["src"].to_numpy(np.int64)
    v = df["dst"].to_numpy(np.int64)
    if not len(u):
        return pd.DataFrame({"src": u, "dst": v})
    uv = np.unique(np.stack([u, v], axis=1), axis=0)
    return pd.DataFrame({"src": uv[:, 0], "dst": uv[:, 1]})


def _init_labels_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Partition kernel: DISTINCT src as (node, label=node)."""
    n = np.unique(df["src"].to_numpy(np.int64))
    return pd.DataFrame({"node": n, "label": n})


def _distinct_nodes(df: pd.DataFrame) -> pd.DataFrame:
    n = np.unique(df["node"].to_numpy(np.int64))
    return pd.DataFrame({"node": n})


def _union_find(u: np.ndarray, v: np.ndarray):
    """Exact union-find with path halving; union-by-min so every root
    is its component's minimum node id. Returns (nodes, component)."""
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    parent = np.arange(len(nodes))
    ui, vi = inv[: len(u)], inv[len(u):]

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(ui.tolist(), vi.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    comp = np.array([find(i) for i in range(len(nodes))], np.int64)
    # union-by-min keeps the root at the smallest dense index, and
    # np.unique sorts ascending, so nodes[root] IS the component min.
    return nodes, nodes[comp]


def connected_components(edges_ds, src: str = "src", dst: str = "dst",
                         driver_limit: int = DRIVER_CC_MAX,
                         max_iters: int = 64,
                         num_partitions: int = 8):
    """Connected components of the undirected graph given by an edge
    Dataset. Returns a ``pyarrow.Table`` (node, component) sorted by
    node, where ``component`` is the minimum node id in the component.

    Below ``driver_limit`` edges the exact union-find runs driver-side
    (see DRIVER_CC_MAX). Above it — or when ``driver_limit=0`` forces
    it — the distributed plan runs min-label propagation:

        labels   <- distinct nodes, label = node
        repeat:  msgs  = (und_edges + labels) GROUP BY src:
                         each edge row gets its src's label
                 labels = msgs GROUP BY dst MIN(label), then one
                         pointer-jump indirection
        until    sum(label) stops decreasing   (one scalar per round)

    The undirected edge list carries self-loops so every node hears its
    own current label, and each round ends with a pointer jump
    (label <- label(label)), so convergence takes O(log diameter)
    rounds. The label sum is monotonically non-increasing and integer,
    so the fixed point is detected exactly. Each round's labels are
    materialized — iterative lineage would otherwise recompute all
    prior rounds.
    """
    import ray
    import pyarrow.compute as pc
    from ray.data.aggregate import Min, Sum

    # Pin the edge list once: count() would otherwise execute the
    # upstream pipeline and the real consumer would re-execute it.
    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if n_edges == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "component": pa.array([], pa.int64())})

    if n_edges <= driver_limit:
        cols = [pa.table(b) for b in
                edges_ds.select_columns([src, dst])
                        .iter_batches(batch_format="pyarrow")]
        cat = pa.concat_tables(cols)
        u = cat.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        v = cat.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        nodes, comp = _union_find(u, v)
        return pa.table({"node": nodes, "component": comp})

    def to_und(t: pa.Table) -> pa.Table:
        a = t.column(src).cast(pa.int64()).combine_chunks()
        b = t.column(dst).cast(pa.int64()).combine_chunks()
        return pa.table({
            "src": pa.concat_arrays([a, b, a, b]),
            "dst": pa.concat_arrays([b, a, a, b]),  # + self-loops
        })

    from .shuffles import int_part_map as _ipm

    und = _ipm(edges_ds.map_batches(to_und, batch_format="pyarrow"),
               "src", _distinct_edges, num_partitions=num_partitions)
    labels = _ipm(und, "src", _init_labels_kernel,
                  num_partitions=num_partitions)
    # Every keyed exchange below rides the raw-task hash shuffle
    # (shuffles.int_part_map — two flat task waves, vectorized kernel
    # per partition), never Dataset.join or the sort-based groupby:
    # the join's hash shuffle breaks on fully-empty partitions
    # (schema-less blocks), which converged label columns (all rows
    # sharing one value) produce routinely, and the sort path pays a
    # multi-second fixed job cost PER EXCHANGE — ruinous in a loop
    # that runs three exchanges per round.
    from .shuffles import int_part_map

    def tag_und(t: pa.Table) -> pa.Table:
        z = np.zeros(t.num_rows, np.int64)
        return pa.table({"gkey": t.column("src"), "dst": t.column("dst"),
                         "lab": pa.array(z),
                         "tag": pa.array(np.zeros(t.num_rows, np.int8))})

    def tag_own(t: pa.Table) -> pa.Table:
        return pa.table({"gkey": t.column("node"),
                         "dst": pa.array(np.zeros(t.num_rows, np.int64)),
                         "lab": t.column("label"),
                         "tag": pa.array(np.ones(t.num_rows, np.int8))})

    def tag_fol(t: pa.Table) -> pa.Table:
        # pointer-jump followers: keyed by their LABEL, payload = node
        return pa.table({"gkey": t.column("label"),
                         "dst": t.column("node"),
                         "lab": pa.array(np.zeros(t.num_rows, np.int64)),
                         "tag": pa.array(np.zeros(t.num_rows, np.int8))})

    prev_sum = None
    for _ in range(max_iters):
        tagged = und.map_batches(tag_und, batch_format="pyarrow") \
                    .union(labels.map_batches(tag_own,
                                              batch_format="pyarrow"))
        msgs = int_part_map(tagged, "gkey", _owner_lookup,
                            num_partitions=num_partitions)
        l1 = int_part_map(msgs, "node", _min_per_node,
                          num_partitions=num_partitions)
        # Pointer jump (label <- label(label)): every label IS a node
        # id (init = self, propagated = min of node ids), and labels
        # are monotone non-increasing, so one extra indirection doubles
        # the effective propagation distance — O(log diameter) rounds
        # on path-like graphs instead of O(diameter).
        jt = l1.map_batches(tag_fol, batch_format="pyarrow") \
               .union(l1.map_batches(tag_own, batch_format="pyarrow"))
        labels = int_part_map(jt, "gkey", _owner_lookup,
                              num_partitions=num_partitions)
        # Convergence scalar: per-block remote sums — the label vector
        # itself never reaches the driver.
        s = sum(ray.get([_label_sum.remote(r)
                         for r in arrow_refs(labels)]))
        if prev_sum is not None and s == prev_sum:
            break
        prev_sum = s
    else:
        import warnings
        warnings.warn(
            f"connected_components: label propagation did not stabilize "
            f"within max_iters={max_iters}; components may be "
            f"non-converged (raise max_iters)", RuntimeWarning)
    # Stays a Dataset: the labeling is O(nodes) — a sink or the
    # O(components) summary below consumes it, never the driver.
    return labels.map_batches(
        lambda t: t.rename_columns(["node", "component"]),
        batch_format="pyarrow")


def component_sizes(cc) -> pa.Table:
    """(component, n_nodes) summary of a connected_components result
    (pyarrow Table or Ray Dataset), sorted by component — the
    O(components) report a driver can hold."""
    if isinstance(cc, pa.Table):
        g = (cc.select(["component"])
               .group_by(["component"], use_threads=False)
               .aggregate([([], "count_all")]))
        return g.rename_columns(["component", "n_nodes"]) \
                .sort_by("component")
    from ray.data.aggregate import Count
    parts = [pa.table(b) for b in
             cc.groupby("component").aggregate(Count(alias_name="n_nodes"))
               .iter_batches(batch_format="pyarrow")]
    cat = pa.concat_tables(parts) if parts else pa.table(
        {"component": pa.array([], pa.int64()),
         "n_nodes": pa.array([], pa.int64())})
    return cat.select(["component", "n_nodes"]).sort_by("component")


def pagerank(edges_ds, src: str = "src", dst: str = "dst",
             n_iters: int = 3, damping: float = 0.85,
             driver_limit: int = DRIVER_CC_MAX,
             num_partitions: int = 8, seeds=None):
    """Fixed-iteration PageRank over a directed edge Dataset — the
    classic crawl-frontier ranking signal (the reference ranks links
    with regex heuristics, link-explorer.service.js; at 100 TB the
    graph signal is computed like this). Returns (node, rank) with the
    full-precision float; callers round for reporting.

    Semantics (mirrored exactly by the DuckDB oracle): distinct edges;
    rank_0 = 1/N; rank_{t+1}(u) = (1-d)/N + d * sum over in-edges
    (v,u) of rank_t(v)/outdeg(v). Dangling nodes simply leak their
    mass (no redistribution) — the documented choice. With ``seeds``
    (an iterable of node ids) the walk is PERSONALIZED: rank_0 and the
    teleport term concentrate uniformly on the seed set (seeds absent
    from the graph are ignored; at least one must be present) — the
    seeded-relevance form a crawl frontier would use to rank hosts
    around a trust set.

    Below ``driver_limit`` edges the loop is numpy on the driver
    (np.add.at scatter — same O(E) stream a reduce task sees). Above,
    each iteration is one keyed exchange of the static distinct edge
    table with the current ranks (tagged-union sort-groupby; out-degree
    counted inside the src group) plus one grouped sum, with a
    zero-contribution self row per node so rank-starved nodes keep the
    base term; the driver never sees the rank vector.
    """
    import ray
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    edges_ds = edges_ds.materialize()  # one execution; count() is metadata
    n_edges = edges_ds.count()
    if n_edges == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.float64())})

    if n_edges <= driver_limit:
        cat = pa.concat_tables(
            [pa.table(b) for b in edges_ds.select_columns([src, dst])
                                          .iter_batches(batch_format="pyarrow")])
        u = cat.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        v = cat.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        uv = np.unique(np.stack([u, v], axis=1), axis=0)  # distinct edges
        u, v = uv[:, 0], uv[:, 1]
        nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
        ui, vi = inv[: len(u)], inv[len(u):]
        n = len(nodes)
        deg = np.bincount(ui, minlength=n).astype(np.float64)
        if seeds is not None:
            sarr = np.unique(np.asarray(list(seeds), np.int64))
            is_seed = np.isin(nodes, sarr)
            ns = float(is_seed.sum())
            if not ns:
                raise ValueError("pagerank: no seed is a graph node")
            r = np.where(is_seed, 1.0 / ns, 0.0)
            basev = np.where(is_seed, (1.0 - damping) / ns, 0.0)
        else:
            r = np.full(n, 1.0 / n)
            basev = (1.0 - damping) / n
        for _ in range(n_iters):
            acc = np.zeros(n)
            np.add.at(acc, vi, r[ui] / deg[ui])
            r = basev + damping * acc
        return pa.table({"node": nodes, "rank": r})

    # ---- distributed path ------------------------------------------------
    def to_e(t: pa.Table) -> pa.Table:
        return pa.table({"src": t.column(src).cast(pa.int64()),
                         "dst": t.column(dst).cast(pa.int64())})

    from .shuffles import int_part_map as _ipm

    e = _ipm(edges_ds.map_batches(to_e, batch_format="pyarrow"),
             "src", _distinct_edges, num_partitions=num_partitions)

    def node_rows(t: pa.Table) -> pa.Table:
        a = t.column("src").combine_chunks()
        b = t.column("dst").combine_chunks()
        return pa.table({"node": pa.concat_arrays([a, b])})

    nodes = _ipm(e.map_batches(node_rows, batch_format="pyarrow"),
                 "node", _distinct_nodes, num_partitions=num_partitions)
    n = nodes.count()

    if seeds is not None:
        sarr = np.unique(np.asarray(list(seeds), np.int64))
        seed_ref = ray.put(sarr)
        ns = sum(ray.get([_isin_count.remote(r_, seed_ref)
                          for r_ in arrow_refs(nodes)]))
        if not ns:
            raise ValueError("pagerank: no seed is a graph node")

        def init_r(t: pa.Table) -> pa.Table:
            sa = ray.get(seed_ref)
            nd = t.column("node").to_numpy(zero_copy_only=False)
            return pa.table({"node": t.column("node"),
                             "rank": pa.array(np.where(
                                 np.isin(nd, sa), 1.0 / ns, 0.0))})

        ranks = nodes.map_batches(init_r,
                                  batch_format="pyarrow").materialize()
        base = 0.0  # per-node teleport added after the grouped sum
    else:
        ranks = nodes.map_batches(
            lambda t: t.append_column("rank", pa.array(
                np.full(t.num_rows, 1.0 / n))),
            batch_format="pyarrow").materialize()
        base = (1.0 - damping) / n

    # Raw-task keyed exchanges instead of Dataset.join / sort-groupby
    # (see connected_components: the join breaks on empty partitions,
    # the sort pays seconds of fixed cost per exchange). The out-degree
    # is counted INSIDE each src group, so no degree join exists.
    from .shuffles import int_part_map

    def tag_e(t: pa.Table) -> pa.Table:
        return pa.table({"gkey": t.column("src"), "dst": t.column("dst"),
                         "r": pa.array(np.zeros(t.num_rows)),
                         "tag": pa.array(np.zeros(t.num_rows, np.int8))})

    def tag_r(t: pa.Table) -> pa.Table:
        return pa.table({"gkey": t.column("node"),
                         "dst": pa.array(np.zeros(t.num_rows, np.int64)),
                         "r": t.column("rank"),
                         "tag": pa.array(np.ones(t.num_rows, np.int8))})

    def contrib_kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd
        tag = df["tag"].to_numpy()
        own, fol = df[tag == 1], df[tag == 0]
        if not len(fol):  # partition of pure dangling owners
            return pd.DataFrame({"node": np.array([], np.int64),
                                 "c": np.array([], np.float64)})
        ok = own["gkey"].to_numpy(np.int64)
        orr = own["r"].to_numpy(np.float64)
        o = np.argsort(ok, kind="stable")
        ok, orr = ok[o], orr[o]
        g = fol["gkey"].to_numpy(np.int64)
        d = fol["dst"].to_numpy(np.int64)
        so = np.argsort(g, kind="stable")
        g, d = g[so], d[so]
        starts = np.concatenate(
            ([0], np.flatnonzero(g[1:] != g[:-1]) + 1, [len(g)]))
        deg = np.diff(starts)
        idx = np.searchsorted(ok, g)
        if len(ok) == 0 or not np.array_equal(
                ok[np.clip(idx, 0, len(ok) - 1)], g):
            raise ValueError("pagerank contribution exchange: edge src "
                             "without a rank row")
        c = orr[idx] / np.repeat(deg, deg)
        return pd.DataFrame({"node": d, "c": c})

    def rank_kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd
        n = df["node"].to_numpy(np.int64)
        c = df["c"].to_numpy(np.float64)
        if not len(n):
            return pd.DataFrame({"node": n,
                                 "rank": np.array([], np.float64)})
        order = np.argsort(n, kind="stable")
        ns, cs = n[order], c[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(ns[1:] != ns[:-1]) + 1))
        sums = np.add.reduceat(cs, starts)
        return pd.DataFrame({"node": ns[starts],
                             "rank": base + damping * sums})

    zero = nodes.map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "c": pa.array(np.zeros(t.num_rows))}),
        batch_format="pyarrow").materialize()
    def add_seed_base(t: pa.Table) -> pa.Table:
        sa = ray.get(seed_ref)
        nd = t.column("node").to_numpy(zero_copy_only=False)
        bv = np.where(np.isin(nd, sa), (1.0 - damping) / ns, 0.0)
        # kernel produced 0.0 + damping*sum, so this single add is the
        # same float op order as the driver path's basev + damping*acc
        return pa.table({"node": t.column("node"),
                         "rank": pa.array(
                             bv + t.column("rank").to_numpy(
                                 zero_copy_only=False))})

    for _ in range(n_iters):
        tagged = e.map_batches(tag_e, batch_format="pyarrow") \
                  .union(ranks.map_batches(tag_r,
                                           batch_format="pyarrow"))
        msgs = int_part_map(tagged, "gkey", contrib_kernel,
                            num_partitions=num_partitions)
        ranks = int_part_map(msgs.union(zero), "node", rank_kernel,
                             num_partitions=num_partitions)
        if seeds is not None:
            ranks = ranks.map_batches(
                add_seed_base, batch_format="pyarrow").materialize()
    out = pa.concat_tables(
        [pa.table(b) for b in ranks.iter_batches(batch_format="pyarrow")])
    return out.sort_by("node")


def host_pagerank(visited, n_iters: int = 3, damping: float = 0.85,
                  num_partitions: int = 8) -> pa.Table:
    """Host-level PageRank over a crawl's REAL link graph — ranks the
    crawled hosts by their parent->child fetch lineage (CrawlResult
    .visited carries ``parent_url_hash``; the reference ranks links
    with per-URL regex heuristics only, link-explorer.service.js).

    Each visited row is an edge host(parent) -> host(child). Parent
    hosts are resolved hash->host with the same owner-lookup exchange
    the component/rank loops use (owners = every visited url_hash,
    followers = every parent_url_hash), so a spilled visited Dataset
    (crawl(visited_spill_dir=...), the 10^10-URL form) streams through
    without driver materialization; a driver-held visited Table takes
    the same path via a one-block Dataset. Host names ride as signed
    64-bit host hashes through ``pagerank`` and are joined back from
    the O(hosts) distinct map at the end.

    Returns (host, pr) sorted by pr descending, host ascending.
    """
    import ray.data as rd
    from .shuffles import int_part_map
    from ..functions.hashing import hash64_many

    if isinstance(visited, pa.Table):
        visited = rd.from_arrow(visited)

    def tag_rows(t: pa.Table) -> pa.Table:
        urls = t.column("url").to_pylist()
        hosts = t.column("host").to_pylist()
        uh = hash64_many(urls).view(np.int64)  # bit reinterpret:
        hh = hash64_many(hosts).view(np.int64)  # uint64 -> int64 keys
        ph = t.column("parent_url_hash").to_numpy(
            zero_copy_only=False).astype(np.uint64).view(np.int64)
        live = ph != 0  # seeds have no parent
        own = pa.table({"gkey": pa.array(uh), "dst": pa.array(uh),
                        "lab": pa.array(hh),
                        "tag": pa.array(np.ones(len(uh), np.int8))})
        fol = pa.table({"gkey": pa.array(ph[live]),
                        "dst": pa.array(hh[live]),  # child host hash
                        "lab": pa.array(np.zeros(int(live.sum()),
                                                 np.int64)),
                        "tag": pa.array(np.zeros(int(live.sum()),
                                                 np.int8))})
        return pa.concat_tables([own, fol])

    tagged = visited.map_batches(tag_rows, batch_format="pyarrow")
    # owner-lookup emits (node=child_host_hash, label=parent_host_hash)
    edges = int_part_map(tagged, "gkey", _owner_lookup,
                         num_partitions=num_partitions) \
        .map_batches(lambda t: pa.table({"src": t.column("label"),
                                         "dst": t.column("node")}),
                     batch_format="pyarrow")
    ranks = pagerank(edges, n_iters=n_iters, damping=damping,
                     num_partitions=num_partitions)

    names = {}  # O(hosts) driver map, hash -> host string
    for b in visited.select_columns(["host"]) \
                    .iter_batches(batch_format="pyarrow"):
        hs = sorted(set(pa.table(b).column("host").to_pylist()))
        for k, h in zip(hash64_many(hs).view(np.int64).tolist(), hs):
            names.setdefault(k, h)
    out = pa.table({
        "host": pa.array([names[k] for k in
                          ranks.column("node").to_pylist()]),
        "pr": ranks.column("rank"),
    })
    return out.sort_by([("pr", "descending"), ("host", "ascending")])


@ray.remote
def _float_sum(t: pa.Table, col: str) -> float:
    import pyarrow.compute as pc
    return float(pc.sum(t.column(col)).as_py() or 0.0)


def hits(edges_ds, src: str = "src", dst: str = "dst",
         n_iters: int = 2, driver_limit: int = DRIVER_CC_MAX,
         num_partitions: int = 8):
    """HITS hubs & authorities (Kleinberg) over a directed edge
    Dataset, L1-normalized per half-step (sum-normalization keeps the
    oracle plain SQL — no sqrt subqueries; the ranking order equals
    the L2 form's). h_0 = 1/N; per iteration: a = E^T h then a /= sum,
    h = E a then h /= sum. Returns (node, hub, authority).

    Same two-path shape as pagerank: numpy scatter below
    ``driver_limit`` edges; above, each half-step is one owner-lookup
    keyed exchange (raw-task hash shuffle, no joins) plus a grouped
    sum with zero self-rows, and the normalizer is an O(blocks) remote
    scalar reduction — the driver never holds a vector.
    """
    import pyarrow.compute as pc

    if n_iters < 1:
        raise ValueError("hits: n_iters must be >= 1")
    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if n_edges == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "hub": pa.array([], pa.float64()),
                         "authority": pa.array([], pa.float64())})

    if n_edges <= driver_limit:
        cat = pa.concat_tables(
            [pa.table(b) for b in edges_ds.select_columns([src, dst])
                                          .iter_batches(batch_format="pyarrow")])
        u = cat.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        v = cat.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        uv = np.unique(np.stack([u, v], axis=1), axis=0)
        u, v = uv[:, 0], uv[:, 1]
        nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
        ui, vi = inv[: len(u)], inv[len(u):]
        n = len(nodes)
        h = np.full(n, 1.0 / n)
        a = np.zeros(n)
        for _ in range(n_iters):
            a = np.zeros(n)
            np.add.at(a, vi, h[ui])
            sa = a.sum()
            if sa > 0:
                a = a / sa
            h = np.zeros(n)
            np.add.at(h, ui, a[vi])
            sh = h.sum()
            if sh > 0:
                h = h / sh
        return pa.table({"node": nodes, "hub": h, "authority": a})

    # ---- distributed path ------------------------------------------------
    from .shuffles import int_part_map as _ipm

    def to_e(t: pa.Table) -> pa.Table:
        return pa.table({"src": t.column(src).cast(pa.int64()),
                         "dst": t.column(dst).cast(pa.int64())})

    e = _ipm(edges_ds.map_batches(to_e, batch_format="pyarrow"),
             "src", _distinct_edges, num_partitions=num_partitions)

    def node_rows(t: pa.Table) -> pa.Table:
        aa = t.column("src").combine_chunks()
        bb = t.column("dst").combine_chunks()
        return pa.table({"node": pa.concat_arrays([aa, bb])})

    nodes = _ipm(e.map_batches(node_rows, batch_format="pyarrow"),
                 "node", _distinct_nodes, num_partitions=num_partitions)
    n = nodes.count()
    zero = nodes.map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "c": pa.array(np.zeros(t.num_rows))}),
        batch_format="pyarrow").materialize()

    def sum_kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        nd = df["node"].to_numpy(np.int64)
        c = df["c"].to_numpy(np.float64)
        if not len(nd):
            return pd.DataFrame({"node": nd, "val": c})
        order = np.argsort(nd, kind="stable")
        ns_, cs = nd[order], c[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(ns_[1:] != ns_[:-1]) + 1))
        return pd.DataFrame({"node": ns_[starts],
                             "val": np.add.reduceat(cs, starts)})

    def spread(vec_ds, key_col: str, out_col: str):
        """One E-multiply half-step: vec keyed by ``key_col`` end of
        each edge, mass lands on the other (``out_col``) end."""
        def tag_edge(t: pa.Table) -> pa.Table:
            return pa.table({"gkey": t.column(key_col),
                             "dst": t.column(out_col),
                             "r": pa.array(np.zeros(t.num_rows)),
                             "tag": pa.array(np.zeros(t.num_rows,
                                                      np.int8))})

        def tag_vec(t: pa.Table) -> pa.Table:
            return pa.table({"gkey": t.column("node"),
                             "dst": pa.array(np.zeros(t.num_rows,
                                                      np.int64)),
                             "r": t.column("val"),
                             "tag": pa.array(np.ones(t.num_rows,
                                                     np.int8))})

        def emit(df: "pd.DataFrame") -> "pd.DataFrame":
            tg = df["tag"].to_numpy()
            own, fol = df[tg == 1], df[tg == 0]
            if not len(fol):
                return pd.DataFrame({"node": np.array([], np.int64),
                                     "c": np.array([], np.float64)})
            ok = own["gkey"].to_numpy(np.int64)
            ov = own["r"].to_numpy(np.float64)
            o = np.argsort(ok, kind="stable")
            ok, ov = ok[o], ov[o]
            g = fol["gkey"].to_numpy(np.int64)
            idx = np.searchsorted(ok, g)
            if len(ok) == 0 or not np.array_equal(
                    ok[np.clip(idx, 0, len(ok) - 1)], g):
                raise ValueError("hits spread: edge end without a "
                                 "vector row")
            return pd.DataFrame({"node": fol["dst"].to_numpy(np.int64),
                                 "c": ov[idx]})

        tagged = e.map_batches(tag_edge, batch_format="pyarrow") \
                  .union(vec_ds.map_batches(tag_vec,
                                            batch_format="pyarrow"))
        msgs = _ipm(tagged, "gkey", emit,
                    num_partitions=num_partitions)
        summed = _ipm(msgs.union(zero), "node", sum_kernel,
                      num_partitions=num_partitions)
        total = sum(ray.get([_float_sum.remote(r_, "val")
                             for r_ in arrow_refs(summed)]))

        def norm(t: pa.Table) -> pa.Table:
            vv = t.column("val").to_numpy(zero_copy_only=False)
            return pa.table({"node": t.column("node"),
                             "val": pa.array(vv / total if total > 0
                                             else vv)})

        return summed.map_batches(norm,
                                  batch_format="pyarrow").materialize()

    h = nodes.map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "val": pa.array(np.full(t.num_rows,
                                                    1.0 / n))}),
        batch_format="pyarrow").materialize()
    a = None
    for _ in range(n_iters):
        a = spread(h, "src", "dst")   # authorities gather from hubs
        h = spread(a, "dst", "src")   # hubs gather from authorities
    at = pa.concat_tables([pa.table(b) for b in
                           a.iter_batches(batch_format="pyarrow")]) \
        .sort_by("node")
    ht = pa.concat_tables([pa.table(b) for b in
                           h.iter_batches(batch_format="pyarrow")]) \
        .sort_by("node")
    return pa.table({"node": ht.column("node"),
                     "hub": ht.column("val"),
                     "authority": at.column("val")})


# ---------------------------------------------------------------------------
# Triangle counting (degree-oriented wedge-close) + BFS hop distances
# ---------------------------------------------------------------------------

def _pairs_from_sorted_groups(starts: np.ndarray, vals: np.ndarray):
    """All unordered index pairs WITHIN each group of a group-sorted
    array, vectorized per out-degree class. ``starts`` = group start
    offsets (len = n_groups + 1); returns (first_val, second_val,
    group_id) where pairs preserve the within-group order of ``vals``.
    Orientation bounds the largest group at O(sqrt(edges)), so the
    per-degree-class loop runs O(sqrt(edges)) times, each iteration
    fully vectorized."""
    k = np.diff(starts)
    outs_b, outs_c, outs_g = [], [], []
    for kk in np.unique(k):
        if kk < 2:
            continue
        gsel = np.flatnonzero(k == kk)
        s = starts[:-1][gsel]
        ii, jj = np.triu_indices(int(kk), 1)
        idx_b = (s[:, None] + ii[None, :]).ravel()
        idx_c = (s[:, None] + jj[None, :]).ravel()
        outs_b.append(vals[idx_b])
        outs_c.append(vals[idx_c])
        outs_g.append(np.repeat(gsel, len(ii)))
    if not outs_b:
        z = np.array([], np.int64)
        return z, z, z
    return (np.concatenate(outs_b), np.concatenate(outs_c),
            np.concatenate(outs_g))


def _count_per_node(df: pd.DataFrame) -> pd.DataFrame:
    """Partition kernel: COUNT(*) GROUP BY node, vectorized."""
    n = df["node"].to_numpy(np.int64)
    if not len(n):
        return pd.DataFrame({"node": n, "deg": n})
    ns, cnt = np.unique(n, return_counts=True)
    return pd.DataFrame({"node": ns, "deg": cnt.astype(np.int64)})


def _sum_cnt_per_node(df: pd.DataFrame) -> pd.DataFrame:
    """Partition kernel: SUM(cnt) GROUP BY node, vectorized."""
    n = df["node"].to_numpy(np.int64)
    c = df["cnt"].to_numpy(np.int64)
    if not len(n):
        return pd.DataFrame({"node": n, "n_triangles": c})
    order = np.argsort(n, kind="stable")
    ns, cs = n[order], c[order]
    starts = np.concatenate(([0], np.flatnonzero(ns[1:] != ns[:-1]) + 1))
    return pd.DataFrame({"node": ns[starts],
                         "n_triangles": np.add.reduceat(cs, starts)})


def triangle_counts(edges_ds, src: str = "src", dst: str = "dst",
                    driver_limit: int = DRIVER_CC_MAX,
                    num_partitions: int = 8):
    """Per-node triangle counts of the undirected simple graph given by
    an edge Dataset (duplicates / directions / self-loops normalized
    away first). Returns a ``pyarrow.Table`` (node, n_triangles) over
    ALL nodes (zeros included), sorted by node — the clustering-signal
    primitive next to pagerank/hits (the reference ranks links with
    regex heuristics only, link-explorer.service.js; at 100 TB the
    community/spam signal is counted like this).

    Both paths run the classic degree-oriented wedge-close (Cohen's
    MapReduce triangle algorithm / GraphX's count): orient every
    canonical edge from its lower-(degree, id) endpoint to the higher,
    which bounds every out-neighborhood at O(sqrt(E)); emit the
    out-neighbor pairs (wedges) of each node; a wedge (b, c) apexed at
    ``a`` closes iff the oriented edge b->c exists. Each triangle is
    generated exactly once, at its lowest-rank corner.

    Below ``driver_limit`` edges the whole plan is numpy on the driver
    (same O(E^1.5) work a reduce wave does). Above, five keyed
    exchanges (shuffles.int_part_map — no Dataset.join, see
    connected_components): canonical-distinct, degree count, two
    degree-attach owner lookups, wedge emit, and the close+count;
    wedge volume is the O(E^1.5) term and never touches the driver.
    """
    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if n_edges == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "n_triangles": pa.array([], pa.int64())})

    if n_edges <= driver_limit:
        cat = pa.concat_tables(
            [pa.table(b) for b in edges_ds.select_columns([src, dst])
                                          .iter_batches(batch_format="pyarrow")])
        u = cat.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        v = cat.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keep = lo != hi
        uv = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
        if not len(uv):  # self-loops only: no canonical edges, no nodes
            return pa.table({"node": pa.array([], pa.int64()),
                             "n_triangles": pa.array([], pa.int64())})
        a, b = uv[:, 0], uv[:, 1]
        nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
        ai, bi = inv[: len(a)], inv[len(a):]
        n = len(nodes)
        deg = np.bincount(ai, minlength=n) + np.bincount(bi, minlength=n)
        # strict total order (deg, node-id): rank[i] < rank[j] iff
        # (deg[i], i) < (deg[j], j)
        order = np.lexsort((np.arange(n), deg))
        rank = np.empty(n, np.int64)
        rank[order] = np.arange(n)
        fwd = rank[ai] < rank[bi]
        x = np.where(fwd, ai, bi)
        y = np.where(fwd, bi, ai)
        o = np.lexsort((rank[y], x))  # rank-sorted out-neighbor lists
        x, y = x[o], y[o]
        starts = np.concatenate(
            ([0], np.flatnonzero(x[1:] != x[:-1]) + 1, [len(x)]))
        wb, wc, wg = _pairs_from_sorted_groups(starts, y)
        wa = x[starts[:-1]][wg]
        if n <= 16384:  # dense bitmap: one O(1) gather per wedge beats
            # log(E) cache-missing probes (searchsorted measured ~6x
            # slower at 5M wedges); n^2 bytes <= 256 MB here
            bm = np.zeros(n * n, bool)
            bm[x * np.int64(n) + y] = True
            found = bm[wb * np.int64(n) + wc]
        else:
            ekeys = np.sort(x * np.int64(n) + y)
            wk = wb * np.int64(n) + wc
            idx = np.searchsorted(ekeys, wk)
            found = np.zeros(len(wk), bool)
            inb = idx < len(ekeys)
            found[inb] = ekeys[idx[inb]] == wk[inb]
        tri = np.bincount(
            np.concatenate([wa[found], wb[found], wc[found]]),
            minlength=n).astype(np.int64)
        return pa.table({"node": nodes, "n_triangles": tri})

    # ---- distributed path ------------------------------------------------
    from .shuffles import int_part_map as _ipm

    def to_canon(t: pa.Table) -> pa.Table:
        u = t.column(src).cast(pa.int64()).to_numpy(zero_copy_only=False)
        v = t.column(dst).cast(pa.int64()).to_numpy(zero_copy_only=False)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keep = lo != hi
        return pa.table({"src": pa.array(lo[keep]),
                         "dst": pa.array(hi[keep])})

    canon = _ipm(edges_ds.map_batches(to_canon, batch_format="pyarrow"),
                 "src", _distinct_edges, num_partitions=num_partitions)

    def node_rows(t: pa.Table) -> pa.Table:
        aa = t.column("src").combine_chunks()
        bb = t.column("dst").combine_chunks()
        return pa.table({"node": pa.concat_arrays([aa, bb])})

    deg = _ipm(canon.map_batches(node_rows, batch_format="pyarrow"),
               "node", _count_per_node, num_partitions=num_partitions) \
        .materialize()  # owner side of BOTH attach exchanges below

    # attach deg(u) then deg(v): tagged-union owner lookups carrying the
    # other endpoint + previously attached degree as payload columns
    def tag_deg(t: pa.Table) -> pa.Table:
        z = np.zeros(t.num_rows, np.int64)
        return pa.table({"gkey": t.column("node"), "p1": t.column("deg"),
                         "p2": pa.array(z),
                         "tag": pa.array(np.ones(t.num_rows, np.int8))})

    def tag_e_u(t: pa.Table) -> pa.Table:
        z = np.zeros(t.num_rows, np.int64)
        return pa.table({"gkey": t.column("src"), "p1": t.column("dst"),
                         "p2": pa.array(z),
                         "tag": pa.array(np.zeros(t.num_rows, np.int8))})

    def _attach(df: pd.DataFrame) -> pd.DataFrame:
        """owners: (gkey=node, p1=deg); followers: (gkey, p1=other
        endpoint, p2=carried). Emits (gkey, other, carried, dg)."""
        tag = df["tag"].to_numpy()
        own, fol = df[tag == 1], df[tag == 0]
        if not len(fol):
            z = np.array([], np.int64)
            return pd.DataFrame({"k": z, "other": z, "carried": z,
                                 "dg": z})
        ok = own["gkey"].to_numpy(np.int64)
        od = own["p1"].to_numpy(np.int64)
        o = np.argsort(ok, kind="stable")
        ok, od = ok[o], od[o]
        g = fol["gkey"].to_numpy(np.int64)
        idx = np.searchsorted(ok, g)
        if len(ok) == 0 or not np.array_equal(ok[np.clip(idx, 0,
                                                         len(ok) - 1)], g):
            raise ValueError("triangle attach: edge endpoint without a "
                             "degree row")
        return pd.DataFrame({"k": g,
                             "other": fol["p1"].to_numpy(np.int64),
                             "carried": fol["p2"].to_numpy(np.int64),
                             "dg": od[idx]})

    e_du = _ipm(canon.map_batches(tag_e_u, batch_format="pyarrow")
                     .union(deg.map_batches(tag_deg,
                                            batch_format="pyarrow")),
                "gkey", _attach, num_partitions=num_partitions)
    # e_du rows: k=u, other=v, carried=0, dg=deg(u)

    def tag_e_v(t: pa.Table) -> pa.Table:
        return pa.table({"gkey": t.column("other"), "p1": t.column("k"),
                         "p2": t.column("dg"),
                         "tag": pa.array(np.zeros(t.num_rows, np.int8))})

    e_duv = _ipm(e_du.map_batches(tag_e_v, batch_format="pyarrow")
                     .union(deg.map_batches(tag_deg,
                                            batch_format="pyarrow")),
                 "gkey", _attach, num_partitions=num_partitions)
    # e_duv rows: k=v, other=u, carried=deg(u), dg=deg(v)

    def orient(t: pa.Table) -> pa.Table:
        v_ = t.column("k").to_numpy(zero_copy_only=False)
        u_ = t.column("other").to_numpy(zero_copy_only=False)
        du = t.column("carried").to_numpy(zero_copy_only=False)
        dv = t.column("dg").to_numpy(zero_copy_only=False)
        fwd = (du < dv) | ((du == dv) & (u_ < v_))
        return pa.table({"x": pa.array(np.where(fwd, u_, v_)),
                         "y": pa.array(np.where(fwd, v_, u_)),
                         "dy": pa.array(np.where(fwd, dv, du))})

    oriented = e_duv.map_batches(orient,
                                 batch_format="pyarrow").materialize()

    def _wedge_kernel(df: pd.DataFrame) -> pd.DataFrame:
        x = df["x"].to_numpy(np.int64)
        y = df["y"].to_numpy(np.int64)
        dy = df["dy"].to_numpy(np.int64)
        if not len(x):
            z = np.array([], np.int64)
            return pd.DataFrame({"b": z, "c": z, "a": z})
        o = np.lexsort((y, dy, x))  # rank order (deg, id) within group
        x, y = x[o], y[o]
        starts = np.concatenate(
            ([0], np.flatnonzero(x[1:] != x[:-1]) + 1, [len(x)]))
        wb, wc, wg = _pairs_from_sorted_groups(starts, y)
        return pd.DataFrame({"b": wb, "c": wc, "a": x[starts[:-1]][wg]})

    wedges = _ipm(oriented, "x", _wedge_kernel,
                  num_partitions=num_partitions)

    def tag_close_e(t: pa.Table) -> pa.Table:
        z = np.zeros(t.num_rows, np.int64)
        return pa.table({"gkey": t.column("x"), "c": t.column("y"),
                         "a": pa.array(z),
                         "tag": pa.array(np.ones(t.num_rows, np.int8))})

    def tag_close_w(t: pa.Table) -> pa.Table:
        return pa.table({"gkey": t.column("b"), "c": t.column("c"),
                         "a": t.column("a"),
                         "tag": pa.array(np.zeros(t.num_rows, np.int8))})

    def _close_kernel(df: pd.DataFrame) -> pd.DataFrame:
        """Match wedge pairs (gkey, c) against oriented edges (gkey, c)
        co-partitioned by gkey; emit one node row per triangle corner.
        Arbitrary int64 ids -> local dense mapping before the combined
        searchsorted key (no overflow)."""
        tag = df["tag"].to_numpy()
        own, fol = df[tag == 1], df[tag == 0]
        if not len(fol) or not len(own):
            return pd.DataFrame({"node": np.array([], np.int64),
                                 "cnt": np.array([], np.int64)})
        eb = own["gkey"].to_numpy(np.int64)
        ec = own["c"].to_numpy(np.int64)
        wb = fol["gkey"].to_numpy(np.int64)
        wc = fol["c"].to_numpy(np.int64)
        wa = fol["a"].to_numpy(np.int64)
        allc, cinv = np.unique(np.concatenate([ec, wc]),
                               return_inverse=True)
        allb, binv = np.unique(np.concatenate([eb, wb]),
                               return_inverse=True)
        m = np.int64(len(allc))
        ek = np.sort(binv[: len(eb)] * m + cinv[: len(ec)])
        wk = binv[len(eb):] * m + cinv[len(ec):]
        idx = np.searchsorted(ek, wk)
        found = np.zeros(len(wk), bool)
        inb = idx < len(ek)
        found[inb] = ek[idx[inb]] == wk[inb]
        nodes = np.concatenate([wa[found], wb[found], wc[found]])
        return pd.DataFrame({"node": nodes,
                             "cnt": np.ones(len(nodes), np.int64)})

    corners = _ipm(oriented.map_batches(tag_close_e,
                                        batch_format="pyarrow")
                   .union(wedges.map_batches(tag_close_w,
                                             batch_format="pyarrow")),
                   "gkey", _close_kernel, num_partitions=num_partitions)
    zero = deg.map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "cnt": pa.array(np.zeros(t.num_rows,
                                                     np.int64))}),
        batch_format="pyarrow")
    out = _ipm(corners.union(zero), "node", _sum_cnt_per_node,
               num_partitions=num_partitions)
    cat = pa.concat_tables(
        [pa.table(b) for b in out.iter_batches(batch_format="pyarrow")])
    return cat.sort_by("node")


def bfs_hops(edges_ds, source: int | None = None,
             src: str = "src", dst: str = "dst",
             driver_limit: int = DRIVER_CC_MAX,
             max_iters: int = 64, num_partitions: int = 8):
    """Single-source BFS hop distances over a DIRECTED edge Dataset
    (callers append reversed edges for undirected reach). Returns a
    ``pyarrow.Table`` (node, hops) for REACHED nodes only, sorted by
    node — the seed-distance signal a crawl frontier tiers on (the
    reference's depth field, site-crawler.service.js queue items, is
    exactly this, computed one page at a time). ``source=None`` uses
    the minimum node id (deterministic, scale-independent).

    Below ``driver_limit`` edges: numpy CSR frontier BFS on the driver.
    Above: min-plus label relaxation — per round one tagged-union
    owner-lookup exchange sends dist(u)+1 over every out-edge of a
    reached node (unreached sources simply emit nothing), then one
    grouped min folds messages into the label set; the driver sees an
    O(1) (count, sum) convergence scalar per round. Reached labels only
    ever grow in count and shrink in value, so (count, sum) fixed point
    == exact BFS distances, in <= eccentricity+1 rounds.
    """
    import ray

    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if n_edges == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "hops": pa.array([], pa.int64())})

    if n_edges <= driver_limit:
        cat = pa.concat_tables(
            [pa.table(b) for b in edges_ds.select_columns([src, dst])
                                          .iter_batches(batch_format="pyarrow")])
        u = cat.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        v = cat.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
        ui, vi = inv[: len(u)], inv[len(u):]
        n = len(nodes)
        s = int(nodes[0]) if source is None else int(source)
        si = np.searchsorted(nodes, s)
        if si >= n or nodes[si] != s:
            raise ValueError(f"bfs_hops: source {s} is not a graph node")
        order = np.argsort(ui, kind="stable")
        us, vs = ui[order], vi[order]
        starts = np.searchsorted(us, np.arange(n + 1))
        dist = np.full(n, -1, np.int64)
        dist[si] = 0
        frontier = np.array([si], np.int64)
        d = 0
        while len(frontier):
            d += 1
            cnts = starts[frontier + 1] - starts[frontier]
            tot = int(cnts.sum())
            if not tot:
                break
            idx = (np.repeat(starts[frontier], cnts)
                   + np.arange(tot)
                   - np.repeat(np.cumsum(cnts) - cnts, cnts))
            nbrs = np.unique(vs[idx])
            frontier = nbrs[dist[nbrs] < 0]
            dist[frontier] = d
        reached = dist >= 0
        return pa.table({"node": nodes[reached], "hops": dist[reached]})

    # ---- distributed path ------------------------------------------------
    import ray.data as rd
    from .shuffles import int_part_map as _ipm

    def to_e(t: pa.Table) -> pa.Table:
        return pa.table({"src": t.column(src).cast(pa.int64()),
                         "dst": t.column(dst).cast(pa.int64())})

    e = _ipm(edges_ds.map_batches(to_e, batch_format="pyarrow"),
             "src", _distinct_edges,
             num_partitions=num_partitions).materialize()
    if source is None:
        import pyarrow.compute as pc

        @ray.remote
        def _min2(t: pa.Table) -> int:
            return min(int(pc.min(t.column("src")).as_py()),
                       int(pc.min(t.column("dst")).as_py()))

        source = min(ray.get([_min2.remote(r) for r in arrow_refs(e)]))
    labels = rd.from_arrow(pa.table(
        {"node": pa.array([int(source)], pa.int64()),
         "label": pa.array([0], pa.int64())})).materialize()

    def tag_edge(t: pa.Table) -> pa.Table:
        z = np.zeros(t.num_rows, np.int64)
        return pa.table({"gkey": t.column("src"), "dst": t.column("dst"),
                         "lab": pa.array(z),
                         "tag": pa.array(np.zeros(t.num_rows, np.int8))})

    def tag_lab(t: pa.Table) -> pa.Table:
        return pa.table({"gkey": t.column("node"),
                         "dst": pa.array(np.zeros(t.num_rows, np.int64)),
                         "lab": t.column("label"),
                         "tag": pa.array(np.ones(t.num_rows, np.int8))})

    def _relax(df: pd.DataFrame) -> pd.DataFrame:
        """Lenient owner lookup: followers whose src has no dist row yet
        (unreached) are dropped, matched ones emit dist+1 to dst."""
        tag = df["tag"].to_numpy()
        own, fol = df[tag == 1], df[tag == 0]
        z = np.array([], np.int64)
        if not len(fol) or not len(own):
            return pd.DataFrame({"node": z, "label": z})
        ok = own["gkey"].to_numpy(np.int64)
        ol = own["lab"].to_numpy(np.int64)
        o = np.argsort(ok, kind="stable")
        ok, ol = ok[o], ol[o]
        g = fol["gkey"].to_numpy(np.int64)
        idx = np.searchsorted(ok, g)
        fnd = np.zeros(len(g), bool)
        inb = idx < len(ok)
        fnd[inb] = ok[idx[inb]] == g[inb]
        return pd.DataFrame({"node": fol["dst"].to_numpy(np.int64)[fnd],
                             "label": ol[idx[fnd]] + 1})

    @ray.remote
    def _cnt_sum(t: pa.Table):
        import pyarrow.compute as pc
        return (t.num_rows, int(pc.sum(t.column("label")).as_py() or 0))

    prev = None
    for _ in range(max_iters):
        tagged = e.map_batches(tag_edge, batch_format="pyarrow") \
                  .union(labels.map_batches(tag_lab,
                                            batch_format="pyarrow"))
        msgs = _ipm(tagged, "gkey", _relax,
                    num_partitions=num_partitions)
        labels = _ipm(msgs.union(labels), "node", _min_per_node,
                      num_partitions=num_partitions).materialize()
        cs = ray.get([_cnt_sum.remote(r) for r in arrow_refs(labels)])
        s = (sum(c for c, _ in cs), sum(v for _, v in cs))
        if prev is not None and s == prev:
            break
        prev = s
    else:
        import warnings
        warnings.warn(
            f"bfs_hops: relaxation did not stabilize within "
            f"max_iters={max_iters}; distances may be incomplete "
            f"(raise max_iters)", RuntimeWarning)
    cat = pa.concat_tables(
        [pa.table(b) for b in labels.iter_batches(batch_format="pyarrow")])
    return cat.rename_columns(["node", "hops"]).sort_by("node")


def sssp_weighted(edges_ds, source: int | None = None,
                  src: str = "src", dst: str = "dst", w: str = "w",
                  driver_limit: int = DRIVER_CC_MAX,
                  max_iters: int = 128, num_partitions: int = 8):
    """Single-source shortest paths over a DIRECTED edge Dataset with a
    POSITIVE integer weight column ``w`` (callers append reversed edges
    for undirected reach) — the weighted sibling of :func:`bfs_hops`,
    i.e. the link-cost frontier tiering the reference approximates with
    its 3-tier priority buckets (utils/validator.js prioritizeUrls)
    when edge costs are uniform. Returns a ``pyarrow.Table``
    (node, dist) for REACHED nodes only, sorted by node. ``source=None``
    uses the minimum node id (deterministic, scale-independent).
    Multi-edges are fine: min-plus relaxation takes the cheapest.

    Below ``driver_limit`` edges: numpy CSR Bellman-Ford frontier
    relaxation on the driver (only nodes improved last round relax
    their out-edges; non-negative weights guarantee convergence in at
    most |V| rounds, in practice the hop length of the longest optimal
    path). Above: the same min-plus relaxation as bfs_hops, messages
    carrying dist(u)+w(u,v) instead of dist(u)+1; per round ONE
    tagged-union owner-lookup exchange + ONE grouped min, driver sees
    an O(1) (count, sum) convergence scalar. Labels only grow in count
    and shrink in value, so the (count, sum) fixed point is exact."""
    import ray

    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if n_edges == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "dist": pa.array([], pa.int64())})

    if n_edges <= driver_limit:
        cat = pa.concat_tables(
            [pa.table(b)
             for b in edges_ds.select_columns([src, dst, w])
                              .iter_batches(batch_format="pyarrow")])
        u = cat.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        v = cat.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        wt = cat.column(w).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(wt) and wt.min() <= 0:
            raise ValueError("sssp_weighted: weights must be positive")
        nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
        ui, vi = inv[: len(u)], inv[len(u):]
        n = len(nodes)
        s = int(nodes[0]) if source is None else int(source)
        si = np.searchsorted(nodes, s)
        if si >= n or nodes[si] != s:
            raise ValueError(f"sssp_weighted: source {s} is not a node")
        order = np.argsort(ui, kind="stable")
        us, vs, ws = ui[order], vi[order], wt[order]
        starts = np.searchsorted(us, np.arange(n + 1))
        INF = np.iinfo(np.int64).max
        dist = np.full(n, INF, np.int64)
        dist[si] = 0
        frontier = np.array([si], np.int64)
        while len(frontier):
            cnts = starts[frontier + 1] - starts[frontier]
            tot = int(cnts.sum())
            if not tot:
                break
            idx = (np.repeat(starts[frontier], cnts)
                   + np.arange(tot)
                   - np.repeat(np.cumsum(cnts) - cnts, cnts))
            cand_d = np.repeat(dist[frontier], cnts) + ws[idx]
            nd = dist.copy()
            np.minimum.at(nd, vs[idx], cand_d)
            frontier = np.nonzero(nd < dist)[0]
            dist = nd
        reached = dist < INF
        return pa.table({"node": nodes[reached], "dist": dist[reached]})

    # ---- distributed path ------------------------------------------------
    import ray.data as rd
    from .shuffles import int_part_map as _ipm

    def to_e(t: pa.Table) -> pa.Table:
        return pa.table({"src": t.column(src).cast(pa.int64()),
                         "dst": t.column(dst).cast(pa.int64()),
                         "w": t.column(w).cast(pa.int64())})

    e = edges_ds.map_batches(to_e, batch_format="pyarrow").materialize()
    if source is None:
        import pyarrow.compute as pc

        @ray.remote
        def _min2(t: pa.Table) -> int:
            return min(int(pc.min(t.column("src")).as_py()),
                       int(pc.min(t.column("dst")).as_py()))

        source = min(ray.get([_min2.remote(r) for r in arrow_refs(e)]))
    labels = rd.from_arrow(pa.table(
        {"node": pa.array([int(source)], pa.int64()),
         "label": pa.array([0], pa.int64())})).materialize()

    def tag_edge(t: pa.Table) -> pa.Table:
        z = np.zeros(t.num_rows, np.int64)
        return pa.table({"gkey": t.column("src"), "dst": t.column("dst"),
                         "w": t.column("w"), "lab": pa.array(z),
                         "tag": pa.array(np.zeros(t.num_rows, np.int8))})

    def tag_lab(t: pa.Table) -> pa.Table:
        z = np.zeros(t.num_rows, np.int64)
        return pa.table({"gkey": t.column("node"), "dst": pa.array(z),
                         "w": pa.array(z), "lab": t.column("label"),
                         "tag": pa.array(np.ones(t.num_rows, np.int8))})

    def _relax_w(df: pd.DataFrame) -> pd.DataFrame:
        tag = df["tag"].to_numpy()
        own, fol = df[tag == 1], df[tag == 0]
        z = np.array([], np.int64)
        if not len(fol) or not len(own):
            return pd.DataFrame({"node": z, "label": z})
        ok = own["gkey"].to_numpy(np.int64)
        ol = own["lab"].to_numpy(np.int64)
        o = np.argsort(ok, kind="stable")
        ok, ol = ok[o], ol[o]
        g = fol["gkey"].to_numpy(np.int64)
        idx = np.searchsorted(ok, g)
        fnd = np.zeros(len(g), bool)
        inb = idx < len(ok)
        fnd[inb] = ok[idx[inb]] == g[inb]
        return pd.DataFrame(
            {"node": fol["dst"].to_numpy(np.int64)[fnd],
             "label": ol[idx[fnd]] + fol["w"].to_numpy(np.int64)[fnd]})

    @ray.remote
    def _cnt_sum(t: pa.Table):
        import pyarrow.compute as pc
        return (t.num_rows, int(pc.sum(t.column("label")).as_py() or 0))

    prev = None
    for _ in range(max_iters):
        tagged = e.map_batches(tag_edge, batch_format="pyarrow") \
                  .union(labels.map_batches(tag_lab,
                                            batch_format="pyarrow"))
        msgs = _ipm(tagged, "gkey", _relax_w,
                    num_partitions=num_partitions)
        labels = _ipm(msgs.union(labels), "node", _min_per_node,
                      num_partitions=num_partitions).materialize()
        cs = ray.get([_cnt_sum.remote(r) for r in arrow_refs(labels)])
        s = (sum(c for c, _ in cs), sum(v for _, v in cs))
        if prev is not None and s == prev:
            break
        prev = s
    else:
        import warnings
        warnings.warn(
            f"sssp_weighted: relaxation did not stabilize within "
            f"max_iters={max_iters}; distances may be incomplete "
            f"(raise max_iters)", RuntimeWarning)
    cat = pa.concat_tables(
        [pa.table(b) for b in labels.iter_batches(batch_format="pyarrow")])
    return cat.rename_columns(["node", "dist"]).sort_by("node")


def hash_walks(edges_ds, length: int = 4, src: str = "src",
               dst: str = "dst", driver_limit: int = DRIVER_CC_MAX,
               num_partitions: int = 8):
    """Deterministic 'random' walks over a DIRECTED edge Dataset — the
    DeepWalk/node2vec corpus generator with the randomness replaced by
    a seeded hash so every engine (and the SQL oracle) derives the
    SAME walks: from every source node, ``length`` steps where the
    step-t hop from node u is its ``md5_low64(f"{u}:{t}") % outdeg(u)``-th
    out-neighbor in dst order (DuckDB: ``md5_number_lower`` — the
    fingerprint/simhash twin convention, stages/dedup.py). A walk
    stops early at a node with no out-edges. Multi-edges collapse
    (DISTINCT) first. Returns a ``pyarrow.Table``
    (start, step, node) sorted — O(nodes x length) rows.

    Scale shape: below ``driver_limit`` edges the walk table builds on
    the driver from a CSR (one md5 per DISTINCT frontier node per
    step, not per walker). Above: ONE owner-lookup exchange per step —
    adjacency and walkers partition by the current node, the kernel
    resolves every co-located walker's hop vectorized (md5 memoized
    per distinct node), walkers ship as (start, cur) pairs — O(nodes)
    rows per step, never edges; the emitted per-step hops union into
    the result."""
    import ray
    import ray.data as rd
    from .shuffles import int_part_map as _ipm
    from ..stages.aggregates import md5_low64

    e = _ipm(edges_ds.map_batches(
        lambda t: pa.table({"src": t.column(src).cast(pa.int64()),
                            "dst": t.column(dst).cast(pa.int64())}),
        batch_format="pyarrow"), "src", _distinct_edges,
        num_partitions=num_partitions).materialize()
    n_edges = e.count()
    empty = pa.table({"start": pa.array([], pa.int64()),
                      "step": pa.array([], pa.int64()),
                      "node": pa.array([], pa.int64())})
    if n_edges == 0:
        return empty

    if n_edges <= driver_limit:
        cat = pa.concat_tables(
            [pa.table(b) for b in e.iter_batches(batch_format="pyarrow")])
        u = cat.column("src").to_numpy(zero_copy_only=False)
        v = cat.column("dst").to_numpy(zero_copy_only=False)
        o = np.lexsort((v, u))
        u, v = u[o], v[o]
        srcs = np.unique(u)
        starts = np.searchsorted(u, srcs)
        ends = np.searchsorted(u, srcs, side="right")
        walk_start = srcs.copy()
        cur = srcs.copy()
        rows_s = [walk_start]
        rows_t = [np.zeros(len(cur), np.int64)]
        rows_n = [cur]
        for t in range(length):
            pos = np.searchsorted(srcs, cur)
            ok = (pos < len(srcs))
            ok[ok] = srcs[pos[ok]] == cur[ok]
            walk_start, cur, pos = walk_start[ok], cur[ok], pos[ok]
            if not len(cur):
                break
            uniq, inv = np.unique(cur, return_inverse=True)
            up = np.searchsorted(srcs, uniq)
            deg = ends[up] - starts[up]
            pick = np.array(
                [md5_low64(f"{int(c)}:{t}") % int(d)
                 for c, d in zip(uniq, deg)], np.int64)
            cur = v[starts[pos] + pick[inv]]
            rows_s.append(walk_start)
            rows_t.append(np.full(len(cur), t + 1, np.int64))
            rows_n.append(cur)
        return pa.table({
            "start": pa.array(np.concatenate(rows_s)),
            "step": pa.array(np.concatenate(rows_t)),
            "node": pa.array(np.concatenate(rows_n))}).sort_by(
                [("start", "ascending"), ("step", "ascending")])

    # ---- distributed path ------------------------------------------------
    def _srcs_kernel(df: pd.DataFrame) -> pd.DataFrame:
        n = np.unique(df["src"].to_numpy(np.int64))
        return pd.DataFrame({"start": n, "cur": n})

    walkers = _ipm(e, "src", _srcs_kernel,
                   num_partitions=num_partitions).materialize()
    out_parts = [walkers.map_batches(
        lambda t: pa.table({"start": t.column("start"),
                            "step": pa.array(
                                np.zeros(t.num_rows, np.int64)),
                            "node": t.column("cur")}),
        batch_format="pyarrow")]

    def tag_adj(t: pa.Table) -> pa.Table:
        return pa.table({"gkey": t.column("src"),
                         "other": t.column("dst"),
                         "tag": pa.array(np.zeros(t.num_rows, np.int8))})

    def tag_walk(t: pa.Table) -> pa.Table:
        return pa.table({"gkey": t.column("cur"),
                         "other": t.column("start"),
                         "tag": pa.array(np.ones(t.num_rows, np.int8))})

    def _hop_kernel(step: int):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            tag = df["tag"].to_numpy()
            adj, wk = df[tag == 0], df[tag == 1]
            z = np.array([], np.int64)
            if not len(adj) or not len(wk):
                return pd.DataFrame({"start": z, "cur": z})
            au = adj["gkey"].to_numpy(np.int64)
            av = adj["other"].to_numpy(np.int64)
            o = np.lexsort((av, au))
            au, av = au[o], av[o]
            srcs = np.unique(au)
            st = np.searchsorted(au, srcs)
            en = np.searchsorted(au, srcs, side="right")
            cur = wk["gkey"].to_numpy(np.int64)
            stt = wk["other"].to_numpy(np.int64)
            pos = np.searchsorted(srcs, cur)
            ok = pos < len(srcs)
            ok[ok] = srcs[pos[ok]] == cur[ok]
            cur, stt, pos = cur[ok], stt[ok], pos[ok]
            if not len(cur):
                return pd.DataFrame({"start": z, "cur": z})
            uniq, inv = np.unique(cur, return_inverse=True)
            up = np.searchsorted(srcs, uniq)
            deg = en[up] - st[up]
            pick = np.array(
                [md5_low64(f"{int(c)}:{step}") % int(d)
                 for c, d in zip(uniq, deg)], np.int64)
            return pd.DataFrame({"start": stt,
                                 "cur": av[st[pos] + pick[inv]]})
        return f

    for t in range(length):
        tagged = e.map_batches(tag_adj, batch_format="pyarrow") \
            .union(walkers.map_batches(tag_walk, batch_format="pyarrow"))
        walkers = _ipm(tagged, "gkey", _hop_kernel(t),
                       num_partitions=num_partitions).materialize()
        if walkers.count() == 0:
            break
        out_parts.append(walkers.map_batches(
            lambda tb, _s=t + 1: pa.table(
                {"start": tb.column("start"),
                 "step": pa.array(np.full(tb.num_rows, _s, np.int64)),
                 "node": tb.column("cur")}),
            batch_format="pyarrow"))
    res = out_parts[0]
    for p in out_parts[1:]:
        res = res.union(p)
    cat = pa.concat_tables(
        [pa.table(b) for b in res.iter_batches(batch_format="pyarrow")])
    return (cat if cat.num_rows else empty).sort_by(
        [("start", "ascending"), ("step", "ascending")])


def k_core(edges_ds, k: int = 3, src: str = "src", dst: str = "dst",
           driver_limit: int = DRIVER_CC_MAX,
           max_iters: int = 128, num_partitions: int = 8):
    """Nodes of the k-core of an UNDIRECTED graph (pass each edge once
    in either direction; both directions, self-loops and multi-edges
    are normalized away): the maximal subgraph where every node keeps
    degree >= k — the density filter that strips crawl-graph tendrils
    before community/spam analysis (the reference has no graph ops;
    its nearest analogue is the info-score page gate). Returns a
    ``pyarrow.Table`` (node,) sorted — the k-core members.

    Parallel peeling: each round drop ALL nodes whose degree among
    surviving nodes is < k; the fixpoint is the k-core regardless of
    peel order, so the driver and distributed paths agree exactly.
    Below ``driver_limit`` edges: numpy bincount peel on the driver.
    Above: per round THREE keyed raw-task exchanges — (1) owner-lookup
    keyed by src keeps edges whose src survives, (2) keyed by dst
    keeps edges whose dst survives and emits per-partition partial
    degree counts per src (a combiner — shuffle volume is per-part
    distinct nodes, not edges), (3) keyed by node folds partials and
    keeps survivors with degree >= k. The driver sees one O(1) count
    scalar per round; alive only shrinks, so count fixpoint == k-core.
    """
    import ray
    import ray.data as rd
    from .shuffles import int_part_map as _ipm

    def prep(t: pa.Table) -> pa.Table:
        u = t.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        v = t.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = u != v
        u, v = u[keep], v[keep]
        return pa.table({"src": pa.array(np.concatenate([u, v])),
                         "dst": pa.array(np.concatenate([v, u]))})

    e = _ipm(edges_ds.map_batches(prep, batch_format="pyarrow"),
             "src", _distinct_edges,
             num_partitions=num_partitions).materialize()
    n_edges = e.count()
    empty = pa.table({"node": pa.array([], pa.int64())})
    if n_edges == 0:
        return empty

    if n_edges <= driver_limit:
        cat = pa.concat_tables(
            [pa.table(b) for b in e.iter_batches(batch_format="pyarrow")])
        u = cat.column("src").to_numpy(zero_copy_only=False)
        v = cat.column("dst").to_numpy(zero_copy_only=False)
        nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
        ui, vi = inv[: len(u)], inv[len(u):]
        alive = np.ones(len(nodes), bool)
        while True:
            m = alive[ui] & alive[vi]
            deg = np.bincount(ui[m], minlength=len(nodes))
            drop = alive & (deg < k)
            if not drop.any():
                break
            alive[drop] = False
        return pa.table({"node": nodes[alive]})

    # ---- distributed path ------------------------------------------------
    alive = _ipm(e.map_batches(
        lambda t: pa.table({"node": t.column("src")}),
        batch_format="pyarrow"), "node", _distinct_nodes,
        num_partitions=num_partitions).materialize()
    n_alive = alive.count()

    def tag_e(key: str):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({"gkey": t.column(key),
                             "src": t.column("src"),
                             "dst": t.column("dst"),
                             "tag": pa.array(
                                 np.zeros(t.num_rows, np.int8))})
        return f

    def tag_n(t: pa.Table) -> pa.Table:
        nd = t.column("node")
        return pa.table({"gkey": nd, "src": nd, "dst": nd,
                         "tag": pa.array(np.ones(t.num_rows, np.int8))})

    def _keep_alive_key(df: pd.DataFrame) -> pd.DataFrame:
        """Edges whose gkey endpoint is an alive node pass through."""
        tag = df["tag"].to_numpy()
        own, fol = df[tag == 1], df[tag == 0]
        z = np.array([], np.int64)
        if not len(fol) or not len(own):
            return pd.DataFrame({"src": z, "dst": z})
        ok = np.sort(own["gkey"].to_numpy(np.int64))
        g = fol["gkey"].to_numpy(np.int64)
        idx = np.searchsorted(ok, g)
        fnd = np.zeros(len(g), bool)
        inb = idx < len(ok)
        fnd[inb] = ok[idx[inb]] == g[inb]
        return pd.DataFrame({"src": fol["src"].to_numpy(np.int64)[fnd],
                             "dst": fol["dst"].to_numpy(np.int64)[fnd]})

    def _deg_partial(t: pa.Table) -> pa.Table:
        s = np.sort(t.column("src").to_numpy(zero_copy_only=False)
                    .astype(np.int64))
        if not len(s):
            return pa.table({"node": pa.array(s),
                             "cnt": pa.array(s)})
        new = np.ones(len(s), bool)
        new[1:] = s[1:] != s[:-1]
        st = np.nonzero(new)[0]
        cnt = np.diff(np.append(st, len(s)))
        return pa.table({"node": pa.array(s[st]),
                         "cnt": pa.array(cnt.astype(np.int64))})

    def _fold_alive(df: pd.DataFrame) -> pd.DataFrame:
        tag = df["tag"].to_numpy()
        own, fol = df[tag == 1], df[tag == 0]
        z = np.array([], np.int64)
        if not len(own):
            return pd.DataFrame({"node": z})
        if not len(fol):
            return pd.DataFrame({"node": z})
        n = fol["node"].to_numpy(np.int64)
        c = fol["cnt"].to_numpy(np.int64)
        o = np.argsort(n, kind="stable")
        n, c = n[o], c[o]
        new = np.ones(len(n), bool)
        new[1:] = n[1:] != n[:-1]
        st = np.nonzero(new)[0]
        tot = np.add.reduceat(c, st)
        cand = n[st][tot >= k]
        ok = np.sort(own["node"].to_numpy(np.int64))
        idx = np.searchsorted(ok, cand)
        fnd = np.zeros(len(cand), bool)
        inb = idx < len(ok)
        fnd[inb] = ok[idx[inb]] == cand[inb]
        return pd.DataFrame({"node": cand[fnd]})

    for _ in range(max_iters):
        s_ok = _ipm(e.map_batches(tag_e("src"), batch_format="pyarrow")
                    .union(alive.map_batches(tag_n,
                                             batch_format="pyarrow")),
                    "gkey", _keep_alive_key,
                    num_partitions=num_partitions)
        d_ok = _ipm(s_ok.map_batches(tag_e("dst"), batch_format="pyarrow")
                    .union(alive.map_batches(tag_n,
                                             batch_format="pyarrow")),
                    "gkey", _keep_alive_key,
                    num_partitions=num_partitions)
        partials = d_ok.map_batches(_deg_partial, batch_format="pyarrow") \
            .map_batches(lambda t: t.append_column(
                "tag", pa.array(np.zeros(t.num_rows, np.int8))),
                batch_format="pyarrow")
        al_tag = alive.map_batches(
            lambda t: pa.table({"node": t.column("node"),
                                "cnt": pa.array(
                                    np.zeros(t.num_rows, np.int64)),
                                "tag": pa.array(
                                    np.ones(t.num_rows, np.int8))}),
            batch_format="pyarrow")
        alive = _ipm(partials.union(al_tag), "node", _fold_alive,
                     num_partitions=num_partitions).materialize()
        na = alive.count()
        if na == n_alive:
            break
        n_alive = na
        if na == 0:
            return empty
    else:
        import warnings
        warnings.warn(
            f"k_core: peeling did not stabilize within "
            f"max_iters={max_iters}", RuntimeWarning)
    cat = pa.concat_tables(
        [pa.table(b) for b in alive.iter_batches(batch_format="pyarrow")])
    return (cat if cat.num_rows else empty).sort_by("node")


def clustering_coefficients(edges_ds, src: str = "src", dst: str = "dst",
                            driver_limit: int = DRIVER_CC_MAX,
                            num_partitions: int = 8):
    """Per-node LOCAL clustering coefficient of the undirected simple
    graph — coeff(v) = 2·tri(v) / (deg(v)·(deg(v)−1)), the
    community-density signal on top of triangle_counts (Watts–Strogatz
    local coefficient; the standard spam/cohesion feature next to
    pagerank). Nodes with deg < 2 close no wedge and emit 0.0 (the
    oracle mirrors the CASE). BIT-EXACT: numerator and denominator are
    integers; the only float is ONE division per node.

    Scale shape: one materialize of the edge input shared by two
    passes — triangle_counts (its own plan: driver numpy below
    ``driver_limit`` edges, five keyed exchanges above) and a degree
    count (driver bincount below the limit; canonical-distinct +
    count-per-node exchanges above). Both outputs are O(nodes) and
    merge on the driver with one searchsorted — the same O(nodes)
    driver traffic triangle_counts already pays. Returns a
    ``pyarrow.Table`` (node, n_triangles, deg, coeff) sorted by node."""
    edges_m = edges_ds.materialize()
    empty = pa.table({"node": pa.array([], pa.int64()),
                      "n_triangles": pa.array([], pa.int64()),
                      "deg": pa.array([], pa.int64()),
                      "coeff": pa.array([], pa.float64())})
    n_edges = edges_m.count()
    if n_edges == 0:
        return empty
    tri = triangle_counts(edges_m, src, dst, driver_limit,
                          num_partitions)
    if tri.num_rows == 0:
        return empty

    if n_edges <= driver_limit:
        cat = pa.concat_tables(
            [pa.table(b) for b in edges_m.select_columns([src, dst])
                                         .iter_batches(batch_format="pyarrow")])
        u = cat.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        v = cat.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keep = lo != hi
        uv = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
        nodes, inv = np.unique(uv.ravel(order="F"), return_inverse=True)
        deg = np.bincount(inv, minlength=len(nodes)).astype(np.int64)
    else:
        from .shuffles import int_part_map as _ipm

        def to_canon(t: pa.Table) -> pa.Table:
            uu = t.column(src).cast(pa.int64()) \
                .to_numpy(zero_copy_only=False)
            vv = t.column(dst).cast(pa.int64()) \
                .to_numpy(zero_copy_only=False)
            lo, hi = np.minimum(uu, vv), np.maximum(uu, vv)
            keep = lo != hi
            return pa.table({"src": pa.array(lo[keep]),
                             "dst": pa.array(hi[keep])})

        canon = _ipm(edges_m.map_batches(to_canon,
                                         batch_format="pyarrow"),
                     "src", _distinct_edges,
                     num_partitions=num_partitions)

        def node_rows(t: pa.Table) -> pa.Table:
            aa = t.column("src").combine_chunks()
            bb = t.column("dst").combine_chunks()
            return pa.table({"node": pa.concat_arrays([aa, bb])})

        dd = pa.concat_tables(
            [pa.table(b) for b in
             _ipm(canon.map_batches(node_rows, batch_format="pyarrow"),
                  "node", _count_per_node,
                  num_partitions=num_partitions)
             .iter_batches(batch_format="pyarrow")])
        o = np.argsort(dd.column("node").to_numpy(zero_copy_only=False),
                       kind="mergesort")
        nodes = dd.column("node").to_numpy(zero_copy_only=False)[o]
        deg = dd.column("deg").to_numpy(zero_copy_only=False) \
            .astype(np.int64)[o]

    tnode = tri.column("node").to_numpy(zero_copy_only=False)
    tcnt = tri.column("n_triangles").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    pos = np.searchsorted(tnode, nodes)
    if not np.array_equal(tnode[pos], nodes):
        raise ValueError("clustering_coefficients: triangle/degree "
                         "node sets diverged")
    tcnt = tcnt[pos]
    den = deg * (deg - 1)
    coeff = np.where(deg >= 2,
                     (2 * tcnt).astype(np.float64)
                     / np.where(den == 0, 1, den).astype(np.float64),
                     0.0)
    return pa.table({"node": pa.array(nodes.astype(np.int64)),
                     "n_triangles": pa.array(tcnt),
                     "deg": pa.array(deg),
                     "coeff": pa.array(coeff, pa.float64())})


def degree_assortativity(edges_ds, src: str = "src", dst: str = "dst",
                         driver_limit: int = DRIVER_CC_MAX,
                         num_partitions: int = 8):
    """Degree assortativity of the undirected simple graph — the
    Pearson correlation of (deg(u), deg(v)) over the SYMMETRIC
    directed edge list (Newman 2002): do hubs link to hubs? BIT-EXACT:
    the sufficient statistics (n, Sx, Sxy, Sxx; symmetry makes
    Sy = Sx, Syy = Sxx) are exact integers and the closed form is two
    sqrts + ONE division. Degenerate (regular) graphs return an empty
    table. Returns a 1-row Table (n_edges_dir, r).

    Scale shape: below ``driver_limit`` edges, driver numpy. Above:
    canonical-distinct + degree-count exchanges, then ONE payload
    attach exchange per endpoint (the triangle_counts tagged-union
    shape) and a pure per-partition integer-sum combiner — the driver
    folds O(partitions) partial rows."""
    import math

    empty = pa.table({"n_edges_dir": pa.array([], pa.int64()),
                      "r": pa.array([], pa.float64())})
    edges_m = edges_ds.materialize()
    n_edges = edges_m.count()
    if n_edges == 0:
        return empty

    def _finish(n: int, sx: int, sxy: int, sxx: int):
        num = n * sxy - sx * sx
        den = n * sxx - sx * sx
        if den <= 0:
            return empty
        r = float(num) / (math.sqrt(float(den)) * math.sqrt(float(den)))
        return pa.table({"n_edges_dir": pa.array([n], pa.int64()),
                         "r": pa.array([r], pa.float64())})

    if n_edges <= driver_limit:
        cat = pa.concat_tables(
            [pa.table(b) for b in edges_m.select_columns([src, dst])
                                         .iter_batches(batch_format="pyarrow")])
        u = cat.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        v = cat.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keep = lo != hi
        uv = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
        if not len(uv):
            return empty
        a, b = uv[:, 0], uv[:, 1]
        nodes, inv = np.unique(np.concatenate([a, b]),
                               return_inverse=True)
        ai, bi = inv[:len(a)], inv[len(a):]
        deg = (np.bincount(ai, minlength=len(nodes))
               + np.bincount(bi, minlength=len(nodes))).astype(np.int64)
        du = np.concatenate([deg[ai], deg[bi]])
        dv = np.concatenate([deg[bi], deg[ai]])
        return _finish(len(du), int(du.sum()), int((du * dv).sum()),
                       int((du * du).sum()))

    # ---- distributed path ------------------------------------------------
    from .shuffles import int_part_map as _ipm

    def to_canon(t: pa.Table) -> pa.Table:
        uu = t.column(src).cast(pa.int64()).to_numpy(zero_copy_only=False)
        vv = t.column(dst).cast(pa.int64()).to_numpy(zero_copy_only=False)
        lo, hi = np.minimum(uu, vv), np.maximum(uu, vv)
        keep = lo != hi
        return pa.table({"src": pa.array(lo[keep]),
                         "dst": pa.array(hi[keep])})

    canon = _ipm(edges_m.map_batches(to_canon, batch_format="pyarrow"),
                 "src", _distinct_edges,
                 num_partitions=num_partitions).materialize()

    def node_rows(t: pa.Table) -> pa.Table:
        aa = t.column("src").combine_chunks()
        bb = t.column("dst").combine_chunks()
        return pa.table({"node": pa.concat_arrays([aa, bb])})

    deg = _ipm(canon.map_batches(node_rows, batch_format="pyarrow"),
               "node", _count_per_node,
               num_partitions=num_partitions).materialize()

    def _attach(df: pd.DataFrame) -> pd.DataFrame:
        tag = df["tag"].to_numpy()
        own, fol = df[tag == 1], df[tag == 0]
        z = np.array([], np.int64)
        if not len(fol):
            return pd.DataFrame({"k": z, "other": z, "carried": z,
                                 "dg": z})
        ok = own["gkey"].to_numpy(np.int64)
        od = own["p1"].to_numpy(np.int64)
        o = np.argsort(ok, kind="stable")
        ok, od = ok[o], od[o]
        g = fol["gkey"].to_numpy(np.int64)
        idx = np.searchsorted(ok, g)
        if len(ok) == 0 or not np.array_equal(
                ok[np.clip(idx, 0, len(ok) - 1)], g):
            raise ValueError("assortativity attach: endpoint without "
                             "a degree row")
        return pd.DataFrame({"k": g,
                             "other": fol["p1"].to_numpy(np.int64),
                             "carried": fol["p2"].to_numpy(np.int64),
                             "dg": od[idx]})

    def tag_deg(t: pa.Table) -> pa.Table:
        z = np.zeros(t.num_rows, np.int64)
        return pa.table({"gkey": t.column("node"), "p1": t.column("deg"),
                         "p2": pa.array(z),
                         "tag": pa.array(np.ones(t.num_rows, np.int8))})

    def tag_e_u(t: pa.Table) -> pa.Table:
        z = np.zeros(t.num_rows, np.int64)
        return pa.table({"gkey": t.column("src"), "p1": t.column("dst"),
                         "p2": pa.array(z),
                         "tag": pa.array(np.zeros(t.num_rows, np.int8))})

    e_du = _ipm(canon.map_batches(tag_e_u, batch_format="pyarrow")
                     .union(deg.map_batches(tag_deg,
                                            batch_format="pyarrow")),
                "gkey", _attach, num_partitions=num_partitions)

    def tag_e_v(t: pa.Table) -> pa.Table:
        return pa.table({"gkey": t.column("other"), "p1": t.column("k"),
                         "p2": t.column("dg"),
                         "tag": pa.array(np.zeros(t.num_rows, np.int8))})

    e_duv = _ipm(e_du.map_batches(tag_e_v, batch_format="pyarrow")
                     .union(deg.map_batches(tag_deg,
                                            batch_format="pyarrow")),
                 "gkey", _attach, num_partitions=num_partitions)
    # e_duv rows: k=v, other=u, carried=deg(u), dg=deg(v)

    def sums(t: pa.Table) -> pa.Table:
        du_ = t.column("carried").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        dv_ = t.column("dg").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        # symmetric: count both directions
        return pa.table({
            "n": pa.array([2 * len(du_)], pa.int64()),
            "sx": pa.array([int(du_.sum() + dv_.sum())], pa.int64()),
            "sxy": pa.array([2 * int((du_ * dv_).sum())], pa.int64()),
            "sxx": pa.array([int((du_ * du_).sum()
                                 + (dv_ * dv_).sum())], pa.int64())})

    n = sx = sxy = sxx = 0
    for b in e_duv.map_batches(sums, batch_format="pyarrow") \
                  .iter_batches(batch_format="pyarrow"):
        tb = pa.table(b)
        n += int(pa.compute.sum(tb.column("n")).as_py() or 0)
        sx += int(pa.compute.sum(tb.column("sx")).as_py() or 0)
        sxy += int(pa.compute.sum(tb.column("sxy")).as_py() or 0)
        sxx += int(pa.compute.sum(tb.column("sxx")).as_py() or 0)
    if n == 0:
        return empty
    return _finish(n, sx, sxy, sxx)


def closeness_sampled(edges_ds, n_sources: int = 4,
                      src: str = "src", dst: str = "dst",
                      **bfs_kwargs):
    """SAMPLED closeness-centrality sufficient statistics: BFS hop
    distances from the ``n_sources`` smallest node ids (deterministic,
    scale-independent pivots), folded per node into (n_src = sources
    reaching it, sum_hops) — the landmark-distance signal behind
    closeness/harmonic centrality estimates (exact closeness is
    all-pairs and does not scale; landmark sampling is the standard
    approximation). All-integer output, bit-exact. Directed input —
    callers append reversed edges for undirected reach (the bfs_hops
    contract). Returns a ``pyarrow.Table`` (node, n_src, sum_hops)
    sorted by node.

    Scale shape: below ``driver_limit`` edges the graph is pulled
    ONCE, the CSR built once, and the S BFS frontier sweeps share it
    (the per-seed bfs_hops composition re-pulled the edge table per
    seed — 4 seeds measured 7.0 s at sf0.1 vs 1.8 s single-pull);
    above the limit: ``n_sources`` sequential bfs_hops relaxation
    runs over ONE materialized edge Dataset (parity pinned there).
    The fold reduces the S O(V) hop tables with one sorted reduceat —
    driver traffic is O(S·V), the same class as the result itself."""
    e = edges_ds.materialize()

    def srcs(t: pa.Table) -> pa.Table:
        u = np.unique(t.column(src).to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        return pa.table({"node": pa.array(u[:n_sources], pa.int64())})

    cand = [pa.table(b).column("node").to_numpy(zero_copy_only=False)
            for b in e.map_batches(srcs, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow")]
    empty = pa.table({"node": pa.array([], pa.int64()),
                      "n_src": pa.array([], pa.int64()),
                      "sum_hops": pa.array([], pa.int64())})
    if not cand:
        return empty
    seeds = np.unique(np.concatenate(cand))[:n_sources]
    if not len(seeds):
        return empty

    driver_limit = bfs_kwargs.get("driver_limit", DRIVER_CC_MAX)
    if e.count() <= driver_limit:
        cat = pa.concat_tables(
            [pa.table(b) for b in e.select_columns([src, dst])
             .iter_batches(batch_format="pyarrow")])
        u = cat.column(src).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        v = cat.column(dst).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nodes, inv = np.unique(np.concatenate([u, v]),
                               return_inverse=True)
        ui, vi = inv[:len(u)], inv[len(u):]
        order = np.argsort(ui, kind="stable")
        su, sv = ui[order], vi[order]
        starts = np.searchsorted(su, np.arange(len(nodes)))
        ends = np.searchsorted(su, np.arange(len(nodes)), side="right")
        tabs = []
        for s in seeds:
            sidx = int(np.searchsorted(nodes, s))
            dist = np.full(len(nodes), -1, np.int64)
            dist[sidx] = 0
            frontier = np.array([sidx], np.int64)
            d = 0
            while len(frontier):
                d += 1
                nbrs = np.concatenate(
                    [sv[starts[f]:ends[f]] for f in frontier])                     if len(frontier) else np.array([], np.int64)
                nbrs = np.unique(nbrs)
                nbrs = nbrs[dist[nbrs] == -1]
                dist[nbrs] = d
                frontier = nbrs
            reached = dist >= 0
            tabs.append(pa.table({
                "node": pa.array(nodes[reached]),
                "hops": pa.array(dist[reached])}))
    else:
        tabs = [bfs_hops(e, source=int(s), src=src, dst=dst,
                         **bfs_kwargs)
                for s in seeds]
    cat = pa.concat_tables(tabs)
    if cat.num_rows == 0:
        return empty
    nd = cat.column("node").to_numpy(zero_copy_only=False)
    hp = cat.column("hops").to_numpy(zero_copy_only=False)
    o = np.argsort(nd, kind="stable")
    nd, hp = nd[o], hp[o]
    st = np.flatnonzero(np.concatenate(([True], nd[1:] != nd[:-1])))
    return pa.table({
        "node": pa.array(nd[st], pa.int64()),
        "n_src": pa.array(np.diff(np.append(st, len(nd)))
                          .astype(np.int64)),
        "sum_hops": pa.array(np.add.reduceat(hp, st).astype(np.int64)),
    })


def reciprocity(edges_ds, src: str = "src", dst: str = "dst",
                num_partitions: int = 64):
    """Directed-graph reciprocity — what fraction of distinct directed
    edges have their reverse edge present? The link-symmetry audit for
    crawl link graphs (a host graph with high reciprocity behaves like
    an undirected web; near-zero means a strict hierarchy).

    Semantics (== the oracle's DISTINCT self-join): over the DISTINCT
    directed edge set with self-loops dropped, ``n_mutual`` = number of
    directed edges whose reverse is also present; ``reciprocity`` =
    n_mutual / n_edges (exact integers + ONE division — bit-exact).

    Scale shape: ONE unordered-pair-keyed raw-task exchange
    (shuffles.int_part_map) — both directions of a pair hash to the
    same partition, so each partition dedupes its directed edges and
    counts both-direction pairs locally and emits ONE partial count
    row; the driver folds O(partitions) rows of exact ints. No
    driver-side edge data, no sort-based shuffle."""
    from ..functions.hashing import hash64_ints
    from .shuffles import int_part_map

    K = np.int64(1) << np.int64(31)

    def prep(t: pa.Table) -> pa.Table:
        s = t.column(src).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        d = t.column(dst).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        lo = np.minimum(s, d)
        hi = np.maximum(s, d)
        gkey = hash64_ints(lo * K + hi).view(np.int64)
        return pa.table({"lo": pa.array(lo), "hi": pa.array(hi),
                         "rev": pa.array((s > d).astype(np.int64)),
                         "gkey": pa.array(gkey)})

    def kern(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"n_edges": np.array([], np.int64),
                                 "n_mutual": np.array([], np.int64)})
        pid = (df["lo"].to_numpy() * K + df["hi"].to_numpy())
        u = np.unique(pid * 2 + df["rev"].to_numpy())
        upid, cnt = np.unique(u >> 1, return_counts=True)
        n_mut = 2 * int((cnt == 2).sum())
        return pd.DataFrame({"n_edges": [np.int64(len(u))],
                             "n_mutual": [np.int64(n_mut)]})

    parts = int_part_map(edges_ds, "gkey", kern,
                         num_partitions=num_partitions, prepare=prep)
    ne = nm = 0
    for b in parts.iter_batches(batch_format="pyarrow"):
        tb = pa.table(b)
        ne += int(pa.compute.sum(tb.column("n_edges")).as_py() or 0)
        nm += int(pa.compute.sum(tb.column("n_mutual")).as_py() or 0)
    r = (float(nm) / float(ne)) if ne else None
    return pa.table({"n_edges": pa.array([ne], pa.int64()),
                     "n_mutual": pa.array([nm], pa.int64()),
                     "reciprocity": pa.array([r], pa.float64())})


def tree_rollup(nodes_ds, node_col: str = "node",
                parent_col: str = "parent", value_col: str = "cents",
                driver_limit: int = 1_000_000, max_rounds: int = 10,
                num_partitions: int = 8):
    """Hierarchy rollup: for every node of a forest given as
    (node, parent, integer value) rows — ``parent == node`` marks a
    root — aggregate the value over the node's ENTIRE subtree
    (descendants including itself): the org-chart / account-hierarchy
    / category-tree primitive (SQL's recursive-CTE rollup). Returns a
    Dataset of (node, n_desc, subtree_sum) — exact integers, no
    floats anywhere.

    Below ``driver_limit`` rows the pointer chase runs driver-side in
    numpy (depth-bounded; each step one gather + two scatter-adds).
    Above it — or when ``driver_limit=0`` forces it — the distributed
    plan is POINTER-DOUBLING PATH AGGREGATION on keyed raw-task
    exchanges (the connected_components idiom — never Dataset.join):

        A = {(k, k, v_k)}          collected (node, ancestor, value)
        J_k = parent(k)            jump pointer, distance 2^r
        round r: requests (J_k, k, v_k) meet owner J's A-rows and
                 J-row; new pairs (k, a) for a in A_J land distances
                 [2^r, 2^{r+1}); J_k <- J_{J_k}; A deduped per
                 node-keyed partition
        stop when |A| is stable (exact integer scalar per round —
        stability certifies every path reached its root)

    so a depth-D forest finishes in ceil(log2 D)+1 rounds, total
    traffic O(n · depth) pairs (the ancestor closure itself — the
    same rows a recursive CTE materializes), never O(depth) sequential
    lookups. The finish is ONE ancestor-keyed exchange summing values.
    """
    import ray

    from .shuffles import int_part_map

    nodes_ds = nodes_ds.materialize()

    if nodes_ds.count() <= max(driver_limit, 0):
        cols = [pa.table(b) for b in nodes_ds.iter_batches(
            batch_format="pyarrow")]
        cat = pa.concat_tables(cols) if cols else None
        if cat is None or cat.num_rows == 0:
            return ray.data.from_arrow(pa.table(
                {"node": pa.array([], pa.int64()),
                 "n_desc": pa.array([], pa.int64()),
                 "subtree_sum": pa.array([], pa.int64())}))
        k = cat.column(node_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        p = cat.column(parent_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        v = cat.column(value_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.argsort(k, kind="stable")
        k, p, v = k[order], p[order], v[order]
        pi = np.searchsorted(k, p)  # parent index (forest: always found)
        sub = v.copy()
        cnt = np.ones(len(k), np.int64)
        cur = np.arange(len(k))
        moving = np.arange(len(k))
        while len(moving):
            nxt = pi[cur[moving]]
            moved = nxt != cur[moving]
            idx = moving[moved]
            np.add.at(sub, nxt[moved], v[idx])
            np.add.at(cnt, nxt[moved], np.ones(len(idx), np.int64))
            cur[idx] = nxt[moved]
            moving = idx
        return ray.data.from_arrow(pa.table(
            {"node": pa.array(k), "n_desc": pa.array(cnt),
             "subtree_sum": pa.array(sub)}))

    def init_a(t: pa.Table) -> pa.Table:
        kk = t.column(node_col).cast(pa.int64())
        vv = t.column(value_col).cast(pa.int64())
        return pa.table({"k": kk, "a": kk, "v": vv})

    def init_j(t: pa.Table) -> pa.Table:
        return pa.table({"k": t.column(node_col).cast(pa.int64()),
                         "j": t.column(parent_col).cast(pa.int64()),
                         "v": t.column(value_col).cast(pa.int64())})

    A = nodes_ds.map_batches(init_a, batch_format="pyarrow") \
                .materialize()
    J = nodes_ds.map_batches(init_j, batch_format="pyarrow") \
                .materialize()

    def tag_req(t: pa.Table) -> pa.Table:
        # requester k asks owner j for its A-set and J-pointer
        return pa.table({"gkey": t.column("j"), "k": t.column("k"),
                         "a": pa.array(np.zeros(t.num_rows, np.int64)),
                         "v": t.column("v"),
                         "tag": pa.array(np.zeros(t.num_rows, np.int8))})

    def tag_own_a(t: pa.Table) -> pa.Table:
        return pa.table({"gkey": t.column("k"), "k": t.column("k"),
                         "a": t.column("a"),
                         "v": pa.array(np.zeros(t.num_rows, np.int64)),
                         "tag": pa.array(np.ones(t.num_rows, np.int8))})

    def tag_own_j(t: pa.Table) -> pa.Table:
        return pa.table({"gkey": t.column("k"), "k": t.column("k"),
                         "a": t.column("j"),
                         "v": pa.array(np.zeros(t.num_rows, np.int64)),
                         "tag": pa.array(np.full(t.num_rows, 2, np.int8))})

    def meet(df: pd.DataFrame) -> pd.DataFrame:
        # owner-side rendezvous: requests x owner A-rows -> new pairs;
        # requests x owner J-row -> jumped pointers
        req = df[df["tag"] == 0][["gkey", "k", "v"]]
        own_a = df[df["tag"] == 1][["gkey", "a"]]
        own_j = df[df["tag"] == 2][["gkey", "a"]].rename(
            columns={"a": "j2"})
        new_a = req.merge(own_a, on="gkey")[["k", "a", "v"]]
        new_a["tag"] = np.int8(1)
        new_j = req.merge(own_j, on="gkey")[["k", "j2", "v"]].rename(
            columns={"j2": "a"})
        new_j["tag"] = np.int8(2)
        return pd.concat((new_a, new_j), ignore_index=True)

    def dedupe_a(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(subset=["k", "a"])

    prev = None
    for _ in range(max_rounds):
        tagged = J.map_batches(tag_req, batch_format="pyarrow") \
            .union(A.map_batches(tag_own_a, batch_format="pyarrow")) \
            .union(J.map_batches(tag_own_j, batch_format="pyarrow"))
        out = int_part_map(tagged, "gkey", meet,
                           num_partitions=num_partitions).materialize()

        def take_a(t: pa.Table) -> pa.Table:
            m = pa.compute.equal(t.column("tag"), 1)
            return t.filter(m).select(["k", "a", "v"])

        def take_j(t: pa.Table) -> pa.Table:
            m = pa.compute.equal(t.column("tag"), 2)
            return t.filter(m).select(["k", "a", "v"]) \
                    .rename_columns(["k", "j", "v"])

        new_a = out.map_batches(take_a, batch_format="pyarrow")
        J = out.map_batches(take_j, batch_format="pyarrow").materialize()
        A = int_part_map(A.union(new_a), "k", dedupe_a,
                         num_partitions=num_partitions).materialize()
        n = A.count()
        if prev is not None and n == prev:
            break
        prev = n
    else:
        import warnings
        warnings.warn(
            f"tree_rollup: ancestor closure did not stabilize within "
            f"max_rounds={max_rounds}; increase max_rounds for deeper "
            f"trees", RuntimeWarning)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("a", sort=True).agg(
            n_desc=("k", "size"), subtree_sum=("v", "sum"))
        g = g.reset_index().rename(columns={"a": "node"})
        g["n_desc"] = g["n_desc"].astype(np.int64)
        g["subtree_sum"] = g["subtree_sum"].astype(np.int64)
        return g

    return int_part_map(A, "a", finish, num_partitions=num_partitions)


def square_counts(edges_ds, src: str = "src", dst: str = "dst",
                  driver_limit: int = 100_000,
                  num_partitions: int = 16):
    """Global 4-cycle (square) count of the undirected simple graph —
    the motif signal one step past triangles (dense bipartite-ish
    link farms light up in squares long before triangles). Identity:
    every square has exactly two diagonals, so with codeg(u,v) = the
    number of common neighbors of an unordered pair,

        squares = (1/2) * sum over pairs of C(codeg(u, v), 2)

    — exact integers throughout (the sum is always even).

    Scale shape: wedge emit keyed by center (ONE exchange: each
    center's sorted neighbor set emits its C(deg, 2) diagonal pairs
    — the same E^1.5 wedge volume every motif counter pays, so use a
    sparsified graph), then ONE pair-keyed exchange counts codeg and
    folds C(codeg, 2) into one partial row per partition; the driver
    sums O(partitions) ints. Below ``driver_limit`` edges the same
    wedge emit + unique-count runs as flat numpy on the driver; the
    crossover sits LOWER than the other graph ops' DRIVER_CC_MAX
    because the work term is the E^1.5 wedge volume, not E — measured
    at the 256k-edge sf0.1 graph (16M wedges) the exchanges win (3.1 s
    distributed vs 3.9 s driver, both warm). Returns a 1-row Table
    (n_diag_pairs, squares)."""
    from .shuffles import int_part_map

    K = np.int64(1) << np.int64(31)

    def to_und(t: pa.Table) -> pa.Table:
        a = t.column(src).cast(pa.int64()).combine_chunks()
        b = t.column(dst).cast(pa.int64()).combine_chunks()
        return pa.table({"src": pa.concat_arrays([a, b]),
                         "dst": pa.concat_arrays([b, a])})

    edges_ds = edges_ds.materialize()
    if edges_ds.count() <= max(driver_limit, 0):
        cols = [pa.table(b) for b in
                edges_ds.select_columns([src, dst])
                        .iter_batches(batch_format="pyarrow")]
        if not cols:
            return pa.table({"n_diag_pairs": pa.array([0], pa.int64()),
                             "squares": pa.array([0], pa.int64())})
        cat = pa.concat_tables(cols)
        u = cat.column(src).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        v = cat.column(dst).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = u != v
        u, v = u[keep], v[keep]
        cu = np.concatenate((u, v))
        cv = np.concatenate((v, u))
        uv = np.unique(cu * K + cv)
        cu, cv = uv // K, uv % K
        starts = np.concatenate(
            ([0], np.flatnonzero(cu[1:] != cu[:-1]) + 1, [len(cu)]))
        pk = []
        for s, e in zip(starts[:-1], starts[1:]):
            nb = cv[s:e]
            if len(nb) < 2:
                continue
            ii, jj = np.triu_indices(len(nb), k=1)
            pk.append(nb[ii] * K + nb[jj])
        if not pk:
            return pa.table({"n_diag_pairs": pa.array([0], pa.int64()),
                             "squares": pa.array([0], pa.int64())})
        _, w = np.unique(np.concatenate(pk), return_counts=True)
        w = w[w >= 2].astype(np.int64)
        return pa.table({
            "n_diag_pairs": pa.array([int(len(w))], pa.int64()),
            "squares": pa.array(
                [int((w * (w - 1) // 2).sum()) // 2], pa.int64())})

    def wedge_emit(df: pd.DataFrame) -> pd.DataFrame:
        # per center (src): distinct sorted neighbors -> diagonal pairs
        if not len(df):
            return pd.DataFrame({"pkey": np.array([], np.int64),
                                 "gkey": np.array([], np.int64)})
        u = df["src"].to_numpy(np.int64)
        v = df["dst"].to_numpy(np.int64)
        keep = u != v
        u, v = u[keep], v[keep]
        uv = np.unique(u * K + v)
        cu, cv = uv // K, uv % K
        starts = np.concatenate(
            ([0], np.flatnonzero(cu[1:] != cu[:-1]) + 1, [len(cu)]))
        pk = []
        for s, e in zip(starts[:-1], starts[1:]):
            nb = cv[s:e]
            if len(nb) < 2:
                continue
            ii, jj = np.triu_indices(len(nb), k=1)
            pk.append(nb[ii] * K + nb[jj])
        if not pk:
            return pd.DataFrame({"pkey": np.array([], np.int64),
                                 "gkey": np.array([], np.int64)})
        pkey = np.concatenate(pk)
        from ..functions.hashing import hash64_ints
        return pd.DataFrame({"pkey": pkey,
                             "gkey": hash64_ints(pkey)
                             .view(np.int64)})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"n_pairs": np.array([], np.int64),
                                 "c2": np.array([], np.int64)})
        _, w = np.unique(df["pkey"].to_numpy(np.int64),
                         return_counts=True)
        w = w[w >= 2].astype(np.int64)
        return pd.DataFrame({
            "n_pairs": [np.int64(len(w))],
            "c2": [np.int64((w * (w - 1) // 2).sum())]})

    und = edges_ds.map_batches(to_und, batch_format="pyarrow")
    wedges = int_part_map(und, "src", wedge_emit,
                          num_partitions=num_partitions)
    parts = int_part_map(wedges, "gkey", fold,
                         num_partitions=num_partitions)
    npairs = c2 = 0
    for b in parts.iter_batches(batch_format="pyarrow"):
        tb = pa.table(b)
        npairs += int(pa.compute.sum(tb.column("n_pairs")).as_py() or 0)
        c2 += int(pa.compute.sum(tb.column("c2")).as_py() or 0)
    return pa.table({"n_diag_pairs": pa.array([npairs], pa.int64()),
                     "squares": pa.array([c2 // 2], pa.int64())})


def bipartite_check(edges_ds, src: str = "src", dst: str = "dst",
                    driver_limit: int = DRIVER_CC_MAX,
                    num_partitions: int = 8):
    """Per-component bipartiteness of an undirected graph via the
    BIPARTITE DOUBLE COVER: lift every edge {u, v} to
    {(u,0),(v,1)} and {(u,1),(v,0)} (node encoding 2v+side) — a
    connected component is bipartite iff its double cover splits into
    TWO components, i.e. iff (v,0) and (v,1) get different labels.
    This reduces 2-coloring to TWO connected_components runs — no new
    distributed machinery, and odd cycles are detected without ever
    materializing a coloring. Returns a Table
    (component, n_nodes, is_bipartite) sorted by component.

    Scale shape: two cc runs (driver union-find below driver_limit,
    min-label propagation exchanges above — see connected_components)
    plus ONE node-keyed rendezvous joining the two labelings and ONE
    component-keyed count fold."""
    from .shuffles import int_part_map

    edges_ds = edges_ds.materialize()

    cc1 = connected_components(edges_ds, src=src, dst=dst,
                               driver_limit=driver_limit,
                               num_partitions=num_partitions)

    def lift(t: pa.Table) -> pa.Table:
        u = t.column(src).cast(pa.int64()).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        v = t.column(dst).cast(pa.int64()).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "src": pa.array(np.concatenate((2 * u, 2 * u + 1))),
            "dst": pa.array(np.concatenate((2 * v + 1, 2 * v)))})

    cc2 = connected_components(
        edges_ds.map_batches(lift, batch_format="pyarrow"),
        driver_limit=driver_limit, num_partitions=num_partitions)

    def as_ds(x):
        import ray.data as rd
        return rd.from_arrow(x) if isinstance(x, pa.Table) else x

    t1 = as_ds(cc1).map_batches(
        lambda t: pa.table({"gkey": t.column("node"),
                            "payload": t.column("component"),
                            "tag": pa.array(
                                np.zeros(t.num_rows, np.int8))}),
        batch_format="pyarrow")

    def half(t: pa.Table) -> pa.Table:
        n2 = t.column("node").to_numpy(zero_copy_only=False)
        lab = t.column("component").to_numpy(zero_copy_only=False)
        side = (n2 % 2).astype(np.int8)
        return pa.table({"gkey": pa.array(n2 // 2),
                         "payload": pa.array(lab),
                         "tag": pa.array((side + 1).astype(np.int8))})

    t2 = as_ds(cc2).map_batches(half, batch_format="pyarrow")

    def meet(df: pd.DataFrame) -> pd.DataFrame:
        base = df[df["tag"] == 0][["gkey", "payload"]].rename(
            columns={"payload": "comp"})
        l0 = df[df["tag"] == 1][["gkey", "payload"]].rename(
            columns={"payload": "lab0"})
        l1 = df[df["tag"] == 2][["gkey", "payload"]].rename(
            columns={"payload": "lab1"})
        j = base.merge(l0, on="gkey").merge(l1, on="gkey")
        j["odd"] = (j["lab0"] == j["lab1"]).astype(np.int64)
        g = j.groupby("comp", sort=False).agg(
            n_nodes=("gkey", "size"), odd=("odd", "max")).reset_index()
        return g

    partials = int_part_map(t1.union(t2), "gkey", meet,
                            num_partitions=num_partitions)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("comp", sort=True).agg(
            n_nodes=("n_nodes", "sum"), odd=("odd", "max")) \
            .reset_index()
        return pd.DataFrame({
            "component": g["comp"].astype(np.int64),
            "n_nodes": g["n_nodes"].astype(np.int64),
            "is_bipartite": (1 - g["odd"]).astype(np.int64)})

    return int_part_map(partials, "comp", fold,
                        num_partitions=num_partitions)


def diameter_sweep(edges_ds, src: str = "src", dst: str = "dst",
                   driver_limit: int = DRIVER_CC_MAX,
                   num_partitions: int = 8):
    """Double-sweep diameter lower bound: BFS from the minimum node,
    hop to the farthest node found (ties -> min id), BFS again — the
    standard 2-BFS diameter estimator (exact on trees, a tight lower
    bound in practice). Pure composition of two bfs_hops runs (each
    with its own driver/distributed crossover), so the scale story is
    bfs_hops'. Expects a DIRECTED edge list (append reversed edges
    for undirected semantics, as bfs_hops documents). Returns a
    1-row Table (start_node, ecc_start, far_node, diameter_lb,
    end_node) — all exact ints."""
    edges_ds = edges_ds.materialize()

    h1 = bfs_hops(edges_ds, src=src, dst=dst,
                  driver_limit=driver_limit,
                  num_partitions=num_partitions)
    if h1.num_rows == 0:
        return pa.table({"start_node": pa.array([], pa.int64()),
                         "ecc_start": pa.array([], pa.int64()),
                         "far_node": pa.array([], pa.int64()),
                         "diameter_lb": pa.array([], pa.int64()),
                         "end_node": pa.array([], pa.int64())})
    n1 = h1.column("node").to_numpy(zero_copy_only=False)
    hp1 = h1.column("hops").to_numpy(zero_copy_only=False)
    start = int(n1[hp1 == 0][0])
    far_i = np.lexsort((n1, -hp1))[0]
    far, ecc1 = int(n1[far_i]), int(hp1[far_i])
    h2 = bfs_hops(edges_ds, source=far, src=src, dst=dst,
                  driver_limit=driver_limit,
                  num_partitions=num_partitions)
    n2 = h2.column("node").to_numpy(zero_copy_only=False)
    hp2 = h2.column("hops").to_numpy(zero_copy_only=False)
    end_i = np.lexsort((n2, -hp2))[0]
    return pa.table({
        "start_node": pa.array([start], pa.int64()),
        "ecc_start": pa.array([ecc1], pa.int64()),
        "far_node": pa.array([far], pa.int64()),
        "diameter_lb": pa.array([int(hp2[end_i])], pa.int64()),
        "end_node": pa.array([int(n2[end_i])], pa.int64())})
