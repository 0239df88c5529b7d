"""Raw-task hash shuffle for keyed map_groups on small-row datasets.

``Dataset.groupby(key).map_groups(fn)`` routes through the sort-based
all-to-all: boundary sampling, a sort-map and a sort-reduce barrier, and
O(blocks x partitions) intermediate objects — measured ~4.4 s of wall
for ~1 s of task time on a 27k-row locations table (96 blocks, 32 cpus).
When the partition key is known and the grouped rows are small, a plain
two-stage raw-task hash shuffle does the same exchange with two task
waves and no sampling/barrier machinery (the same idiom as the crawl's
candidate explode/reduce, pipelines/crawl.py).

Semantics vs ``groupby().map_groups``: identical iff ``fn`` is
insensitive to row order WITHIN its group (arrival order differs from
the sort-based path). Every ``fn`` routed here must either impose its
own total order (fuzzy dedup sorts by (discovery_seq, within_page_idx))
or be order-free; output ROWS are deterministic: groups key-sorted
within each partition, partitions emitted largest-first (a
deterministic function of the data — see below).

Scale shape: one map task per CPU fans its input blocks into P hash
parts (zero-copy Arrow slices); one reduce task per NON-EMPTY part
concats + runs fn per key-group. P defaults to the CPU count too, so
each stage is one scheduling wave: the exchange's fixed cost is per
task and per object, not per row (a fixed 96 parts x 32 map tasks,
sized at 32 cpus, spent 0.79 s splitting 1,617 rows on 2 cpus, then
ran 96 mostly empty reduces). The only driver round-trip is the
per-part row counts, used to skip empty parts and to submit reduces
largest-first so the straggler partition — e.g. the biggest host's
all-pairs dedup — starts first.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..functions.hashing import hash64_ints, hash64_many


@ray.remote
def _split(key: str, P: int, mix: bool, prepare, part: int, n_parts: int,
           *tbls: pa.Table):
    """Split this task's input into P parts by ``key``: hash64(key) % P
    with ``mix``, else ``key % P`` directly (SMALL-INT keys such as
    bucket ids — no hashing). Returns P tables + one int64 row-count
    vector (the last return). ``part`` / ``n_parts`` slice the input
    INSIDE the task (zero extra data movement) so prepare-heavy splits
    parallelize past the input block count. ``prepare`` (optional) is
    applied to the table first — the key/annotation columns are computed
    here, inside the task wave, instead of in a separate upstream
    map_batches job."""
    live = [t for t in tbls if t.num_rows]
    tbl = pa.concat_tables(live) if len(live) > 1 else (
        live[0] if live else tbls[0])
    if n_parts > 1:
        step = -(-tbl.num_rows // n_parts)
        tbl = tbl.slice(part * step, step)
    if prepare is not None:
        tbl = prepare(tbl)
    if tbl.num_rows == 0:
        empty = tbl.schema.empty_table()
        return tuple(empty for _ in range(P)) + (np.zeros(P, np.int64),)
    kcol = tbl.column(key)
    if not mix:
        h = kcol.to_numpy().astype(np.int64) % P
    elif pa.types.is_integer(kcol.type):  # vectorized mix for int keys
        kv = kcol.combine_chunks().to_numpy(zero_copy_only=False)
        h = (hash64_ints(kv) % np.uint64(P)).astype(np.int64)
    else:
        h = (hash64_many(kcol.to_pylist()) % np.uint64(P)).astype(np.int64)
    parts = tuple(tbl.filter(pa.array(h == p)) for p in range(P))
    return parts + (np.array([p.num_rows for p in parts], np.int64),)


def _cluster_cpus() -> int:
    """The cluster's CPU count: one scheduling wave of tasks."""
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def cpu_groups(refs: list, rows=None) -> list[list]:
    """Split ``refs`` into at most one contiguous group per CPU, each
    holding about the same number of refs, or of rows when the per-ref
    ``rows`` are given: ref i joins group floor(start_i * m / total),
    where start_i counts the refs (rows) before it."""
    m = _cluster_cpus()
    w = np.ones(len(refs)) if rows is None else np.asarray(rows, np.float64)
    start = np.cumsum(w) - w
    g = (start * m // max(w.sum(), 1)).astype(np.int64)
    cut = np.flatnonzero(np.diff(g)) + 1
    return [refs[a:b] for a, b in zip([0, *cut], [*cut, len(refs)])
            if a < b]


def arrow_refs(ds: rd.Dataset) -> list:
    """``ds``'s Arrow block refs from ONE execution of its plan.
    ``Dataset.to_arrow_refs()`` on a lazy Dataset runs the plan and then
    runs it again for ``schema()`` (Ray 2.49 caches no snapshot there),
    so every lazy upstream UDF would run twice; ``materialize()`` keeps
    the executed blocks and their schema. Free on a Dataset that is
    already materialized, such as ``CrawlResult.pages``."""
    return ds.materialize().to_arrow_refs()


@ray.remote
def concat_blocks(*tbls: pa.Table) -> pa.Table:
    """One block from several (a plain task: no Ray Data job)."""
    return pa.concat_tables(tbls)


def _exchange(refs: list, key: str, P: int, mix: bool, prepare):
    """The map wave over ``refs``: one split task per CPU. Returns the
    per-task part refs and the partitions to reduce — the non-empty ones
    largest-first, or one (empty) partition so the schema survives."""
    m = _cluster_cpus()
    if len(refs) >= m:
        tasks = [(grp, 0, 1) for grp in cpu_groups(refs)]
    else:  # fewer blocks than slots: slice blocks inside the tasks
        per = -(-m // len(refs))
        tasks = [([r], p, per) for r in refs for p in range(per)]
    outs = [_split.options(num_returns=P + 1).remote(
                key, P, mix, prepare, part, n_parts, *grp)
            for grp, part, n_parts in tasks]
    per_part = np.sum(ray.get([o[P] for o in outs]), axis=0)
    order = np.argsort(-per_part, kind="stable")
    live = [p for p in order if per_part[p] > 0] or [order[0]]
    return [o[:P] for o in outs], live


@ray.remote
def _reduce_table_fn(fn, *parts: pa.Table) -> pa.Table:
    """Reduce for int_part_map: ``fn`` is applied ONCE to the whole
    partition (a pandas frame) — for kernels that are already
    vectorized across the groups inside their partition. fn also runs
    on an empty partition so the output schema is always fn's."""
    live = [p for p in parts if p.num_rows]
    tbl = (pa.concat_tables(live).combine_chunks() if live else parts[0])
    out = fn(tbl.to_pandas())
    return pa.Table.from_pandas(out, preserve_index=False) \
        .replace_schema_metadata(None)


def int_part_map(ds: rd.Dataset, key: str, fn,
                 num_partitions: int = 64,
                 prepare=None) -> rd.Dataset:
    """Partition ``ds`` by the small-int ``key`` column (% num_partitions)
    via the raw-task shuffle and apply ``fn`` (pandas frame -> pandas
    frame) ONCE per partition. For per-group kernels that vectorize
    internally over many groups (candidate triu-emit, batched pair
    verify) this replaces the Dataset sort-shuffle's ~2 s fixed cost per
    call with two flat task waves. Same eager-execution caveat as
    hash_map_groups (module docstring)."""
    refs = arrow_refs(ds)
    if not refs:
        return ds
    splits, live = _exchange(refs, key, num_partitions, False, prepare)
    return rd.from_arrow_refs([_reduce_table_fn.remote(
        fn, *[s[p] for s in splits]) for p in live])


@ray.remote
def _reduce_apply(fn, key: str, finish, *parts: pa.Table) -> pa.Table:
    live = [p for p in parts if p.num_rows]
    if not live:
        out = parts[0].schema.empty_table()
    else:
        df = pa.concat_tables(live).combine_chunks().to_pandas()
        outs = [fn(g) for _, g in df.groupby(key, sort=True)]
        out = pd.concat(outs, ignore_index=True) if outs else df.iloc[0:0]
        # drop the pandas schema metadata: blocks with it defeat Ray Data's
        # schema dedup (unhashable-dict log storm + per-block schema churn)
        out = pa.Table.from_pandas(out, preserve_index=False) \
            .replace_schema_metadata(None)
    return finish(out) if finish is not None else out


def hash_map_groups(ds: rd.Dataset, key: str, fn,
                    num_partitions: int | None = None,
                    prepare=None, finish=None) -> rd.Dataset:
    """Group ``ds`` by ``key`` via raw-task hash shuffle and apply ``fn``
    (a pandas group -> pandas frame callable, the map_groups contract)
    to each group. ``prepare`` / ``finish`` (pa.Table -> pa.Table) run
    inside the split tasks before hashing / inside each reduce task on
    its output, instead of separate up- and downstream map jobs.
    ``num_partitions`` defaults to the cluster's CPU count. See module
    docstring for the exact-semantics condition.

    EXECUTION TIMING: calling this EAGERLY executes the upstream
    pipeline ONCE (``arrow_refs`` materializes ``ds``), submits the split
    wave and waits on its part counts; ``prepare`` runs in that wave, so
    per-row work moved into it (flagship.extract_locations moves the
    whole extract chain there) costs no separate Ray Data job. The
    returned Dataset holds the REDUCE outputs and is materialized: its
    metadata read waits for the reduces. Callers that need streaming
    overlap with upstream stages should use the native
    ``groupby().map_groups`` sort path instead; this shuffle trades that
    laziness for two flat task waves with no sort barrier."""
    refs = arrow_refs(ds)
    if not refs:
        return ds
    splits, live = _exchange(refs, key, num_partitions or _cluster_cpus(),
                             True, prepare)
    return rd.from_arrow_refs([_reduce_apply.remote(
        fn, key, finish, *[s[p] for s in splits]) for p in live])
