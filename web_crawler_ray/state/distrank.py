"""Distributed rank assignment over sorted shards (sample-merge-rank).

The crawl frontier (pipelines/crawl.py) is kept as K hash(host) Arrow
buckets in the object store; the per-round global fetch order is a
merge of the K buckets' already-sorted integer order keys, and the
fresh links' discovery_seqs a merge of the seen shards' sorted
(parent_rank, link_idx) keys. Every round assigns both through
``assign_ranks``, so the keys never aggregate anywhere:

1. each shard ships the driver a small SAMPLE of its (sorted,
   globally-unique uint64) keys plus its count;
2. the driver merges the samples into R-1 splitters (R sized so each
   range holds ~``chunk_target`` keys) — O(S x SAMPLES) driver bytes;
3. one ``_split_keys`` call per shard slices its key array at the
   splitter boundaries (a searchsorted on sorted input) and returns
   the R boundary indices to the driver — O(S x R) ints;
4. the driver prefix-sums the per-range counts into global range start
   offsets and makes one ``_rank_range`` call per range, which merges
   its S slices (argsort; keys unique so ordering is total), assigns
   ``start + position`` and hands each shard back its rank slice;
5. each shard's global ranks are the concatenation of its R rank
   slices in range order (ranges are contiguous runs of the shard's
   sorted key order, so no reordering is needed).

With R = 1 (a round under ``DEFAULT_CHUNK`` keys) steps 3-4 are one
``_rank_range`` call over the S whole key arrays.

Both kernels are plain functions run on caller-supplied actors through
their ``run(fn, *args)`` method; the crawl passes its leased seen
shards. Split s runs on runner s, the shard that produced key ref s, so
the keys do not move before the range merge. Driver traffic is
O(S x R) ints + object refs; key bytes move at most once (shard ->
range call), the exchange shape of a sample-sort. Equivalence with a
global argsort is pinned by tests/test_distrank.py (random shards) and
the multi-range crawl parity tests (bit-for-bit visited/seen equality).
"""
from __future__ import annotations

import numpy as np
import ray

# target keys per range call; R = ceil(total / chunk_target), capped
DEFAULT_CHUNK = 4_000_000
MAX_RANGES = 64
# keys per shard sample, from which the driver draws its splitters
SAMPLES = 128


def sample_keys(keys: np.ndarray) -> np.ndarray:
    """The shard-side sample shipped to the driver: every
    ceil(n / SAMPLES)-th key, so at most SAMPLES keys."""
    return keys[:: max(1, -(-len(keys) // SAMPLES))]


def _split_keys(keys, splitters: np.ndarray):
    """Slice one shard's sorted key array at the splitter boundaries.
    num_returns = len(splitters) + 2 at the call site:
    (bounds, slice_0, ..., slice_{R-1})."""
    R = len(splitters) + 1
    if keys is None or len(keys) == 0:
        empty = np.zeros(0, np.uint64)
        return (np.zeros(R + 1, np.int64),) + (empty,) * R
    bounds = np.concatenate((
        [0], np.searchsorted(keys, splitters, side="left"), [len(keys)]
    )).astype(np.int64)
    return (bounds,) + tuple(keys[bounds[i]:bounds[i + 1]] for i in range(R))


def _rank_range(start: int, *slices):
    """Merge S sorted slices (globally-unique keys) and assign global
    ranks ``start..start+n``; returns each shard's rank slice aligned
    with its input order.  num_returns = len(slices) at the call site."""
    arrs = [np.asarray(s) if s is not None else np.zeros(0, np.uint64)
            for s in slices]
    lens = [len(a) for a in arrs]
    n = sum(lens)
    cat = np.concatenate(arrs) if n else np.zeros(0, np.uint64)
    order = np.argsort(cat, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(start, start + n, dtype=np.int64)
    bounds = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
    out = tuple(ranks[bounds[i]:bounds[i + 1]] for i in range(len(arrs)))
    return out if len(arrs) > 1 else out[0]


def assign_ranks(runners: list, key_refs: list, samples: list, total: int, *,
                 base: int = 0, chunk_target: int | None = None) -> list[list]:
    """Driver-side orchestration: per-shard refs to sorted unique uint64
    key arrays (+ their driver-held samples and the total count) ->
    per-shard LISTS of rank-array refs whose concatenation (in list
    order) is each shard's global rank (``base`` + merged position),
    aligned with the shard's key order. The kernels run on
    ``runners[i % len(runners)].run``: split i beside key ref i, range
    r on runner r. Keys never reach the driver."""
    S = len(key_refs)
    chunk = chunk_target or DEFAULT_CHUNK
    R = min(MAX_RANGES, max(1, -(-total // chunk)))
    allsamp = [s for s in samples if s is not None and len(s)]
    allsamp = np.sort(np.concatenate(allsamp)) if allsamp \
        else np.zeros(0, np.uint64)
    if R > 1 and len(allsamp):
        pos = (len(allsamp) * np.arange(1, R)) // R
        splitters = np.unique(allsamp[pos])
        R = len(splitters) + 1
    else:
        R = 1

    def call(i: int, fn, n_out: int, *args):
        return runners[i % len(runners)].run.options(
            num_returns=n_out).remote(fn, *args)

    if R == 1:
        refs = call(0, _rank_range, S, base, *key_refs)
        return [[refs[s]] for s in range(S)] if S > 1 else [[refs]]

    splits = [call(s, _split_keys, R + 1, k, splitters)
              for s, k in enumerate(key_refs)]
    bounds = ray.get([sp[0] for sp in splits])          # S x (R+1) ints
    per_range = np.stack([b[1:] - b[:-1] for b in bounds])  # (S, R)
    range_totals = per_range.sum(axis=0)
    starts = base + np.concatenate(([0], np.cumsum(range_totals)[:-1]))
    range_refs = []
    for r in range(R):
        ref = call(r, _rank_range, S, int(starts[r]),
                   *[splits[s][1 + r] for s in range(S)])
        range_refs.append([ref[s] for s in range(S)] if S > 1 else [ref])
    return [[range_refs[r][s] for r in range(R)] for s in range(S)]
