"""Distributed rank assignment over sorted shards (sample-merge-rank).

The crawl frontier (pipelines/crawl.py) is kept as K hash(host) Arrow
buckets in the object store; the per-round global
fetch order is a merge of the K buckets' already-sorted integer order
keys.  Below ``crawl(rank_gather_limit=...)`` rows the driver simply
gathers the int keys and argsorts (O(round) ints of driver traffic —
fine to ~10^6-10^7 rows/round); above it, this module assigns the same
ranks WITHOUT the keys ever aggregating anywhere:

1. each shard task ships the driver a small SAMPLE of its (sorted,
   globally-unique uint64) keys plus its count;
2. the driver merges the samples into R-1 splitters (R sized so each
   range holds ~``chunk_target`` keys) — O(S x 129) driver bytes;
3. one ``_split_keys`` task per shard slices its key array at the
   splitter boundaries (a searchsorted on sorted input — no data
   copied off the worker) and returns the R boundary indices to the
   driver — O(S x R) ints;
4. the driver prefix-sums the per-range counts into global range start
   offsets and launches one ``_rank_range`` task per range, which
   merges its S slices (argsort; keys unique so ordering is total),
   assigns ``start + position`` and hands each shard back its rank
   slice;
5. each shard's global ranks are the concatenation of its R rank
   slices in range order (ranges are contiguous runs of the shard's
   sorted key order, so no reordering is needed).

Driver traffic is O(S x R) ints + object refs; key bytes move at most
once (shard -> range task), giving the same exchange shape as a
sample-sort — this is the 100 TB path for rank/discovery_seq
assignment at 10^8+ rows/round.  Equivalence with the driver argsort
is pinned by tests/test_distrank.py (random shards) and the forced-
distributed crawl parity test (bit-for-bit visited/seen equality).
"""
from __future__ import annotations

import numpy as np
import ray

# target keys per range task; R = ceil(total / chunk_target), capped
DEFAULT_CHUNK = 4_000_000
MAX_RANGES = 64
# shard tasks sample every n/SAMPLES-th key for the driver's splitters
SAMPLES = 128


def sample_keys(keys: np.ndarray) -> np.ndarray:
    """The shard-side sample shipped to the driver (<= SAMPLES+1 keys)."""
    n = len(keys)
    if n == 0:
        return keys
    return keys[:: max(1, n // SAMPLES)]


@ray.remote(num_cpus=0)
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


@ray.remote(num_cpus=0)
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


def assign_ranks(key_refs: list, samples: list, total: int, *, base: int = 0,
                 chunk_target: int | None = None) -> list[list]:
    """Driver-side orchestration: per-shard refs to sorted unique uint64
    key arrays (+ their driver-held samples and the total count) ->
    per-shard LISTS of rank-array refs whose concatenation (in list
    order) is each shard's global rank (``base`` + merged position),
    aligned with the shard's key order.  Keys never reach the driver."""
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
        splitters = np.zeros(0, np.uint64)
        R = 1

    if R == 1:
        if S > 1:
            refs = _rank_range.options(num_returns=S).remote(base, *key_refs)
            return [[refs[s]] for s in range(S)]
        return [[_rank_range.remote(base, *key_refs)]]

    splits = [_split_keys.options(num_returns=R + 1).remote(k, splitters)
              for k in key_refs]
    bounds = ray.get([sp[0] for sp in splits])          # S x (R+1) ints
    per_range = np.stack([b[1:] - b[:-1] for b in bounds])  # (S, R)
    range_totals = per_range.sum(axis=0)
    starts = base + np.concatenate(([0], np.cumsum(range_totals)[:-1]))
    range_refs = []
    for r in range(R):
        ref = _rank_range.options(num_returns=S if S > 1 else 1) \
            .remote(int(starts[r]), *[splits[s][1 + r] for s in range(S)])
        range_refs.append([ref[s] for s in range(S)] if S > 1 else [ref])
    return [[range_refs[r][s] for r in range(R)] for s in range(S)]
