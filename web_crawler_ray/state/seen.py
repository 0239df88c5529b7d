"""Sharded URL-seen set: one sorted-uint64 exact tier per shard, with a
bloom spill tier. The shards are also the crawl's only actors.

The reference's seen set is a single in-process JS ``Set`` of canonical
URLs (site-crawler.service.js:134-136).  The north star requires a
sharded seen set keyed by canonicalized-URL hash (bloom fallback for
spill shards), materializable per checkpoint as a sorted uint64 column
for bit-for-bit comparison.

Design (scale story):
- shard = ``url_hash % n_shards``; shards are Ray actors, so at cluster
  scale each node holds a slice of the 10^10-key set.
- Each shard keeps its exact keys as ONE sorted, unique ``np.uint64``
  array at 8 B/key: membership is one vectorized ``searchsorted``
  probe, insertion one ``np.insert`` of the sorted fresh keys, and the
  array itself is the ``snapshot()`` the parity gate compares.
- Past ``spill_threshold`` keys a shard moves its array into a bloom
  filter (the spill tier). Spilled keys stay members (the bloom has no
  false negatives, so nothing is re-crawled) but are no longer
  enumerable; a bloom false positive SKIPS a new URL, at the bloom's fp
  rate (SCALE.md).

Membership + insert are one message per shard per round, not per URL.
In a crawl that message is ``reduce_candidates``: links are partitioned
by the same ``url_hash % n_shards``, so the shard that owns a url's key
dedups, probes and gates it in process. The crawl's per-bucket frontier
bookkeeping runs on the same actors through ``run(fn, *args)``.

Lifecycle: a ``SeenSet`` LEASES its shard actors from a per-session pool
and ``release()`` hands them back cleared, so a session starts the
shard processes once, not once per crawl. An idle pooled shard holds no
keys. A set that is never released (a crawl that raised, a caller that
killed its shards) is never reused: its handles are dropped and its
actors die with them.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..functions.urltools import path_of
from . import distrank
from .robots_cache import RobotsGate, local_check

_MIX = np.uint64(0x5BD1E995)


class BloomFilter:
    """Plain bit-array bloom (k derived double-hashes) — the spill tier for
    shards whose exact set exceeds its memory budget. No false negatives."""

    def __init__(self, n_bits_log2: int = 24, k: int = 4):
        self.mask = np.uint64((1 << n_bits_log2) - 1)
        self.bits = np.zeros(1 << (n_bits_log2 - 3), dtype=np.uint8)
        self.k = k

    def _positions(self, h: np.ndarray) -> np.ndarray:
        h = np.asarray(h, dtype=np.uint64)
        h1 = h & self.mask
        h2 = ((h >> np.uint64(32)) * _MIX) & self.mask
        pos = np.empty((self.k, len(h)), dtype=np.uint64)
        for i in range(self.k):
            pos[i] = (h1 + np.uint64(i) * h2) & self.mask
        return pos

    def insert_many(self, h: np.ndarray) -> None:
        pos = self._positions(h).ravel()
        np.bitwise_or.at(self.bits, (pos >> np.uint64(3)).astype(np.int64),
                         (1 << (pos & np.uint64(7))).astype(np.uint8))

    def contains_many(self, h: np.ndarray) -> np.ndarray:
        pos = self._positions(h)
        hit = np.ones(pos.shape[1], dtype=bool)
        for i in range(self.k):
            byte = self.bits[(pos[i] >> np.uint64(3)).astype(np.int64)]
            hit &= (byte & (1 << (pos[i] & np.uint64(7))).astype(np.uint8)) != 0
        return hit


class _SeenShardImpl:
    """One shard of the URL-seen set (plain class; wrapped by ray.remote)."""

    def __init__(self, spill_threshold: int | None = None):
        self.reset(spill_threshold)

    def reset(self, spill_threshold: int | None = None) -> None:
        """Empty both tiers and set the exact-tier budget (a pooled shard
        is reset when it is leased and when it is released)."""
        self.keys = np.zeros(0, dtype=np.uint64)  # exact tier: sorted, unique
        self.spill_threshold = spill_threshold
        self.bloom: BloomFilter | None = None  # spill tier, engaged on demand
        self.spilled_count = 0

    def _maybe_spill(self) -> None:
        """When the exact tier exceeds its budget, move it into the bloom
        spill tier: membership stays false-negative-free; false positives
        (bounded by the bloom fp rate) can only SKIP a URL — never
        re-crawl one. Exactness (and snapshot parity) is degraded for the
        spilled keys, which is the documented large-scale trade
        (SCALE.md); tests pin the spill path's no-false-negative property."""
        if self.spill_threshold is not None and len(self.keys) > self.spill_threshold:
            if self.bloom is None:
                self.bloom = BloomFilter()
            self.bloom.insert_many(self.keys)
            self.spilled_count += len(self.keys)
            self.keys = np.zeros(0, dtype=np.uint64)

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        """Membership probe across BOTH tiers (exact + bloom spill) — the
        module's no-false-negative contract holds for spilled keys too."""
        h = np.asarray(hashes, dtype=np.uint64)
        k = self.keys
        if len(k):
            ix = np.searchsorted(k, h)
            out = k[np.minimum(ix, len(k) - 1)] == h
        else:
            out = np.zeros(len(h), dtype=bool)
        if self.bloom is not None:
            miss = np.flatnonzero(~out)
            out[miss] = self.bloom.contains_many(h[miss])
        return out

    def check_and_add(self, hashes: np.ndarray) -> np.ndarray:
        """Bool mask: True where the hash was NEW (and is now inserted).
        A key repeated within the batch is NEW at every position and
        stored once."""
        h = np.asarray(hashes, dtype=np.uint64)
        new = ~self.contains(h)
        fresh = np.unique(h[new])
        if len(fresh):
            self.keys = np.insert(self.keys, np.searchsorted(self.keys, fresh),
                                  fresh)
            self._maybe_spill()
        return new

    def reduce_candidates(self, robots: RobotsGate, max_depth: int,
                          want_hashes: bool, *pieces: pa.Table):
        """Reduce side of the crawl's candidate shuffle for the urls this
        shard owns: in-round first-seen dedup (order: parent fetch rank,
        link position) -> check_and_add -> depth + robots gate (gated-out
        rows keep their discovery_seq via the __gated mask, matching the
        oracle's numbering). NOT idempotent: check_and_add inserts as it
        tests, so a repeated call returns no fresh rows; the actor is
        therefore never restarted nor retried, and a dead shard fails the
        crawl loudly instead of silently dropping urls.
        Returns (fresh table incl. __gated, info, keys): ``keys`` are the
        fresh rows' order keys, one sorted uint64 per row
        ((parent_rank << 24) | link_idx, unique per link), which
        state/distrank.py merges into discovery_seqs; info holds the row
        count, a sample of the keys, the gated rows' per-host counts and,
        when checkpointing, the fresh url hashes."""
        parts = [p for p in pieces if p.num_rows]
        if not parts:
            return None, None, None
        t = pa.concat_tables(parts).combine_chunks()
        t = t.sort_by([("parent_rank", "ascending"), ("link_idx", "ascending")])
        urls = pd.Series(np.asarray(t.column("url")))
        t = t.filter(pa.array(~urls.duplicated().to_numpy()))
        fresh = self.check_and_add(t.column("url_hash").to_numpy())
        t = t.filter(pa.array(fresh))
        if t.num_rows == 0:
            return None, None, None
        gated = t.column("depth").to_numpy() <= max_depth
        if gated.any():
            paths = [path_of(u) for u in t.column("url").to_pylist()]
            allowed = np.asarray(local_check(
                robots.ref, t.column("host").to_pylist(), paths))
            gated = gated & allowed
        t = t.append_column("__gated", pa.array(gated, pa.bool_()))
        gh, gc = np.unique(np.asarray(t.filter(pa.array(gated)).column("host")),
                           return_counts=True)
        rank = t.column("parent_rank").to_numpy()
        idx = t.column("link_idx").to_numpy()
        # unique per link occurrence; rank < 2^39 (bounded by this
        # round's fetch count), idx < 2^24 (links per page). Explicit
        # raise so the check survives `python -O` (ADVICE r3).
        if int(idx.max()) >= (1 << 24) or int(rank.max()) >= (1 << 39):
            raise ValueError(
                "fresh order key overflows uint64 encoding "
                f"(max link_idx={int(idx.max())}, "
                f"max parent_rank={int(rank.max())})")
        keys = (rank.astype(np.uint64) << np.uint64(24)) | idx.astype(np.uint64)
        info = {
            "n": t.num_rows, "sample": distrank.sample_keys(keys),
            "host_counts": {str(h): int(c) for h, c in zip(gh, gc)},
            "hashes": t.column("url_hash").to_numpy() if want_hashes else None,
        }
        return t, info, keys

    def run(self, fn, *args):
        """Run a crawl bookkeeping kernel (stateless) in this warm process."""
        return fn(*args)

    def snapshot(self) -> np.ndarray:
        """Sorted uint64 hashes — the bit-for-bit checkpoint artifact."""
        return self.keys

    def cardinality(self) -> int:
        """Total keys inserted (exact tier + keys spilled to the bloom tier),
        so crawl metrics don't undercount after a spill."""
        return len(self.keys) + self.spilled_count

    def memory_stats(self) -> dict:
        """Per-shard memory accounting (scale-run instrumentation):
        exact-tier and spilled key counts, and the byte sizes of the
        exact array and the bloom bits. ``cuckoo_bytes`` is always 0; the
        key stays for readers that still sum it."""
        return {
            "exact_keys": len(self.keys),
            "spilled_keys": self.spilled_count,
            "exact_bytes": int(self.keys.nbytes),
            "bloom_bytes": int(self.bloom.bits.nbytes) if self.bloom else 0,
            "cuckoo_bytes": 0,
        }


SeenShard = ray.remote(_SeenShardImpl)


def scatter_check_and_add(shards: list, h: np.ndarray) -> np.ndarray:
    """Route hashes to their shard (hash mod n) and gather the NEW mask,
    preserving input order — one RPC per shard per call. Used by the
    driver-side SeenSet (seeds, resume) and by ContentDedupStage. The
    crawl's candidate reduce routes by the same ``hash % n`` when it
    partitions links, then probes its own shard in process."""
    h = np.asarray(h, dtype=np.uint64)
    out = np.zeros(len(h), dtype=bool)
    if len(h) == 0:
        return out
    n = len(shards)
    sid = (h % np.uint64(n)).astype(np.int64)
    futs, idxs = [], []
    for s in range(n):
        ix = np.flatnonzero(sid == s)
        if len(ix):
            futs.append(shards[s].check_and_add.remote(h[ix]))
            idxs.append(ix)
    for ix, mask in zip(idxs, ray.get(futs)):
        out[ix] = mask
    return out


_SHARD_POOLS: dict = {}  # (node id, job id, n_shards) -> free shard lists


class SeenSet:
    """Driver-side handle over ``n_shards`` shard actors, leased from the
    session's pool: construction pops a free shard list (or starts new
    actors when none is free) and resets it to this set's
    ``spill_threshold``; ``release()`` clears the shards and pushes them
    back. Two live sets never share a shard, and a set that is not
    released is never reused.

    ``spill_threshold`` bounds each shard's exact-set RAM: past it the
    exact tier spills to the bloom tier (no false negatives; snapshot
    exactness degrades for spilled keys — the documented 10^10-key
    trade, SCALE.md)."""

    def __init__(self, n_shards: int = 8, spill_threshold: int | None = None):
        from .placement import session_pool, spread_opts
        self.n_shards = n_shards
        self._free = session_pool(_SHARD_POOLS, n_shards, factory=list)
        try:
            self.shards = self._free.pop()  # atomic: no two sets share one
        except IndexError:
            # 0 CPU: a fractional reservation per shard left a 1-CPU node
            # without the 1 CPU a fetch task needs (the crawl never started)
            self.shards = [SeenShard.options(**spread_opts(num_cpus=0)).remote()
                           for _ in range(n_shards)]
        ray.get([s.reset.remote(spill_threshold) for s in self.shards])

    def release(self) -> None:
        """Clear every shard (exact array, bloom, spilled count) and hand
        the shards back to the session pool. The set holds no shard
        afterwards."""
        shards, self.shards = self.shards, []
        ray.get([s.reset.remote() for s in shards])
        self._free.append(shards)

    def check_and_add(self, hashes: np.ndarray) -> np.ndarray:
        """Vector check-and-insert across shards; preserves input order.

        One RPC per shard per call (not per URL): the caller batches a
        whole frontier round.
        """
        return scatter_check_and_add(self.shards, hashes)

    def memory_stats(self) -> list[dict]:
        """Per-shard memory accounting (see _SeenShardImpl.memory_stats);
        one list entry per shard, gathered in one wave."""
        return ray.get([s.memory_stats.remote() for s in self.shards])

    def bulk_add(self, hashes: np.ndarray) -> None:
        """Seed the shards from a checkpoint snapshot (resume path)."""
        self.check_and_add(np.asarray(hashes, dtype=np.uint64))

    def snapshot(self) -> np.ndarray:
        """Sorted uint64 hashes of the EXACT tier. After a bloom spill
        (``spill_threshold`` exceeded) this is PARTIAL: spilled keys are
        membership-queryable but not enumerable — cardinality() still
        counts them, and resume stays exact because checkpoints rebuild
        from per-round deltas, not from this snapshot. A warning is
        logged so snapshot consumers (parity comparisons) can't miss it."""
        parts = ray.get([s.snapshot.remote() for s in self.shards])
        spilled = self.cardinality() - int(sum(len(p) for p in parts))
        if spilled > 0:
            import logging
            logging.getLogger(__name__).warning(
                "SeenSet.snapshot(): %d spilled keys are NOT in the "
                "snapshot (bloom tier is non-enumerable); use per-round "
                "checkpoint deltas for exact comparisons", spilled)
        return np.sort(np.concatenate(parts)) if parts else np.zeros(0, np.uint64)

    def cardinality(self) -> int:
        return int(sum(ray.get([s.cardinality.remote() for s in self.shards])))
