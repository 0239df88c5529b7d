"""Sharded URL-seen set: cuckoo-filter fast path + exact backing set.

The reference's seen set is a single in-process JS ``Set`` of canonical
URLs (site-crawler.service.js:134-136).  The north star requires a
sharded cuckoo-filter seen set (bloom fallback for spill shards) keyed
by canonicalized-URL hash, materializable per checkpoint as a sorted
uint64 column for bit-for-bit comparison.

Design (scale story):
- shard = ``url_hash % n_shards``; shards are Ray actors, so at cluster
  scale each node holds a slice of the 10^10-key set. 16-bit
  fingerprints × 4-slot buckets ≈ 2.3 bytes/key in the filter.
- The cuckoo filter has NO false negatives (an evicted-to-overflow
  fingerprint goes to the bloom sidecar, which also has no false
  negatives), so "filter says absent" ⇒ definitely new — the common
  case costs one vectorized numpy probe, no set lookup.
- "filter says present" (real hit or ~0.05% false positive) falls back
  to the exact per-shard hash set, which is also what ``snapshot()``
  materializes for the parity gate. At 10^10 keys the exact layer is
  the spill tier: ~8 GB/shard × 10 shards/node in this layout — the
  docstring contract is that spilled shards answer only via
  bloom+cuckoo (approximate, still no false negatives on the bloom
  side, so correctness degrades only by re-crawling nothing — false
  POSITIVES skip URLs, bounded by the fp rate stated above).

Membership + insert are one message per shard per round
(``check_and_add`` over a deduped hash batch), not per URL.
"""

from __future__ import annotations

import numpy as np
import ray

from ..functions.hashing import fingerprint16

_MIX = np.uint64(0x5BD1E995)


class CuckooFilter:
    """Vectorized-probe cuckoo filter: 4-slot buckets, 16-bit fingerprints."""

    def __init__(self, n_buckets_log2: int = 16, max_kicks: int = 500, seed: int = 7):
        self.nb = 1 << n_buckets_log2
        self.mask = np.uint64(self.nb - 1)
        self.table = np.zeros((self.nb, 4), dtype=np.uint16)
        self.max_kicks = max_kicks
        self.rng = np.random.default_rng(seed)
        self.overflow: set[int] = set()  # bloom-tier stand-in for kicked-out fps
        self._overflow_arr: np.ndarray | None = None  # sorted probe cache
        self.count = 0
        self.capacity = self.nb * 4
        self._warned = False

    def _index(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        fp = fingerprint16(h)
        i1 = (h & self.mask).astype(np.int64)
        alt = (fp.astype(np.uint64) * _MIX) & self.mask
        i2 = (i1 ^ alt.astype(np.int64)) & int(self.mask)
        return fp, i1, i2

    def contains_many(self, h: np.ndarray) -> np.ndarray:
        fp, i1, i2 = self._index(h)
        b1 = self.table[i1]            # (n,4) gathers
        b2 = self.table[i2]
        hit = (b1 == fp[:, None]).any(axis=1) | (b2 == fp[:, None]).any(axis=1)
        if self.overflow:
            # vectorized probe against the sorted overflow cache (the
            # per-key Python set loop was O(misses) interpreter work on
            # every round once a filter saturated)
            if self._overflow_arr is None \
                    or len(self._overflow_arr) != len(self.overflow):
                self._overflow_arr = np.fromiter(
                    self.overflow, dtype=np.uint16, count=len(self.overflow))
                self._overflow_arr.sort()
            miss = np.flatnonzero(~hit)
            if len(miss):
                ov = self._overflow_arr
                ix = np.searchsorted(ov, fp[miss])
                inov = (ix < len(ov)) & \
                    (ov[np.minimum(ix, len(ov) - 1)] == fp[miss])
                hit[miss[inov]] = True
        return hit

    def insert_many(self, h: np.ndarray) -> None:
        fp, i1, i2 = self._index(h)
        n = len(h)
        # saturation guard: past ~95% load the kick loop almost always
        # runs its full max_kicks budget per key (measured: one 320k-key
        # shard on a 2^14 filter burned >300 s) — route straight to the
        # overflow tier instead. Membership stays false-negative-free;
        # an undersized filter degrades to exact/bloom-tier lookups.
        room = max(int(self.capacity * 0.95) - self.count, 0)
        if room < n and not self._warned:
            self._warned = True
            import logging
            logging.getLogger(__name__).warning(
                "cuckoo filter saturated (%d/%d slots): fingerprints now "
                "spill to the overflow tier; size n_buckets_log2 for "
                "expected keys/shard (SCALE.md)", self.count, self.capacity)
        for k in range(min(room, n)):
            self._insert_one(int(fp[k]), int(i1[k]), int(i2[k]))
        if room < n:
            self.overflow.update(int(x) for x in fp[room:])
            self._overflow_arr = None
        self.count += n

    def _insert_one(self, fp: int, i1: int, i2: int) -> None:
        for idx in (i1, i2):
            row = self.table[idx]
            empty = np.flatnonzero(row == 0)
            if len(empty):
                row[empty[0]] = fp
                return
        # kick loop
        idx = i1 if self.rng.integers(2) else i2
        for _ in range(self.max_kicks):
            slot = int(self.rng.integers(4))
            fp, self.table[idx, slot] = int(self.table[idx, slot]), fp
            idx = (idx ^ int((np.uint64(fp) * _MIX) & self.mask)) & (self.nb - 1)
            row = self.table[idx]
            empty = np.flatnonzero(row == 0)
            if len(empty):
                row[empty[0]] = fp
                return
        self.overflow.add(fp)  # spill tier (bloom stand-in, exact on fp)
        self._overflow_arr = None


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

    def __init__(self, shard_id: int, n_buckets_log2: int = 16,
                 spill_threshold: int | None = None):
        self.shard_id = shard_id
        self.filter = CuckooFilter(n_buckets_log2, seed=1000 + shard_id)
        self.exact: set[int] = set()
        self.spill_threshold = spill_threshold
        self.bloom: BloomFilter | None = None  # spill tier, engaged on demand
        self.spilled_count = 0

    def _maybe_spill(self) -> None:
        """When the exact set exceeds its budget, move it into the bloom
        spill tier: membership stays false-negative-free; false positives
        (bounded by bloom/cuckoo fp rates) can only SKIP a URL — never
        re-crawl one. Exactness (and snapshot parity) is degraded for the
        spilled keys, which is the documented large-scale trade
        (SCALE.md); tests pin the spill path's no-false-negative property."""
        if self.spill_threshold is not None and len(self.exact) > self.spill_threshold:
            if self.bloom is None:
                self.bloom = BloomFilter()
            arr = np.fromiter(self.exact, dtype=np.uint64, count=len(self.exact))
            self.bloom.insert_many(arr)
            self.spilled_count += len(self.exact)
            self.exact.clear()

    def check_and_add(self, hashes: np.ndarray) -> np.ndarray:
        """Bool mask: True where the hash was NEW (and is now inserted).

        Input must be deduplicated by the caller within the batch.
        """
        h = np.asarray(hashes, dtype=np.uint64)
        if len(h) == 0:
            return np.zeros(0, dtype=bool)
        maybe = self.filter.contains_many(h)
        new = np.ones(len(h), dtype=bool)
        ex = self.exact
        idx = np.flatnonzero(maybe)
        if len(idx):
            in_exact = np.fromiter((int(h[i]) in ex for i in idx),
                                   dtype=bool, count=len(idx))
            new[idx[in_exact]] = False
            if self.bloom is not None:
                rest = idx[~in_exact]
                if len(rest):  # one vectorized probe over the candidates
                    # spilled (or bloom fp — skips, never re-crawls)
                    new[rest[self.bloom.contains_many(h[rest])]] = False
        fresh = h[new]
        ex.update(int(x) for x in fresh)
        if len(fresh):
            self.filter.insert_many(fresh)
        self._maybe_spill()
        return new

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        """Membership probe across BOTH tiers (exact + bloom spill) — the
        module's no-false-negative contract holds for spilled keys too."""
        h = np.asarray(hashes, dtype=np.uint64)
        maybe = self.filter.contains_many(h)
        out = np.zeros(len(h), dtype=bool)
        idx = np.flatnonzero(maybe)
        if len(idx):
            in_exact = np.fromiter((int(h[i]) in self.exact for i in idx),
                                   dtype=bool, count=len(idx))
            out[idx[in_exact]] = True
            if self.bloom is not None:
                rest = idx[~in_exact]
                if len(rest):
                    out[rest[self.bloom.contains_many(h[rest])]] = True
        return out

    def snapshot(self) -> np.ndarray:
        """Sorted uint64 hashes — the bit-for-bit checkpoint artifact."""
        return np.sort(np.fromiter(self.exact, dtype=np.uint64, count=len(self.exact)))

    def cardinality(self) -> int:
        """Total keys inserted (exact tier + keys spilled to the bloom tier),
        so crawl metrics don't undercount after a spill."""
        return len(self.exact) + self.spilled_count

    def memory_stats(self) -> dict:
        """Per-shard memory accounting (scale-run instrumentation):
        exact-tier key count, spilled key count, and the byte sizes of
        the cuckoo table, bloom bits, and the exact set (sys.getsizeof
        of the set + 28 B/int object, the CPython layout)."""
        import sys
        exact_bytes = sys.getsizeof(self.exact) + 28 * len(self.exact)
        return {
            "exact_keys": len(self.exact),
            "spilled_keys": self.spilled_count,
            "cuckoo_bytes": int(self.filter.table.nbytes),
            "cuckoo_load": round(self.filter.count / self.filter.capacity, 3),
            "cuckoo_overflow": len(self.filter.overflow),
            "bloom_bytes": int(self.bloom.bits.nbytes) if self.bloom else 0,
            "exact_bytes": int(exact_bytes),
        }


SeenShard = ray.remote(_SeenShardImpl)


def scatter_check_and_add(shards: list, h: np.ndarray) -> np.ndarray:
    """Route hashes to their shard (hash mod n) and gather the NEW mask,
    preserving input order — one RPC per shard per call. The ONE routing
    implementation: used by the driver-side SeenSet and by the
    dataset-mode seen-gate stage (crawl parity depends on both using
    identical routing)."""
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


class SeenSet:
    """Driver-side handle over the shard actor pool.

    ``spill_threshold`` bounds each shard's exact-set RAM: past it the
    exact tier spills to the bloom tier (no false negatives; snapshot
    exactness degrades for spilled keys — the documented 10^10-key
    trade, SCALE.md)."""

    def __init__(self, n_shards: int = 8, n_buckets_log2: int = 14,
                 spill_threshold: int | None = None):
        from .placement import spread_opts
        self.n_shards = n_shards
        # 0 CPU: a fractional reservation per shard left a 1-CPU node
        # without the 1 CPU a fetch task needs (the crawl never started)
        self.shards = [
            SeenShard.options(**spread_opts(num_cpus=0)).remote(
                i, n_buckets_log2, spill_threshold)
            for i in range(n_shards)
        ]

    def check_and_add(self, hashes: np.ndarray) -> np.ndarray:
        """Vector check-and-insert across shards; preserves input order.

        One RPC per shard per call (not per URL): the caller batches a
        whole frontier round.
        """
        return scatter_check_and_add(self.shards, hashes)

    def memory_stats(self) -> list[dict]:
        """Per-shard memory accounting (see _SeenShardImpl.memory_stats);
        one list entry per shard, gathered in one wave."""
        import ray
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
