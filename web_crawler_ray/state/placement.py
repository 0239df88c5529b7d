"""Multi-node actor placement for the crawl's stateful pool, and the
session key that decides which pooled handles belong to the live cluster.

The seen-set shards are the crawl's only actors: zero-CPU actors that
hold the seen set, run the candidate reduce and the per-bucket frontier
bookkeeping. On a single node their placement is irrelevant; on a
256-node cluster the default (locality-packed) policy can land every
shard on the head node, turning the per-round reduce and mark fan-outs
into one node's RPC queue. ``spread_opts()`` adds
``scheduling_strategy="SPREAD"`` (Ray's round-robin-across-nodes
policy) so the shards land on distinct nodes and the per-round fan-out
actually fans out.

Flag-guarded (``GRAFT_SPREAD_ACTORS``, default ON): SPREAD is a no-op
on one node, but the flag keeps an escape hatch for deployments that
pin state actors near the driver deliberately (e.g. to keep the
seen-gate RPCs off a congested network).
"""

from __future__ import annotations

import os

import ray


def spread_enabled() -> bool:
    return os.environ.get("GRAFT_SPREAD_ACTORS", "1").lower() \
        not in ("0", "false", "no")


def spread_opts(**base) -> dict:
    """Actor options with SPREAD scheduling when enabled.

    Usage: ``Cls.options(**spread_opts(num_cpus=0)).remote(...)``.
    """
    if spread_enabled():
        base["scheduling_strategy"] = "SPREAD"
    return base


def session_pool(pools: dict, *key, factory):
    """The entry of ``pools`` for the live Ray session and ``key``,
    made by ``factory()`` on a miss. Entries are keyed by node id AND
    job id: job ids restart at the same value in every fresh local
    cluster, so job id alone would hand out dead actor handles after an
    init/shutdown cycle in one process (bench runs several); the node id
    is unique per cluster instance. Entries of other sessions are pruned
    on a miss. The ONE place that decides when a pooled handle belongs
    to the live cluster (the seen-shard pool)."""
    ctx = ray.get_runtime_context()
    session = (ctx.get_node_id(), ctx.get_job_id())
    full = (*session, *key)
    entry = pools.get(full)
    if entry is None:
        for old in [o for o in pools if o[:2] != session]:
            del pools[old]
        entry = pools[full] = factory()
    return entry
