"""The session key that decides which pooled actor handles belong to
the live cluster.

The seen-set shards are the crawl's only actors: zero-CPU actors that
hold the seen set, run the candidate reduce and the per-bucket frontier
bookkeeping. ``SeenSet`` leases them from a per-session pool, so warm
crawls start no actor process; ``session_pool`` matches a pooled handle
to the cluster that owns it.
"""

from __future__ import annotations

import ray


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
