"""Multi-node actor placement for the crawl's stateful pools.

The seen-set shards and frontier keeper actors are zero-CPU actors
created with default placement. On a
single node that is irrelevant; on a 256-node cluster the default
(locality-packed) policy can land every shard on the head node, turning
the per-round seen-gate and mark fan-outs into one node's RPC queue.
``spread_opts()`` adds ``scheduling_strategy="SPREAD"`` (Ray's
round-robin-across-nodes policy) to the pools so shards/keepers land on
distinct nodes and the per-round fan-out actually fans out.

Flag-guarded (``GRAFT_SPREAD_ACTORS``, default ON): SPREAD is a no-op
on one node, but the flag keeps an escape hatch for deployments that
pin state actors near the driver deliberately (e.g. to keep the
seen-gate RPCs off a congested network).
"""

from __future__ import annotations

import os


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
