"""Sharded, streaming parallel experiment engine.

Fans per-graph experiment work across a process pool with
deterministic per-task seeding: ``jobs=1`` and ``jobs=N`` produce
byte-identical CSVs (see :mod:`repro.parallel.engine` for per-item
dispatch and the ordering guarantee, and
:func:`repro.experiments.fig6.graph_tasks` for the seed derivation).

:mod:`repro.parallel.campaign` streams completed graphs into bounded
accumulators (:mod:`repro.parallel.aggregate`) with per-graph
checkpoint/resume; :mod:`repro.parallel.shard` partitions a campaign's
scenario space across machines and merges shard outputs back to bytes
identical to a serial run.  Checkpoints and shard outputs are one
append-only JSONL record format (:mod:`repro.parallel.checkpoint`).

:mod:`repro.parallel.cluster` closes the loop with a fault-tolerant
coordinator: it launches shard workers (:mod:`repro.parallel.worker`
subprocesses), watches each shard file for liveness, re-issues dead
shards with backoff, and folds records incrementally so the final CSV
stays byte-identical to ``--jobs 1`` across worker deaths.
"""

from repro.parallel.aggregate import (
    CampaignAccumulator,
    CompletedPoint,
    P2Quantile,
    StreamingStats,
)
from repro.parallel.campaign import (
    CampaignPart,
    CampaignTiming,
    PointTiming,
    get_part,
    register_part,
    run_campaign,
)
from repro.parallel.checkpoint import (
    JsonlLog,
    JsonlTail,
    config_fingerprint,
)
from repro.parallel.cluster import (
    ClusterError,
    ClusterFault,
    ClusterReport,
    ClusterShardReport,
    ClusterStatus,
    IncrementalMerger,
    run_cluster,
    write_worker_spec,
)
from repro.parallel.engine import (
    MapStats,
    PoolRunner,
    resolve_jobs,
)
from repro.parallel.shard import (
    ShardRunReport,
    ShardSpec,
    merge_shards,
    run_shard,
)

__all__ = [
    "CampaignAccumulator",
    "CampaignPart",
    "CampaignTiming",
    "ClusterError",
    "ClusterFault",
    "ClusterReport",
    "ClusterShardReport",
    "ClusterStatus",
    "CompletedPoint",
    "IncrementalMerger",
    "JsonlLog",
    "JsonlTail",
    "MapStats",
    "P2Quantile",
    "PointTiming",
    "PoolRunner",
    "ShardRunReport",
    "ShardSpec",
    "StreamingStats",
    "config_fingerprint",
    "get_part",
    "merge_shards",
    "register_part",
    "resolve_jobs",
    "run_campaign",
    "run_cluster",
    "run_shard",
    "write_worker_spec",
]
