"""Subprocess entry point of cluster workers.

The coordinator (:mod:`repro.parallel.cluster`) starts a worker as
``python -m repro.parallel.worker`` and writes one spec-file path per
line to its stdin; the worker runs each spec in turn until EOF.  A spec
file is one pickled dict: the part (a name to resolve through the
registry, or a pickled :class:`CampaignPart` whose callables are
module-level functions), the config, the shard spec, the output path,
the per-worker ``jobs`` count, its kernel ``threads``, and an optional
:class:`~repro.parallel.cluster.ClusterFault`.

Once a spec's shard is done the worker acks it by writing the spec path
as one line to stdout; its log is stderr.  The ack only wakes the
coordinator, which still reads what was done from the shard file, and
EOF on stdout tells the coordinator the worker died.

A worker is deliberately nothing more than :func:`run_shard` plus the
fault-injection layer: all coordination (liveness, retry, merge) lives
on the coordinator side, reading the shard's append-only JSONL file.
The fault layer wraps ``JsonlLog.append`` for one spec, counting its
records from zero, so a test or CI leg can make a worker SIGKILL itself
mid-shard, leave a torn half-record behind, or stall without exiting —
the failure modes the coordinator's watchdog must survive.  The kernel
thread budget, too, holds for one spec.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import time


def _faulted(original, fault):
    """``original`` (``JsonlLog.append``) wrapped with the fault plan."""
    count = 0

    def faulted_append(self, record) -> None:
        nonlocal count
        original(self, record)
        count += 1
        if (
            fault.stall_after_records is not None
            and count >= fault.stall_after_records
        ):  # pragma: no cover - subprocess only
            while True:
                time.sleep(3600)
        if (
            fault.die_after_records is not None
            and count >= fault.die_after_records
        ):  # pragma: no cover - subprocess only
            if fault.tear:
                # A kill mid-write: half a record, no newline.  The
                # coordinator's tail must never consume it and the
                # re-issued worker must truncate it away.
                os.write(self._fd, b'{"ordinal": 0, "x": 0, "resu')
            os.kill(os.getpid(), signal.SIGKILL)

    return faulted_append


def load_spec(path: str) -> dict:
    """Read a worker spec file."""
    with open(path, "rb") as handle:
        return pickle.load(handle)


def run_spec(path: str) -> int:
    """Execute one worker spec: ``run_shard`` under its own fault plan."""
    from repro.parallel.checkpoint import JsonlLog
    from repro.parallel.shard import ShardSpec, run_shard
    from repro.sim.ckernel import set_thread_budget, thread_budget

    payload = load_spec(path)
    original, budget = JsonlLog.append, thread_budget()
    if payload.get("fault") is not None:
        JsonlLog.append = _faulted(original, payload["fault"])
    set_thread_budget(payload["threads"])
    try:
        run_shard(
            payload["part"],
            payload["config"],
            ShardSpec.parse(payload["shard"]),
            payload["out"],
            jobs=payload.get("jobs", 1),
        )
    finally:
        JsonlLog.append = original
        set_thread_budget(budget)
    return 0


def main(argv=None) -> int:
    """Run every spec path read from stdin (one per line) until EOF,
    acking each on stdout once its shard is done."""
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        print("usage: python -m repro.parallel.worker < PATHS", file=sys.stderr)
        return 2
    for line in sys.stdin:
        path = line.strip()
        run_spec(path)
        print(path, flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
