"""Run-artifact CLI: ``python -m repro.obs summarize|diff``.

``summarize FILE``
    Print a one-screen summary of a JSONL run artifact (latency budgets,
    histogram quantiles, hot keys).

``diff BASELINE CURRENT [--threshold 0.10]``
    Compare two artifacts of the same scenario; exit 1 if any latency
    budget, histogram quantile, or throughput counter regressed past the
    threshold.  CI uses this as its observability regression gate.

``diff BASELINE CURRENT --outcomes-only``
    Exact-equality check of outcome counters only (commits, aborts,
    remote applies, durable records); timing metrics are ignored: the
    check for changes that may move schedules, never results (the batch
    size equivalence tests run it as ``diff_outcomes``).
"""

from __future__ import annotations

import argparse
import sys

from .artifact import (
    diff_artifacts,
    diff_outcomes,
    format_diff,
    load_artifact,
    summarize_artifact,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="summarize one run artifact")
    p_sum.add_argument("artifact", help="JSONL run artifact")

    p_diff = sub.add_parser("diff", help="diff two run artifacts")
    p_diff.add_argument("baseline", help="baseline JSONL artifact")
    p_diff.add_argument("current", help="current JSONL artifact")
    p_diff.add_argument(
        "--threshold", type=float, default=0.10,
        help="relative regression threshold (default 0.10 = 10%%)",
    )
    p_diff.add_argument(
        "--outcomes-only", action="store_true",
        help="compare outcome counters exactly and ignore timing; any "
        "difference in commits/aborts/applies/records is a failure",
    )

    args = parser.parse_args(argv)
    if args.command == "summarize":
        print(summarize_artifact(load_artifact(args.artifact)))
        return 0
    if args.outcomes_only:
        mismatches, notes = diff_outcomes(
            load_artifact(args.baseline), load_artifact(args.current)
        )
        print(format_diff(mismatches, notes))
        return 1 if mismatches else 0
    regressions, notes = diff_artifacts(
        load_artifact(args.baseline),
        load_artifact(args.current),
        threshold=args.threshold,
    )
    print(format_diff(regressions, notes))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
