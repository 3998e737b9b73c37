"""Perf ratchet: fail CI when a headline inference metric regresses > 20%.

``benchmarks/baselines/BENCH_inference.json`` is a committed snapshot of the
metrics a healthy run produces.  After the benchmark suite writes a fresh
``benchmarks/output/BENCH_inference.json``, this script diffs the two and
exits nonzero when a ratcheted metric moved more than the tolerance in the
bad direction:

* ``megakernel_speedup`` (higher is better) must stay >= 80% of baseline.
* ``resnet18_fullwidth_run_s`` (lower is better) must stay <= 120% of
  baseline.
* ``resnet18_fullwidth_setup_s`` (lower is better; compile, plan and deploy
  of full-width ResNet-18) must stay <= 120% of baseline.

Improvements never fail the ratchet; to *claim* one, refresh the committed
baseline in the same change.  Usage::

    python benchmarks/perf_ratchet.py \
        --baseline benchmarks/baselines/BENCH_inference.json \
        --current benchmarks/output/BENCH_inference.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple

#: Allowed relative regression before the ratchet fails.
TOLERANCE = 0.20


class Ratchet(NamedTuple):
    """One gated metric: its name and which direction is an improvement."""

    metric: str
    better: str  # "higher" | "lower"


#: The headline metrics of the wave-native inference path and its set-up.
RATCHETS = (
    Ratchet("megakernel_speedup", "higher"),
    Ratchet("resnet18_fullwidth_run_s", "lower"),
    Ratchet("resnet18_fullwidth_setup_s", "lower"),
)


def check_ratchets(
    baseline: Dict[str, float],
    current: Dict[str, float],
    ratchets=RATCHETS,
    tolerance: float = TOLERANCE,
) -> List[str]:
    """Return one failure message per regressed or missing metric."""
    failures: List[str] = []
    for ratchet in ratchets:
        if ratchet.metric not in baseline:
            failures.append(f"{ratchet.metric}: missing from baseline report")
            continue
        if ratchet.metric not in current:
            failures.append(f"{ratchet.metric}: missing from current report")
            continue
        base = float(baseline[ratchet.metric])
        new = float(current[ratchet.metric])
        if ratchet.better == "higher":
            floor = base * (1.0 - tolerance)
            if new < floor:
                failures.append(
                    f"{ratchet.metric}: {new:.4g} fell below {floor:.4g} "
                    f"(baseline {base:.4g} - {tolerance:.0%})"
                )
        else:
            ceiling = base * (1.0 + tolerance)
            if new > ceiling:
                failures.append(
                    f"{ratchet.metric}: {new:.4g} exceeded {ceiling:.4g} "
                    f"(baseline {base:.4g} + {tolerance:.0%})"
                )
    return failures


def _load_metrics(path: Path) -> Dict[str, float]:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    metrics = document.get("metrics")
    if not isinstance(metrics, dict):
        raise SystemExit(f"{path}: no 'metrics' object in benchmark report")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("benchmarks/baselines/BENCH_inference.json"),
        help="committed baseline report",
    )
    parser.add_argument(
        "--current",
        type=Path,
        default=Path("benchmarks/output/BENCH_inference.json"),
        help="freshly produced report",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=TOLERANCE,
        help="allowed relative regression (default: %(default)s)",
    )
    arguments = parser.parse_args(argv)

    baseline = _load_metrics(arguments.baseline)
    current = _load_metrics(arguments.current)
    for ratchet in RATCHETS:
        base = baseline.get(ratchet.metric, float("nan"))
        new = current.get(ratchet.metric, float("nan"))
        print(
            f"{ratchet.metric}: baseline={base:.4g} current={new:.4g} "
            f"({ratchet.better} is better)"
        )
    failures = check_ratchets(baseline, current, tolerance=arguments.tolerance)
    if failures:
        for failure in failures:
            print(f"PERF RATCHET FAILED: {failure}", file=sys.stderr)
        return 1
    print("perf ratchet: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
