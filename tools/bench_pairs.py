"""Alternating parent/change pairs of ``bench/run.py``, summarized per metric.

Run from anywhere, with two checkouts of the repository:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload grid_sweep --seeds 1-10 --label pr7

For every workload and seed the script runs ``python3 bench/run.py
--workload W --seed S --seconds N --trace 0`` once in each checkout, one right
after the other, and alternates which side goes first from pair to pair, so a
slow spell of a shared host hits both sides alike. Each run's last stdout line
is its JSON result. The summary gives, per workload and end-to-end metric,
each side's median and quartiles and the number of pairs the change won (by
the metric's ``better`` direction in BENCHMARK.json), and it records whether
every run was correct and whether attempted/failed agree seed for seed. Per
metric it also gives two verdicts, printed for every workload:
``claim_rule_met`` (at least ten pairs were run, the change won at least
nine tenths of them, ties counting for neither side, and its median beats the
parent's by more than the parent's q3 - q1) and ``within_bound`` (the
change's median is not worse than the parent's by more than the metric's
relative ``bound``). With fewer than ten pairs no metric meets the claim
rule, whatever the runs read. It is written to ``BENCH_<label>.json`` at the
root of the repository holding this script; the raw results of every run are
kept in it too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# fewer pairs cannot show a gain: one pair won is 1/1, and one run has no spread
MIN_CLAIM_PAIRS = 10


def parse_seeds(text: str) -> list[int]:
    """'1-5,9' -> [1, 2, 3, 4, 5, 9]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 and not lines:
        raise RuntimeError(f"bench/run.py failed in {checkout.name}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
        else (values[0],) * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarize(runs: list[dict], declared: dict) -> dict:
    """Per metric: each side's quartiles, the change's wins over the pairs,
    and the claim-rule and bound verdicts."""
    out = {}
    for metric, spec in declared.items():
        sides = {side: [r[side]["metrics"][metric]["value"] for r in runs] for side in SIDES}
        sign = 1.0 if spec["better"] == "higher" else -1.0
        # a tie is a win for neither side
        wins = sum(
            sign * (c - p) > 0.0 for p, c in zip(sides["parent"], sides["change"])
        )
        stats = {side: quartiles(values) for side, values in sides.items()}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        gain = sign * (change - parent)  # > 0 when the change's median is better
        out[metric] = {
            "better": spec["better"],
            **stats,
            "change_wins": wins,
            "pairs": len(runs),
            "median_ratio": change / parent,
            "claim_rule_met": (
                len(runs) >= MIN_CLAIM_PAIRS
                and 10 * wins >= 9 * len(runs)
                and gain > stats["parent"]["q3"] - stats["parent"]["q1"]
            ),
            "within_bound": gain >= -spec["bound"] * abs(parent),
        }
    return out


def print_verdicts(workload: str, metrics: dict) -> None:
    for metric, m in metrics.items():
        print(
            f"{workload} {metric}: parent {m['parent']['median']:.4g} "
            f"[{m['parent']['q1']:.4g}-{m['parent']['q3']:.4g}], change "
            f"{m['change']['median']:.4g} [{m['change']['q1']:.4g}-{m['change']['q3']:.4g}], "
            f"wins {m['change_wins']}/{m['pairs']}, claim_rule_met={m['claim_rule_met']}, "
            f"within_bound={m['within_bound']}",
            flush=True,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "label": args.label,
        "command": "bench/run.py --workload W --seed S --seconds N --trace 0",
        "seconds": args.seconds,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    for workload in args.workload:
        runs = []
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(checkouts[side], workload, seed, args.seconds)
            runs.append(pair)
            print(
                f"{workload} seed {seed}: "
                + ", ".join(
                    f"{side} ops_per_s={pair[side]['metrics']['ops_per_s']['value']:.4g}"
                    for side in SIDES
                ),
                flush=True,
            )
        summary = summarize(runs, metrics)
        print_verdicts(workload, summary)
        report["workloads"][workload] = {
            "metrics": summary,
            "all_correct": all(r[side]["correct"] for r in runs for side in SIDES),
            "failed_equal_seed_for_seed": all(
                (r["parent"]["attempted"], r["parent"]["failed"])
                == (r["change"]["attempted"], r["change"]["failed"])
                for r in runs
            ),
            "runs": runs,
        }
    report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
