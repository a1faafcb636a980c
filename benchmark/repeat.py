#!/usr/bin/env python3
"""Repeats full sets of the benchmark and judges them against the bounds in BENCHMARK.json.

    benchmark/repeat.sh N [--seed S] [--against OTHER_CHECKOUT]

A full set is one run of every workload through the command in BENCHMARK.json, exactly as
the driver runs it (`--workload W --seed S --seconds run_seconds --trace 0`).

Without --against: N sets of this checkout with the same seed. Per workload x end-to-end
metric it prints the minimum and maximum of the N values, their relative spread
(max - min) / median, and PASS when the spread is within the metric's bound. Two sets that
do not agree within the bounds mean the box is too noisy to judge a change right now.

With --against: N pairs of (this checkout, the other one), alternating which side runs
first. Per workload x metric it prints both medians, the change of this checkout against
the other in the metric's good direction, how many pairs this checkout won, and a verdict
by the rule in the choosing-metrics guide: a GAIN needs at least ten pairs, 9/10 of them won,
and a difference of medians larger than the other side's own interquartile range; a REGRESSION is
a median worse by more than the bound; anything whose run-to-run spread exceeds the bound is
UNRESOLVED, not unchanged.

Run from the root of the checkout. Exits non-zero on any FAIL or REGRESSION.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def load_contract(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_set(root, contract, seed):
    """One full set in `root`: {workload: {metric: value}}."""
    results = {}
    for workload in contract["workloads"]:
        name = workload["name"]
        command = contract["command"] + [
            "--workload", name, "--seed", str(seed),
            "--seconds", str(contract["run_seconds"]), "--trace", "0",
        ]
        done = subprocess.run(command, cwd=root, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"{root}: {name} exited with {done.returncode}\n{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"{root}: {name} reported {result['failed']} failed of {result['attempted']}")
        results[name] = {metric: entry["value"] for metric, entry in result["metrics"].items()}
        print(f"  {name}: done", file=sys.stderr, flush=True)
    return results


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("sets", type=int, help="number of full sets (or of pairs with --against)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--against", metavar="CHECKOUT", help="root of another checkout to compare with")
    args = parser.parse_args()
    if args.sets < 1:
        parser.error("N must be at least 1")

    here = os.getcwd()
    contract = load_contract(here)
    roots = [here] + ([os.path.abspath(args.against)] if args.against else [])
    sets = {root: [] for root in roots}
    for i in range(args.sets):
        order = roots if i % 2 == 0 else roots[::-1]
        for root in order:
            print(f"set {i + 1}/{args.sets} in {root}", file=sys.stderr, flush=True)
            sets[root].append(run_set(root, load_contract(root), args.seed))

    bad = False
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            mine = [s[workload][name] for s in sets[here]]
            median = statistics.median(mine)
            if not args.against:
                spread = (max(mine) - min(mine)) / median
                verdict = "PASS" if spread <= bound else "FAIL"
                bad |= verdict == "FAIL"
                print(f"{workload:13} {name:12} min {min(mine):14.4f} max {max(mine):14.4f} "
                      f"spread {spread:7.2%} bound {bound:4.0%} {verdict}")
                continue
            theirs = [s[workload][name] for s in sets[roots[1]]]
            other = statistics.median(theirs)
            # Positive = this checkout is better, in the metric's own direction.
            gain = (other - median) / other if lower else (median - other) / other
            wins = sum((a < b) if lower else (a > b) for a, b in zip(mine, theirs))
            noisy = max(iqr(mine) / median, iqr(theirs) / other) > bound
            if gain < -bound:
                verdict = "REGRESSION"
                bad = True
            elif noisy:
                verdict = "UNRESOLVED"
            elif wins >= 0.9 * len(mine) and abs(median - other) > iqr(theirs):
                # Fewer than ten pairs cannot carry a claim, whatever they show.
                verdict = "GAIN" if len(mine) >= 10 else "too-few-pairs"
            else:
                verdict = "same"
            print(f"{workload:13} {name:12} here {median:14.4f} other {other:14.4f} "
                  f"change {gain:+7.2%} wins {wins}/{len(mine)} bound {bound:4.0%} {verdict}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
