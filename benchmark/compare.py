#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or show the spread of one.

    benchmark/compare.py [--same-outcomes] A [B]

A and B are labels under benchmark/out (or directories). Each holds one
`<workload>.json` per workload, a list of the runs `run.sh --label` made.

For every workload x end-to-end metric it prints both medians with
their quartiles, the ratio B/A with its base, the bound from
BENCHMARK.json and a verdict:

    ok          B's median is not worse than A's by more than the bound
    regressed   it is
    unresolved  the quartile spread of A or B is wider than the bound, and
                not every run of B reads better than every run of A

The outcome digest and every `ratio` metric are simulated or counted, not
timed. Runs of one label and one seed must agree on them, and so must A
and B where both were made from the same clean commit. Where the commits
differ, or a tree was dirty, it prints per workload and seed whether the
outcomes changed; `--same-outcomes` (for a change that claims to alter
speed alone) makes a change an error. Exits 1 on any regression or any
such mismatch. With one label it prints the spreads alone. Standard
library only.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(label):
    """{workload: [untraced run records]} of a label or directory."""
    directory = Path(label)
    if not directory.is_dir():
        directory = ROOT / "benchmark" / "out" / label
    if not directory.is_dir():
        sys.exit(f"compare.py: no directory {label} and no {directory}")
    runs = {}
    for path in sorted(directory.glob("*.json")):
        records = [r for r in json.loads(path.read_text()) if not r["trace"]]
        if records:
            runs[path.stem] = records
    return runs


def quartiles(values):
    """(q1, median, q3) as the driver computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def values_of(records, metric):
    return [r["metrics"][metric]["value"] for r in records]


def outcomes(name, runs):
    """{(workload, seed): (tree, digest, ratios)} of a label, and what is
    wrong with it: failed operations, runs of one seed that differ."""
    errors = []
    seen = {}
    for workload, records in runs.items():
        for r in records:
            if not r["correct"]:
                errors.append(f"{name} {workload} seed {r['seed']}: {r['failed']} failed operations")
            ratios = {m: v["value"] for m, v in r["metrics"].items() if v["unit"] == "ratio"}
            tree = (r["git"], r["dirty"])
            first = seen.setdefault((workload, r["seed"]), (tree, r["digest"], ratios))
            if first[1:] != (r["digest"], ratios):
                errors.append(
                    f"{name} {workload} seed {r['seed']}: runs at {first[0]} and {tree} differ: "
                    f"{first[1]} {first[2]}, then {r['digest']} {ratios}"
                )
    return seen, errors


def outcome_changes(a_name, seen_a, b_name, seen_b, same_outcomes):
    """Compares the counted outcomes of A and B seed by seed; returns the
    differences that are errors and prints the others."""
    errors = []
    for key in sorted(seen_a.keys() & seen_b.keys()):
        (tree_a, *out_a), (tree_b, *out_b) = seen_a[key], seen_b[key]
        same_tree = tree_a == tree_b and tree_a[1] == "false"
        where = f"{key[0]} seed {key[1]}"
        if out_a == out_b:
            if not same_tree:
                print(f"{where:36} outcomes unchanged ({out_a[0]})")
        elif same_tree or same_outcomes:
            errors.append(f"{where}: {a_name} at {tree_a} has {out_a}, {b_name} at {tree_b} has {out_b}")
        else:
            print(f"{where:36} outcomes CHANGED ({out_a[0]} -> {out_b[0]})")
    return errors


def describe(values, unit):
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] {unit} n={len(values)} spread {spread(values):.1%}"


def main(argv):
    same_outcomes = "--same-outcomes" in argv
    labels = [arg for arg in argv[1:] if arg != "--same-outcomes"]
    if len(labels) not in (1, 2):
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_name = labels[0]
    a = load(a_name)
    seen, errors = outcomes(a_name, a)
    b = None
    if len(labels) == 2:
        b = load(labels[1])
        seen_b, more = outcomes(labels[1], b)
        errors += more

    regressed = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in a:
            continue
        for metric in spec["end_to_end"]:
            name, unit, bound = metric["name"], metric["unit"], metric["bound"]
            va = values_of(a[workload], name)
            line = f"{workload:15} {name:20} A {describe(va, unit)}"
            if b is None or workload not in b:
                verdict = "ok" if spread(va) <= bound else "unresolved"
                print(f"{line}  bound {bound:.0%}  {verdict}")
                continue
            vb = values_of(b[workload], name)
            med_a, med_b = statistics.median(va), statistics.median(vb)
            lower = metric["better"] == "lower"
            worse_by = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
            all_better = max(vb) < min(va) if lower else min(vb) > max(va)
            if max(spread(va), spread(vb)) > bound and not all_better:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "ok"
            print(
                f"{line}\n{'':36} B {describe(vb, unit)}\n"
                f"{'':36} B/A {med_b / med_a:.4f} (base A {med_a:.6g} {unit})  "
                f"bound {bound:.0%}  {verdict}"
            )
    if b is not None:
        errors += outcome_changes(a_name, seen, labels[1], seen_b, same_outcomes)
    for e in errors:
        print(f"MISMATCH {e}")
    return 1 if regressed or errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
