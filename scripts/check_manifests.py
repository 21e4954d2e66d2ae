#!/usr/bin/env python3
"""CI checks over the run manifests written by the `figures` binary.

Two subcommands:

  compare DIR_A DIR_B
      Assert both directories contain the same manifest_*.json set and
      that each pair's `deterministic` section is identical. The
      `nondeterministic` section (jobs, git, timing, wall-clock
      metrics) is allowed to differ — that is its whole point.

  gate DIR
      Quality gates over one quick-suite run:
        * no manifest reports closure safety-valve truncation
          (`spec.closure_truncated_rows` > 0) — except `exp-closure`,
          whose valve sweep truncates by design;
        * no manifest reports shed requests (`dissem.shed_requests` or
          `serve.shed_total` > 0) — except `exp-shed` and `exp-hier`,
          where shedding is the subject of the experiment.

Exit status is non-zero on any violation, with one line per finding.
Stdlib only; runs on any python3.
"""

import json
import sys
from pathlib import Path

TRUNCATION_METRIC = "spec.closure_truncated_rows"
TRUNCATION_EXEMPT = {"exp-closure"}
SHED_METRICS = ("dissem.shed_requests", "serve.shed_total")
SHED_EXEMPT = {"exp-shed", "exp-hier"}


def load_manifests(d):
    manifests = {}
    for path in sorted(Path(d).glob("manifest_*.json")):
        with open(path) as f:
            manifests[path.name] = json.load(f)
    if not manifests:
        sys.exit(f"error: no manifest_*.json in {d}")
    return manifests


def counter(metrics, name):
    return metrics.get(name, {}).get("Counter", {}).get("value", 0)


def diff_paths(a, b, prefix=""):
    """Key paths at which two JSON trees differ (leaves only)."""
    if isinstance(a, dict) and isinstance(b, dict):
        paths = []
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                paths.append(f"{prefix}{key}")
            else:
                paths.extend(diff_paths(a[key], b[key], f"{prefix}{key}."))
        return paths
    return [] if a == b else [prefix.rstrip(".")]


# Known nondeterminism classes from the specweb-lint rule set (DESIGN
# §8–§9), matched against the differing key path so a manifest diff
# points straight at the rule family that typically causes it. The
# first match wins, so the specific hints precede the catch-alls. G1 (a
# nondeterminism source *reachable* from a deterministic root) covers
# every source class; the hint names the class and the evidence-chain
# command that localizes the leak.
LINT_RULE_HINTS = (
    ("seed", "G1", "an unseeded RNG shifts every derived stream"),
    ("time", "G1", "a wall-clock read leaked into the deterministic channel"),
    ("thread", "G1", "an ad-hoc thread raced the deterministic channel"),
    ("metrics", "D1/G1", "a partial_cmp float sort or hash-map iteration "
                         "order leaked into deterministic results"),
    # Overflow-shaped drift (DESIGN §14): a totals/counter field that
    # shrank or wrapped between runs points at unchecked width
    # arithmetic on a scale-tainted value, not at nondeterminism.
    ("totals", "W1", "a scale-magnitude counter merge may have wrapped — "
                     "look for unchecked `+`/`*` on tainted sums"),
    ("bytes", "W1/W2", "a byte total wrapped, or a narrowing cast "
                       "truncated it on the way into the manifest"),
    ("counters", "W1", "a scale-magnitude counter merge may have wrapped — "
                       "look for unchecked `+`/`*` on tainted sums"),
    ("hops", "W1", "hop-weighted traffic is bytes × depth — the widening "
                   "multiply must be checked or saturating"),
)


def lint_hint(path):
    for fragment, rules, why in LINT_RULE_HINTS:
        if fragment in path.lower():
            return (f" [lint rule {rules}: {why}; run "
                    f"`cargo run -p specweb-lint -- --graph --width` for "
                    f"the root-to-seed evidence chain]")
    return ""


def cmd_compare(dir_a, dir_b):
    a, b = load_manifests(dir_a), load_manifests(dir_b)
    failures = []
    if set(a) != set(b):
        failures.append(
            f"manifest sets differ: only in {dir_a}: {sorted(set(a) - set(b))}, "
            f"only in {dir_b}: {sorted(set(b) - set(a))}"
        )
    for name in sorted(set(a) & set(b)):
        for path in diff_paths(a[name]["deterministic"], b[name]["deterministic"]):
            failures.append(
                f"{name}: deterministic section differs at `{path}`{lint_hint(path)}"
            )
    return failures


def cmd_gate(d):
    failures = []
    for name, manifest in load_manifests(d).items():
        exp = manifest.get("id", name)
        # Non-fatal: dropped tracer events mean the exported event log
        # is truncated (the metrics are unaffected), so warn loudly but
        # do not fail the gate on it.
        nondet = manifest["nondeterministic"]
        for field in ("dropped_events", "dropped_wall_events"):
            n = nondet.get(field, 0)
            if n > 0:
                print(
                    f"WARN: {name}: {field} = {n} (tracer ring overflowed; "
                    f"the exported event log is incomplete)"
                )
        # Both channels: a truncation or shed count is a finding no
        # matter which channel a subsystem happens to report it on.
        metrics = dict(manifest["deterministic"]["metrics"])
        metrics.update(manifest["nondeterministic"]["metrics"])
        if exp not in TRUNCATION_EXEMPT:
            n = counter(metrics, TRUNCATION_METRIC)
            if n > 0:
                failures.append(
                    f"{name}: {TRUNCATION_METRIC} = {n} (closure safety valve "
                    f"fired outside {sorted(TRUNCATION_EXEMPT)})"
                )
        if exp not in SHED_EXEMPT:
            for metric in SHED_METRICS:
                n = counter(metrics, metric)
                if n > 0:
                    failures.append(
                        f"{name}: {metric} = {n} (shedding outside "
                        f"{sorted(SHED_EXEMPT)})"
                    )
    return failures


def main():
    if len(sys.argv) >= 3 and sys.argv[1] == "compare" and len(sys.argv) == 4:
        failures = cmd_compare(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 3 and sys.argv[1] == "gate":
        failures = cmd_gate(sys.argv[2])
    else:
        sys.exit(__doc__.strip())
    for f in failures:
        print(f"FAIL: {f}")
    if failures:
        sys.exit(1)
    print("manifests ok")


if __name__ == "__main__":
    main()
