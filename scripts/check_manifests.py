#!/usr/bin/env python3
"""CI checks over the run manifests written by the `figures` binary.

Two subcommands:

  compare DIR_A DIR_B
      Assert both directories contain the same manifest_*.json set and
      that each pair's `deterministic` section is identical. The
      `nondeterministic` section (jobs, git, timing, wall-clock
      metrics) is allowed to differ — that is its whole point.

  gate DIR
      Quality gates over one run:
        * no manifest reports closure safety-valve truncation
          (`spec.closure_truncated_rows` > 0) — except `exp-closure`,
          whose valve sweep truncates by design;
        * no manifest reports shed requests (`dissem.shed_requests`
          > 0) — except `exp-shed` and `exp-hier`, where shedding is
          the subject of the experiment;
        * every experiment manifest carries deterministic metrics —
          except the four closed-form experiments that generate no
          trace (`tab1`, `fig2`, `exp-sizing`, `exp-digest`); the
          process-wide `manifest_run.json` holds wall-clock series
          only and is not checked;
        * every `profile_<id>.txt` whose root frame took a second or
          more attributes at least 90 % of it to child frames (the
          synthetic `<unattributed>` child is what is left over, not
          attribution), so a slow experiment always says where its
          time went — `profile_inputs.txt`, the shared inputs `figures`
          builds before it fans out, is a root like any other;
        * over all `profile_*.txt` together, at most 10
          `estimator.precompute` and 6 `workload.trace` calls: what a
          full `all` run makes when each shared input is built once
          (the bu trace, its baseline store and the drift trace, under
          `inputs`) and only the private ones on top — 2 replica seeds
          each for fig3 (traces) and fig5 (traces and stores), the 4
          estimator schedules of exp-upd and the 3 variants of
          exp-aging. A subset of ids makes fewer. An experiment that
          quietly rebuilds the shared world fails here; one with a
          legitimately private input raises the bound, and says why in
          this list, in the change that adds it.

The metric gates see every run, not only the wired ones: the generator,
`MatrixStore::precompute`, the simulators and the allocator publish to
the one `Obs` context `figures` installs around each experiment, so an
empty snapshot means that context did not reach the work.

Exit status is non-zero on any violation, with one line per finding.
Stdlib only; runs on any python3.
"""

import json
import sys
from pathlib import Path

TRUNCATION_METRIC = "spec.closure_truncated_rows"
TRUNCATION_EXEMPT = {"exp-closure"}
SHED_METRIC = "dissem.shed_requests"
SHED_EXEMPT = {"exp-shed", "exp-hier"}
# Closed-form experiments: no trace, no replay, nothing to record.
NO_METRICS_EXEMPT = {"tab1", "fig2", "exp-sizing", "exp-digest"}
RUN_MANIFEST = "run"
# The self-time line `Profiler::collapsed` gives every root.
UNATTRIBUTED = "<unattributed>"
# A profile root this slow must be this well attributed to its children.
PROFILE_MIN_ROOT_US = 1_000_000
PROFILE_MIN_ATTRIBUTED = 0.90
# Frame → most calls one run may make of it, over all its profiles.
BUILD_CALL_BOUNDS = {"estimator.precompute": 10, "workload.trace": 6}


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
                    f"`cargo run -p specweb-lint -- --write` for "
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
            n = counter(metrics, SHED_METRIC)
            if n > 0:
                failures.append(
                    f"{name}: {SHED_METRIC} = {n} (shedding outside "
                    f"{sorted(SHED_EXEMPT)})"
                )
        if (exp != RUN_MANIFEST and exp not in NO_METRICS_EXEMPT
                and not manifest["deterministic"]["metrics"]):
            failures.append(
                f"{name}: no deterministic metrics (only "
                f"{sorted(NO_METRICS_EXEMPT)} record nothing: the installed "
                f"obs context did not reach this experiment's work)"
            )
    build_calls = dict.fromkeys(BUILD_CALL_BOUNDS, 0)
    for path in sorted(Path(d).glob("profile_*.txt")):
        failures.extend(profile_failures(path))
        for line in path.read_text().splitlines():
            frames, rest = line.split(" calls ")
            leaf = frames.split(";")[-1]
            if leaf in build_calls:
                build_calls[leaf] += int(rest.split()[0])
    failures.extend(
        f"{frame}: {n} calls over profile_*.txt (at most "
        f"{BUILD_CALL_BOUNDS[frame]}: an experiment rebuilds an input the "
        f"run shares — declare it in bench::EXPERIMENTS and read it from "
        f"Inputs)"
        for frame, n in build_calls.items()
        if n > BUILD_CALL_BOUNDS[frame]
    )
    return failures


def profile_failures(path):
    """Roots of a collapsed-stack profile (`a;b calls N wall_us T` per
    line) that are slow and mostly unattributed to depth-1 children."""
    roots, children = {}, {}
    for line in path.read_text().splitlines():
        frames = line.split(" calls ")[0].split(";")
        wall_us = int(line.rsplit(" wall_us ", 1)[1])
        if len(frames) == 1:
            roots[frames[0]] = wall_us
        elif len(frames) == 2 and frames[1] != UNATTRIBUTED:
            children[frames[0]] = children.get(frames[0], 0) + wall_us
    return [
        f"{path.name}: root `{root}` took {wall_us / 1e6:.1f}s but its child "
        f"frames cover only {children.get(root, 0) / wall_us:.0%} of it "
        f"(need {PROFILE_MIN_ATTRIBUTED:.0%}: add obs::frame to the "
        f"unprofiled phase)"
        for root, wall_us in roots.items()
        if wall_us >= PROFILE_MIN_ROOT_US
        and children.get(root, 0) < PROFILE_MIN_ATTRIBUTED * wall_us
    ]


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
