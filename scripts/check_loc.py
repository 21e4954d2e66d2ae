#!/usr/bin/env python3
"""The line ratchet: a rise in code lines must be named in CHANGES.md.

    scripts/check_loc.py BASE

Compares the sum of `loc.<crate>.code` in `results/lint_report.json`
(written by `specweb-lint --write`) with the same file at git revision
BASE, the merge base of the change. A fall or no change passes. A rise
passes only if the lines the change adds to CHANGES.md name every crate
whose count rose as `loc.<crate>.code`, each on a line that also gives a
reason (at least four more words), e.g.

    loc.lint.code +40: the unreached-function report needs its own walk

The check makes growth visible; it does not forbid it. Standard library
only; exits 1 on an unnamed rise, 2 on a usage error.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT = "results/lint_report.json"
MIN_REASON_WORDS = 4


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def code_lines(report):
    """{crate: code lines} of a lint report's `loc` table."""
    return {crate: counts["code"] for crate, counts in report["loc"].items()}


def added_changes_lines(base):
    """The lines the change adds to CHANGES.md, relative to `base`."""
    diff = git("diff", "--unified=0", base, "--", "CHANGES.md")
    return [
        line[1:]
        for line in diff.splitlines()
        if line.startswith("+") and not line.startswith("+++")
    ]


def names_with_reason(lines, crate):
    """Whether some line names `loc.<crate>.code` and gives a reason."""
    token = re.compile(rf"\bloc\.{re.escape(crate)}\.code\b")
    for line in lines:
        match = token.search(line)
        if match:
            rest = line[: match.start()] + " " + line[match.end() :]
            if len(re.findall(r"[A-Za-z]{2,}", rest)) >= MIN_REASON_WORDS:
                return True
    return False


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base = argv[1]
    head = code_lines(json.loads((ROOT / REPORT).read_text()))
    try:
        before = code_lines(json.loads(git("show", f"{base}:{REPORT}")))
    except subprocess.CalledProcessError:
        print(f"check_loc: no {REPORT} at {base}; nothing to compare")
        return 0

    print(f"{'crate':<12}{'base':>8}{'head':>8}{'delta':>8}")
    for crate in sorted(set(head) | set(before)):
        b, h = before.get(crate, 0), head.get(crate, 0)
        print(f"{crate:<12}{b:>8}{h:>8}{h - b:>+8}")
    total_before, total_head = sum(before.values()), sum(head.values())
    print(f"{'total':<12}{total_before:>8}{total_head:>8}{total_head - total_before:>+8}")

    if total_head <= total_before:
        print("check_loc: ok, code lines did not rise")
        return 0
    risen = [c for c in sorted(head) if head[c] > before.get(c, 0)]
    added = added_changes_lines(base)
    unnamed = [c for c in risen if not names_with_reason(added, c)]
    if unnamed:
        print(
            f"check_loc: code lines rose by {total_head - total_before}; "
            "CHANGES.md adds no line naming "
            + ", ".join(f"`loc.{c}.code`" for c in unnamed)
            + " with a reason"
        )
        return 1
    print("check_loc: ok, the rise is named in CHANGES.md")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
