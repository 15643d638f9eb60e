"""Command line: argument parsing, the check loop and the selftest.

Every run parses each file and rebuilds the whole-program call graph
(ProgramIR): the call-graph checks must see the tree as a whole, and a
full-tree run takes about two seconds.
"""

import argparse
import os
import re
import sys

from .checks import all_checks, checks_registry, CheckContext, exempt, \
    suppressed
from .checks.allowances import check_stale_allowances
from .ir import ProgramIR, build_file_ir
from .report import Finding
from .source import collect_files, load_file

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 "..", "..", ".."))
DEFAULT_PATHS = ["src", "examples", "tests", "bench"]

EXPECT_RE = re.compile(r"//\s*EXPECT-LINT:\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)")


def run_checks(root, paths):
    """Parse every file, build the whole-program IR once, run every check,
    then filter exemptions and allowances and sort into the canonical
    (file, line, col, check) order."""
    files = [load_file(root, rel) for rel in collect_files(root, paths)]
    program = ProgramIR([build_file_ir(sf) for sf in files])

    findings = []
    ctx = CheckContext(files, program, findings)
    for name, fn in checks_registry():
        if name != "stale-allowance":
            fn(ctx)

    by_path = {sf.path: sf for sf in files}
    kept = [f for f in findings
            if not exempt(f.path, f.check)
            and not suppressed(by_path[f.path], f.line, f.check)]
    # stale-allowance runs after filtering: it needs to know which
    # allowances fired.
    check_stale_allowances(files, kept)
    kept.sort(key=Finding.sort_key)
    return kept


def run_selftest():
    fixture_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "..", "selftest")
    fixture_dir = os.path.normpath(fixture_dir)
    findings = run_checks(fixture_dir, ["."])
    found = {(f.path.lstrip("./"), f.line, f.check) for f in findings}

    expected = set()
    for rel in collect_files(fixture_dir, ["."]):
        with open(os.path.join(fixture_dir, rel), encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                m = EXPECT_RE.search(line)
                if m:
                    for check in m.group(1).split(","):
                        expected.add((rel.lstrip("./"), lineno, check.strip()))

    missing = expected - found
    unexpected = found - expected
    for path, lineno, check in sorted(missing):
        print(f"SELFTEST MISS: expected [{check}] at {path}:{lineno} "
              f"— the check regressed", file=sys.stderr)
    for path, lineno, check in sorted(unexpected):
        print(f"SELFTEST FALSE POSITIVE: [{check}] at {path}:{lineno}",
              file=sys.stderr)
    failures = bool(missing or unexpected)

    # Two runs over the same tree print the same lines in the same order.
    keys = [f.sort_key() for f in findings]
    if keys != sorted(keys):
        print("SELFTEST ORDER: findings are not sorted by "
              "(file, line, col, check)", file=sys.stderr)
        failures = True
    if any(f.col < 1 or f.line < 1 for f in findings):
        print("SELFTEST ORDER: finding with non-positive line/col",
              file=sys.stderr)
        failures = True

    if failures:
        return 1
    print(f"planck-lint selftest: {len(expected)} seeded violations "
          f"detected, no false positives; findings sorted "
          f"(file, line, col, check).")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="planck-lint",
        description="determinism-and-invariant static analysis for the "
                    "Planck repo (see DESIGN.md section 7)")
    parser.add_argument("paths", nargs="*",
                        help=f"files/dirs to lint, relative to the repo "
                             f"root (default: {DEFAULT_PATHS})")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the check names in catalogue order")
    parser.add_argument("--selftest", action="store_true",
                        help="verify the tool against the seeded-violation "
                             "fixtures in tools/planck_lint/selftest/")
    args = parser.parse_args(argv)

    if args.list_checks:
        print("\n".join(all_checks()))
        return 0
    if args.selftest:
        return run_selftest()

    findings = run_checks(REPO_ROOT, args.paths or DEFAULT_PATHS)
    for f in findings:
        print(f.render())
    if findings:
        print(f"planck-lint: {len(findings)} finding(s).", file=sys.stderr)
        return 1
    print(f"planck-lint: clean ({', '.join(sorted(all_checks()))}).")
    return 0
