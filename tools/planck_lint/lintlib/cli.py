"""Driver: argument parsing, the check loop, selftest, and JSON export.

The per-file parse (SourceFile + FileIR) comes from the content-hash cache
(lintlib/cache.py); the whole-program call graph (ProgramIR) is rebuilt
from the cached per-file facts each run — it is cheap once parsing is
amortized, and it must see the tree as a whole.

`--changed-only BASE` still parses the full default tree (the call-graph
checks need every caller/callee, and the warm cache makes that cheap) but
reports only findings in files that differ from BASE — the pre-push loop.
"""

import argparse
import os
import re
import subprocess
import sys
import time

from .cache import IRCache
from .checks import all_checks, checks_registry, CheckContext, exempt, \
    suppressed
from .checks.allowances import check_stale_allowances
from .ir import ProgramIR
from .report import Finding, write_findings_json
from .source import SOURCE_EXTS, collect_files

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 "..", "..", ".."))
DEFAULT_PATHS = ["src", "examples", "tests", "bench"]

EXPECT_RE = re.compile(r"//\s*EXPECT-LINT:\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)")


def run_checks(root, paths, checks, cache, scanned_out=None):
    """Load + parse (through the cache), build the whole-program IR once,
    run every enabled check, then filter exemptions and allowances and
    sort into the canonical (file, line, col, check) order."""
    files, irs = [], {}
    for rel in collect_files(root, paths):
        sf, ir = cache.load(root, rel)
        files.append(sf)
        irs[sf.path] = ir
    if scanned_out is not None:
        scanned_out.extend(files)

    program = ProgramIR(list(irs.values()))

    findings = []
    ctx = CheckContext(files, program, findings)
    for name, fn in checks_registry():
        if name == "stale-allowance" or name not in checks:
            continue
        fn(ctx)

    by_path = {sf.path: sf for sf in files}
    kept = [f for f in findings
            if not exempt(f.path, f.check)
            and not suppressed(by_path[f.path], f.line, f.check)]
    # stale-allowance runs after filtering (it needs to know which
    # allowances fired) and only with the full check set: a --checks
    # subset would make allowances for the disabled checks look dead.
    if "stale-allowance" in checks and checks >= set(all_checks()):
        stale = []
        check_stale_allowances(files, stale)
        kept.extend(f for f in stale if not exempt(f.path, f.check))
    kept.sort(key=Finding.sort_key)
    return kept


def run_selftest(repo_root):
    fixture_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "..", "selftest")
    fixture_dir = os.path.normpath(fixture_dir)
    # Fixture parses are cached under the real repo root (content-hashed,
    # so the entries are path-independent and shared with tree runs).
    cache = IRCache(repo_root)
    findings = run_checks(fixture_dir, ["."], set(all_checks()), cache)
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

    # The canonical order is part of the findings-v1 contract: assert it.
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


def changed_files(root, base):
    """Repo-relative source files that differ from `base` (committed,
    staged, unstaged, or untracked)."""
    out = set()
    cmds = [
        ["git", "-C", root, "diff", "--name-only", base, "--"],
        ["git", "-C", root, "ls-files", "--others", "--exclude-standard"],
    ]
    for cmd in cmds:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  check=True)
        except (OSError, subprocess.CalledProcessError) as err:
            detail = getattr(err, "stderr", "") or str(err)
            raise SystemExit(f"planck-lint: --changed-only: {' '.join(cmd)} "
                             f"failed: {detail.strip()}")
        out.update(line.strip() for line in proc.stdout.splitlines()
                   if line.strip())
    return {p for p in out if os.path.splitext(p)[1] in SOURCE_EXTS}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="planck-lint",
        description="determinism-and-invariant static analysis for the "
                    "Planck repo (see DESIGN.md section 7)",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", default=None,
                        help=f"files/dirs to lint (default: {DEFAULT_PATHS})")
    parser.add_argument("--repo-root", default=REPO_ROOT)
    parser.add_argument("--checks", default=None,
                        help="comma-separated subset of checks to run")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write findings as planck-lint-findings-v1"
                             " JSON (written even when clean; CI uploads it"
                             " so counts are tracked PR-over-PR)")
    parser.add_argument("--changed-only", metavar="BASE", default=None,
                        help="report findings only in files that differ "
                             "from the given git base ref (the full tree "
                             "is still parsed for call-graph fidelity)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the .lint-cache content-hash IR cache")
    parser.add_argument("--stats", action="store_true",
                        help="print parse/cache timing to stderr")
    parser.add_argument("--list-checks", action="store_true")
    parser.add_argument("--selftest", action="store_true",
                        help="verify the tool against the seeded-violation "
                             "fixtures in tools/planck_lint/selftest/")
    args = parser.parse_args(argv)

    if args.list_checks:
        for check in all_checks():
            print(check)
        return 0
    if args.selftest:
        return run_selftest(args.repo_root)

    if args.checks is None:
        checks = set(all_checks())
    else:
        checks = {c.strip() for c in args.checks.split(",") if c.strip()}
    unknown = checks - set(all_checks())
    if unknown:
        print(f"unknown checks: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2

    paths = args.paths or DEFAULT_PATHS
    cache = IRCache(args.repo_root, enabled=not args.no_cache)
    scanned = []
    t0 = time.monotonic()
    findings = run_checks(args.repo_root, paths, checks, cache,
                          scanned_out=scanned)
    elapsed = time.monotonic() - t0

    report_findings = findings
    if args.changed_only is not None:
        changed = changed_files(args.repo_root, args.changed_only)
        report_findings = [f for f in findings if f.path in changed]

    if args.json:
        write_findings_json(args.json, checks, report_findings, scanned,
                            cache_stats=cache.stats())
    if args.stats:
        st = cache.stats()
        print(f"planck-lint: {len(scanned)} files in {elapsed:.2f}s "
              f"(cache: {st['hits']} hits / {st['misses']} misses, "
              f"hit rate {st['hit_rate']:.0%})", file=sys.stderr)

    for f in report_findings:
        print(f.render())
    if report_findings:
        print(f"planck-lint: {len(report_findings)} finding(s).",
              file=sys.stderr)
        return 1
    scope = (f"changed files vs {args.changed_only}"
             if args.changed_only is not None else ", ".join(sorted(checks)))
    print(f"planck-lint: clean ({scope}).")
    return 0
