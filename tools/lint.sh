#!/usr/bin/env bash
# Single entry point for all static analysis (DESIGN.md §7, §12). It only
# checks; it never edits a file.
#
#   tools/lint.sh                       run everything available here
#   tools/lint.sh --fast                planck-lint only (no clang tooling)
#   tools/lint.sh --require-clang-tools fail (not skip) when clang tooling
#                                       is missing — CI uses this so a broken
#                                       tool install cannot silently pass
#
# Stages, in order:
#   1. planck-lint selftest  — proves the analyzer still catches its seeded
#                              violations before we trust a clean tree.
#   2. planck-lint           — project-specific determinism/invariant and
#                              concurrency-readiness checks.
#   3. clang-tidy            — curated baseline in .clang-tidy. Gated:
#                              skipped with a notice when clang-tidy is not
#                              installed.
#   4. clang-format          — style drift check, --dry-run only (gated the
#                              same way).
#
# Every stage runs even when an earlier one fails; the exit status
# aggregates all of them and a PASS/FAIL/SKIP summary prints at the end,
# so one run reports every kind of breakage at once. Skipped stages
# (missing tools) do not fail the run unless --require-clang-tools.

set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

fast=0
require_clang_tools=0
while [ "$#" -gt 0 ]; do
  case "$1" in
    --fast) fast=1 ;;
    --require-clang-tools) require_clang_tools=1 ;;
    -h|--help)
      # The header comment block above, without its '# ' prefixes.
      awk 'NR == 1 { next } !/^#/ { exit } { sub(/^# ?/, ""); print }' "$0"
      exit 0
      ;;
    *)
      echo "lint.sh: unknown argument '$1' (try --help)" >&2
      exit 2
      ;;
  esac
  shift
done

status=0
stage_names=()
stage_results=()

note() { printf '\n== %s ==\n' "$1"; }

# record <stage> <PASS|FAIL|SKIP>: FAIL flips the aggregate exit status.
record() {
  stage_names+=("$1")
  stage_results+=("$2")
  [ "$2" = "FAIL" ] && status=1
}

summarize() {
  printf '\n== summary ==\n'
  local i
  for i in "${!stage_names[@]}"; do
    printf '  %-22s %s\n' "${stage_names[$i]}" "${stage_results[$i]}"
  done
  if [ "$status" -eq 0 ]; then
    echo "lint.sh: OK"
  else
    echo "lint.sh: FAILED (see stages above)" >&2
  fi
}

missing_tool() {
  # $1 = stage, $2 = tool name. Fatal under --require-clang-tools, a
  # SKIP otherwise.
  if [ "$require_clang_tools" -eq 1 ]; then
    echo "lint.sh: $2 required (--require-clang-tools) but not installed" >&2
    record "$1" FAIL
  else
    echo "$2 not installed — skipped (CI runs it; apt-get install $2)"
    record "$1" SKIP
  fi
}

note "planck-lint selftest"
if python3 tools/planck_lint/planck_lint.py --selftest; then
  record selftest PASS
else
  record selftest FAIL
fi

note "planck-lint"
if python3 tools/planck_lint/planck_lint.py; then
  record planck-lint PASS
else
  record planck-lint FAIL
fi

if [ "$fast" -eq 1 ]; then
  summarize
  exit "$status"
fi

note "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  # clang-tidy needs a compilation database; build one if absent.
  tidy_ok=1
  if [ ! -f build/compile_commands.json ]; then
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null || tidy_ok=0
  fi
  if [ -f build/compile_commands.json ]; then
    # Headers are covered via the TUs that include them (HeaderFilterRegex
    # in .clang-tidy).
    find src -name '*.cpp' -print0 |
      xargs -0 -P "$(nproc)" -n 4 clang-tidy -p build --quiet || tidy_ok=0
  else
    echo "lint.sh: could not generate compile_commands.json" >&2
    tidy_ok=0
  fi
  if [ "$tidy_ok" -eq 1 ]; then record clang-tidy PASS; else record clang-tidy FAIL; fi
else
  missing_tool clang-tidy clang-tidy
fi

note "clang-format"
if command -v clang-format >/dev/null 2>&1; then
  # tools/ stays out: the planck-lint selftest fixtures carry
  # `// EXPECT-LINT:` markers tied to their line positions.
  if find src tests examples bench \( -name '*.cpp' -o -name '*.hpp' \) \
      -print0 | xargs -0 clang-format --dry-run -Werror; then
    record clang-format PASS
  else
    record clang-format FAIL
  fi
else
  missing_tool clang-format clang-format
fi

summarize
exit "$status"
