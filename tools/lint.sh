#!/usr/bin/env bash
# Single entry point for all static analysis (DESIGN.md §7, §12).
#
#   tools/lint.sh                       run everything available here
#   tools/lint.sh --fast                planck-lint only (no clang tooling)
#   tools/lint.sh --fix                 rewrite style in place (clang-format -i)
#   tools/lint.sh --changed-only REF    planck-lint reports findings only for
#                                       files changed vs git REF (the whole
#                                       tree is still parsed, so whole-program
#                                       checks stay sound); implies --fast
#   tools/lint.sh --json FILE           also write planck-lint findings +
#                                       cache stats as JSON to FILE
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
#                              same way; never rewrites files unless --fix).
#
# Every stage runs even when an earlier one fails; the exit status
# aggregates all of them and a PASS/FAIL/SKIP summary prints at the end,
# so one run reports every kind of breakage at once. Skipped stages
# (missing tools) do not fail the run unless --require-clang-tools.

set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

fast=0
fix=0
require_clang_tools=0
changed_base=""
json_out=""
while [ "$#" -gt 0 ]; do
  case "$1" in
    --fast) fast=1 ;;
    --fix) fix=1 ;;
    --require-clang-tools) require_clang_tools=1 ;;
    --changed-only)
      [ "$#" -ge 2 ] || { echo "lint.sh: --changed-only needs a git ref" >&2; exit 2; }
      changed_base="$2"
      fast=1  # incremental runs are the inner dev loop; clang stages stay full-tree
      shift
      ;;
    --json)
      [ "$#" -ge 2 ] || { echo "lint.sh: --json needs an output path" >&2; exit 2; }
      json_out="$2"
      shift
      ;;
    -h|--help)
      sed -n '2,31p' "$0" | sed 's/^# \{0,1\}//'
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

# The C++ sources clang-format owns, NUL-separated: one list for the check
# stage and for --fix. tools/ stays out: the planck-lint selftest fixtures
# carry `// EXPECT-LINT:` markers tied to their line positions.
format_files() {
  find src tests examples bench \( -name '*.cpp' -o -name '*.hpp' \) -print0
}

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

if [ "$fix" -eq 1 ]; then
  note "clang-format --fix"
  if command -v clang-format >/dev/null 2>&1; then
    format_files | xargs -0 clang-format -i || status=1
    echo "lint.sh: reformatted in place; review the diff"
  else
    missing_tool clang-format-fix clang-format
  fi
  exit "$status"
fi

note "planck-lint selftest"
if python3 tools/planck_lint/planck_lint.py --selftest; then
  record selftest PASS
else
  record selftest FAIL
fi

note "planck-lint"
lint_args=(--stats)
[ -n "$changed_base" ] && lint_args+=(--changed-only "$changed_base")
[ -n "$json_out" ] && lint_args+=(--json "$json_out")
if python3 tools/planck_lint/planck_lint.py "${lint_args[@]}"; then
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
  if format_files | xargs -0 clang-format --dry-run -Werror; then
    record clang-format PASS
  else
    record clang-format FAIL
  fi
else
  missing_tool clang-format clang-format
fi

summarize
exit "$status"
