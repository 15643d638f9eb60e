#!/usr/bin/env python3
"""planck-lint: determinism-and-invariant static analysis for the Planck
repo.

Entry point only — the analysis lives in the lintlib package next to this
file:

  lintlib/source.py     preprocessor-aware tokenizer (two buffer views:
                        raw bytes and comment/string/directive-masked code)
  lintlib/ir.py         structural scanner -> per-file function/class IR,
                        whole-program call graph + taint fixpoint
  lintlib/cache.py      content-hash IR cache (.lint-cache/)
  lintlib/checks/       the check catalogue (DESIGN.md section 7)
  lintlib/cli.py        driver, selftest, --changed-only, JSON export

Run `planck_lint.py --list-checks` for the catalogue, `--selftest` for the
fixture suite; tools/lint.sh wraps this with the Clang-based stages.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from lintlib.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
