#!/usr/bin/env python3
"""planck-lint: determinism-and-invariant static analysis for the Planck
repo.

Entry point only — the analysis lives in the lintlib package next to this
file:

  lintlib/source.py     preprocessor-aware tokenizer (two buffer views:
                        raw bytes and comment/string/directive-masked code)
  lintlib/ir.py         structural scanner -> per-file function/class IR,
                        whole-program call graph + reachability fixpoint
  lintlib/checks/       the check catalogue (DESIGN.md section 7)
  lintlib/cli.py        command line, check loop and selftest

Run `planck_lint.py [paths...]` to lint paths relative to the repo root
(default: src examples tests bench), `--list-checks` for the catalogue,
`--selftest` for the fixture suite; tools/lint.sh wraps this with the
Clang-based stages.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from lintlib.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
