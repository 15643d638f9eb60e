"""planck-lint internals: shared IR + checks for the Planck static-analysis
plane (DESIGN.md sections 7, 12).

Package layout:

  source.py     preprocessor-aware source model: comment/string/directive
                stripping, line/column index, allowance parsing.
  ir.py         per-file structural IR (functions, brace scopes) built
                in one linear pass, plus the whole-program view (call
                graph, taint fixpoints) every cross-file check consumes.
  cache.py      content-hash cache of the per-file IR (.lint-cache/).
  report.py     Finding (file:line:col) and planck-lint-findings-v1 JSON.
  checks/       one module per check family; checks/__init__.py holds the
                registry, scopes and path exemptions.
  cli.py        driver: argument parsing, --selftest, --changed-only.

Everything is dependency-free Python (stdlib only); the analysis is a
deliberately conservative project lint, not a compiler.
"""

# Bumped whenever the on-disk IR layout changes; invalidates .lint-cache.
IR_VERSION = 6
