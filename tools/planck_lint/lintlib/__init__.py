"""planck-lint internals: shared IR + checks for the Planck static-analysis
plane (DESIGN.md sections 7, 12).

Package layout:

  source.py     preprocessor-aware source model: comment/string/directive
                stripping, line/column index, allowance parsing.
  ir.py         per-file structural IR (functions, brace scopes) built
                in one linear pass, plus the whole-program view (call
                graph, reachability fixpoint) every cross-file check
                consumes.
  report.py     Finding (file:line:col) and its canonical order.
  checks/       one module per check family; checks/__init__.py holds the
                registry, scopes and path exemptions.
  cli.py        command line: argument parsing, the check loop,
                --selftest.

Everything is dependency-free Python (stdlib only); the analysis is a
deliberately conservative project lint, not a compiler.
"""
