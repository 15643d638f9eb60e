"""Check registry, scopes and path exemptions.

Adding a check: implement `def run(ctx)` in a module here, reading files
and IR from `ctx` and reporting through `ctx.add(sf, offset, check,
message)`; then register it in CHECKS below and document it in DESIGN.md
section 7. Scoping/exemption/suppression is handled by the driver, not by
the check bodies.
"""

from ..report import finding_at

# The concurrency-readiness checks (DESIGN.md section 12) police
# production sources only — tests, benches and examples are driver
# programs that never run inside a partition.
CONCURRENCY_SCOPE = ["src/"]

# The trees migrated to the strong unit types in src/sim/units.hpp; the
# dimensional checks only apply here (core/, controller/ and sim/ keep raw
# representations at their boundaries by design).
UNITS_SCOPE = ["src/net/", "src/switchsim/", "src/tcp/", "src/te/",
               "src/workload/"]

# Checks restricted to path prefixes; a check absent here runs everywhere.
CHECK_SCOPE = {
    "raw-unit-field": UNITS_SCOPE,
    "unit-mixing": UNITS_SCOPE,
    "unpaired-enqueue": UNITS_SCOPE,
    "mutable-global": CONCURRENCY_SCOPE,
    "partition-escape": CONCURRENCY_SCOPE,
    "blocking-in-partition": CONCURRENCY_SCOPE,
}

# Per-check path prefixes (relative to the repo root, '/'-separated) where
# the check does not apply.
PATH_EXEMPTIONS = {
    "wall-clock": ["src/sim/random.hpp", "bench/"],
}


def exempt(path, check):
    for prefix in PATH_EXEMPTIONS.get(check, []):
        if path == prefix or path.startswith(prefix):
            return True
    scope = CHECK_SCOPE.get(check)
    if scope is not None and not any(path.startswith(p) for p in scope):
        return True
    return False


def suppressed(sf, lineno, check):
    """True when an allowance covers (lineno, check); records which
    allowance fired so stale-allowance can flag the ones that never do.
    Only the exact named checks (or '*') suppress — allow(a, b) suppresses
    a and b on that line and nothing else."""
    for probe in (lineno, lineno - 1):
        allowed = sf.allow_lines.get(probe)
        if allowed and check in allowed:
            sf.used_allowances.add((probe, check))
            return True
        if allowed and "*" in allowed:
            sf.used_allowances.add((probe, "*"))
            return True
    if check in sf.allow_file:
        sf.used_file_allowances.add(check)
        return True
    if "*" in sf.allow_file:
        sf.used_file_allowances.add("*")
        return True
    return False


class CheckContext:
    """Everything a check body needs: the scanned files, the program IR,
    and the findings sink."""

    def __init__(self, files, program, findings):
        self.files = files  # [SourceFile]
        self.program = program  # ProgramIR
        self.findings = findings

    def add(self, sf, offset, check, message):
        self.findings.append(finding_at(sf, offset, check, message))

    def scoped_files(self, check):
        return [sf for sf in self.files if not exempt(sf.path, check)]

    def ir(self, sf):
        return self.program.irs[sf.path]


def all_checks():
    """Ordered check-name list (the CLI and docs order)."""
    return [name for name, _fn in checks_registry()]


def registry():
    from . import determinism, units, concurrency, allowances
    return [
        ("wall-clock", determinism.check_wall_clock),
        ("unordered-container", determinism.check_unordered_container),
        ("pointer-key", determinism.check_pointer_key),
        ("time-unit", determinism.check_time_unit),
        ("raw-cast", determinism.check_raw_cast),
        ("trace-wall-clock", determinism.check_trace_wall_clock),
        ("raw-unit-field", units.check_raw_unit_field),
        ("unit-mixing", units.check_unit_mixing),
        ("unpaired-enqueue", units.check_unpaired_enqueue),
        ("mutable-global", concurrency.check_mutable_global),
        ("partition-escape", concurrency.check_partition_escape),
        ("blocking-in-partition", concurrency.check_blocking_in_partition),
        ("stale-allowance", allowances.check_stale_allowances),
    ]


CHECKS = None  # populated lazily by checks_registry()


def checks_registry():
    global CHECKS
    if CHECKS is None:
        CHECKS = registry()
    return CHECKS
