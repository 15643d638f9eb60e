"""Determinism checks: wall-clock, unordered-iteration, pointer-key,
time-unit, raw-cast, trace-wall-clock (DESIGN.md section 7). Ported from
the single-file seed linter onto the shared IR — unordered-iteration now
reuses the program-wide taint fixpoint instead of re-extracting every
function."""

import os
import re

from ..ir import match_angle, match_paren, split_top_level

WALL_CLOCK_PATTERNS = [
    (re.compile(r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"),
     "wall-clock time source; simulation time must come from sim::Simulation::now()"),
    (re.compile(r"\bstd::rand\b|\bsrand\s*\(|(?<![\w:])rand\s*\(\s*\)"),
     "global C RNG; use a seeded sim::Rng (src/sim/random.hpp)"),
    (re.compile(r"\bstd::random_device\b|(?<![\w:])random_device\b"),
     "hardware entropy source; use a seeded sim::Rng (src/sim/random.hpp)"),
    (re.compile(r"(?<![\w.])\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "wall-clock time(); simulation time must come from sim::Simulation::now()"),
    (re.compile(r"\bgettimeofday\s*\(|\bclock_gettime\s*\(|(?<![\w:.])clock\s*\(\s*\)"),
     "wall-clock syscall; simulation time must come from sim::Simulation::now()"),
]


def check_wall_clock(ctx):
    for sf in ctx.files:
        for pattern, why in WALL_CLOCK_PATTERNS:
            for m in pattern.finditer(sf.code):
                ctx.add(sf, m.start(), "wall-clock",
                        f"'{m.group(0).strip()}': {why}")


# --------------------------------------------------------------------------
# unordered-iteration
# --------------------------------------------------------------------------

def file_stem(path):
    return os.path.splitext(os.path.basename(path))[0]


def build_unordered_registry(files):
    """Function names returning an unordered container (global, since calls
    like collector->flow_table().flows() cross files), and variable names
    declared with an unordered type, scoped per file *stem* so that a
    member declared in foo.hpp is visible in foo.cpp but an unrelated
    same-named member of another class is not (e.g. TeState::flows_ is an
    unordered_map while Collector::flows_ is a FlowTable)."""
    vars_by_stem, method_names = {}, set()
    for sf in files:
        stem_vars = vars_by_stem.setdefault(file_stem(sf.path), set())
        for m in re.finditer(r"\bunordered_(?:map|set)\s*<", sf.code):
            open_idx = m.end() - 1
            close = match_angle(sf.code, open_idx)
            if close < 0:
                continue
            tail = sf.code[close + 1:close + 160]
            dm = re.match(r"\s*(?:&\s*)?([A-Za-z_]\w*)\s*([(;={,)])", tail)
            if not dm:
                continue
            name, delim = dm.group(1), dm.group(2)
            if delim == "(":
                method_names.add(name)
            else:
                stem_vars.add(name)
    return vars_by_stem, method_names


def expr_is_unordered(expr, var_names, method_names):
    expr = expr.strip()
    if "unordered_map" in expr or "unordered_set" in expr:
        return True
    call = re.search(r"(?:\.|->)\s*([A-Za-z_]\w*)\s*\(\s*\)\s*$", expr)
    if call and call.group(1) in method_names:
        return True
    ident = re.search(r"([A-Za-z_]\w*)\s*$", expr)
    if ident and ident.group(1) in var_names:
        return True
    return False


def check_unordered_iteration(ctx):
    vars_by_stem, method_names = build_unordered_registry(ctx.files)
    tainted = ctx.program.taint("all")

    for sf in ctx.files:
        var_names = vars_by_stem.get(file_stem(sf.path), set())
        for fn in ctx.ir(sf).functions:
            via = tainted.get(id(fn))
            if not via:
                continue
            for m in re.finditer(r"\bfor\s*\(", fn.body):
                open_idx = m.end() - 1
                close = match_paren(fn.body, open_idx)
                if close < 0:
                    continue
                header = fn.body[open_idx + 1:close]
                parts = split_top_level(header, ":")
                hit = None
                if len(parts) == 2:  # range-for
                    if expr_is_unordered(parts[1], var_names, method_names):
                        hit = parts[1].strip()
                else:  # classic loop: iterator over an unordered container?
                    it = re.search(r"([A-Za-z_]\w*)\s*(?:\.|->)\s*begin\s*\(",
                                   header)
                    if it and it.group(1) in var_names:
                        hit = f"{it.group(1)}.begin()"
                if hit is None:
                    continue
                ctx.add(sf, fn.start + m.start(), "unordered-iteration",
                        f"iteration over unordered container '{hit}' in "
                        f"'{fn.name}' ({via}; hash order becomes "
                        f"event order — iterate sorted keys or suppress with "
                        f"a rationale)")


# --------------------------------------------------------------------------
# pointer-key
# --------------------------------------------------------------------------

CMP_LAMBDA_RE = re.compile(
    r"\[[^\[\]]*\]\s*\(\s*(?:const\s+)?[\w:]+\s*\*\s*(?:const\s+)?([A-Za-z_]\w*)\s*,"
    r"\s*(?:const\s+)?[\w:]+\s*\*\s*(?:const\s+)?([A-Za-z_]\w*)\s*\)"
    r"\s*(?:->\s*bool\s*)?\{")


def check_pointer_key(ctx):
    for sf in ctx.files:
        for m in re.finditer(r"\bstd::(map|set)\s*<", sf.code):
            open_idx = m.end() - 1
            close = match_angle(sf.code, open_idx)
            if close < 0:
                continue
            args = split_top_level(sf.code[open_idx + 1:close], ",")
            key = args[0].strip()
            if key.endswith("*"):
                ctx.add(sf, m.start(), "pointer-key",
                        f"std::{m.group(1)} keyed on raw pointer '{key}': "
                        f"address order varies across runs; key on a stable "
                        f"id instead")
        for m in CMP_LAMBDA_RE.finditer(sf.code):
            a, b = m.group(1), m.group(2)
            body_close = match_paren(sf.code, m.end() - 1, "{", "}")
            if body_close < 0:
                continue
            body = sf.code[m.end() - 1:body_close]
            if re.search(rf"\b{a}\s*<\s*{b}\b|\b{b}\s*<\s*{a}\b", body):
                ctx.add(sf, m.start(), "pointer-key",
                        f"comparator orders pointers '{a}'/'{b}' by address: "
                        f"allocation order varies across runs; compare a "
                        f"stable field instead")


# --------------------------------------------------------------------------
# time-unit
# --------------------------------------------------------------------------

NARROW_TYPE = (r"(?:int|short|float|unsigned(?:\s+int)?|"
               r"(?:std::)?u?int(?:8|16|32)_t)")
TIME_TOKEN_RE = re.compile(
    r"\bnow\s*\(\s*\)|\b(?:nanoseconds|microseconds|milliseconds|seconds)\s*\(|"
    r"\bk(?:Nanosecond|Microsecond|Millisecond|Second)\b|"
    r"\bsim::(?:Time|Duration)\b")


def check_time_unit(ctx):
    for sf in ctx.files:
        for m in re.finditer(rf"static_cast\s*<\s*{NARROW_TYPE}\s*>\s*\(",
                             sf.code):
            close = match_paren(sf.code, m.end() - 1)
            if close < 0:
                continue
            arg = sf.code[m.end():close]
            if TIME_TOKEN_RE.search(arg):
                ctx.add(sf, m.start(), "time-unit",
                        f"sim::Time/Duration value narrowed by "
                        f"'{sf.code[m.start():m.end() - 1].strip()}': "
                        f"nanosecond timestamps overflow 32-bit after "
                        f"~2.1 s of simulated time")
        for m in re.finditer(
                rf"(?:\A|(?<=[;{{}}\n]))\s*(?:const\s+)?{NARROW_TYPE}\s+\w+\s*=\s*([^;]*);",
                sf.code):
            if TIME_TOKEN_RE.search(m.group(1)):
                ctx.add(sf, m.start(1), "time-unit",
                        "sim::Time/Duration expression initializes a narrow "
                        "variable; declare it sim::Time/sim::Duration (or "
                        "widen)")


# --------------------------------------------------------------------------
# raw-cast
# --------------------------------------------------------------------------

def check_raw_cast(ctx):
    for sf in ctx.files:
        for m in re.finditer(r"\b(reinterpret_cast|const_cast)\b", sf.code):
            ctx.add(sf, m.start(), "raw-cast",
                    f"{m.group(1)} requires an audit: convert to "
                    f"std::bit_cast or a typed accessor, or suppress with a "
                    f"rationale")


# --------------------------------------------------------------------------
# trace-wall-clock
# --------------------------------------------------------------------------

TRACE_CALL_RE = re.compile(r"\bPLANCK_TRACE(?:_ARGS|_COUNTER)?\s*\(")


def check_trace_wall_clock(ctx):
    """Scans every PLANCK_TRACE* argument list for the wall-clock sources
    banned by the wall-clock check. Deliberately has no PATH_EXEMPTIONS:
    bench/ may use steady_clock to time itself, but a trace event fed from
    one would differ between same-seed runs, breaking the byte-identical
    trace guarantee (DESIGN.md section 9)."""
    for sf in ctx.files:
        for m in TRACE_CALL_RE.finditer(sf.code):
            open_idx = m.end() - 1
            close = match_paren(sf.code, open_idx)
            if close < 0:
                continue
            macro = sf.code[m.start():open_idx].strip()
            args = sf.code[open_idx + 1:close]
            for pattern, _why in WALL_CLOCK_PATTERNS:
                hit = pattern.search(args)
                if hit:
                    ctx.add(sf, m.start(), "trace-wall-clock",
                            f"'{hit.group(0).strip()}' inside a {macro}() "
                            f"argument list: trace events must be computed "
                            f"from sim time only, or same-seed traces "
                            f"diverge (no exemptions — this fires in bench/ "
                            f"too)")
                    break
