"""Determinism checks: wall-clock, unordered-container, pointer-key,
time-unit, raw-cast, trace-wall-clock (DESIGN.md section 7). Each is a
per-file token scan; none needs the call graph."""

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
# unordered-container
# --------------------------------------------------------------------------

UNORDERED_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\b")
UNORDERED_INCLUDE_RE = re.compile(
    r"^[ \t]*#[ \t]*include[ \t]*<(unordered_(?:map|set))>", re.M)


def check_unordered_container(ctx):
    """Bans the hash containers outright. A walk over one visits keys in
    hash order, and that order reaches the schedule or a floating-point
    fold through paths no call graph sees. std::map walks keys in order
    (pointer-key keeps it off addresses); dense ids index a vector."""
    why = ("hash order leaks into every walk of it (event order, "
           "floating-point folds); use std::map, or a vector indexed by a "
           "dense id")
    for sf in ctx.files:
        for m in UNORDERED_RE.finditer(sf.code):
            ctx.add(sf, m.start(), "unordered-container",
                    f"'{m.group(0)}': {why}")
        for m in UNORDERED_INCLUDE_RE.finditer(sf.raw):
            ctx.add(sf, m.start(1), "unordered-container",
                    f"#include <{m.group(1)}>: {why}")


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
