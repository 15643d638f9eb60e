"""Dimensional-units checks: raw-unit-field, unit-mixing, unpaired-enqueue
(DESIGN.md section 7; scoped to the trees migrated to sim/units.hpp)."""

import re

# The sanctioned unit-crossing functions (src/sim/units.hpp). unit-mixing
# points offenders here; keep in sync with DESIGN.md section 7.
NAMED_CONVERSIONS = ["to_bits", "to_bytes", "to_rate_estimate", "per_second",
                     "rate_of", "serialization_delay", "bytes_in"]

RAW_ARITH_TYPE = (r"(?:std::)?u?int(?:8|16|32|64)?_t|(?:std::)?size_t|"
                  r"unsigned(?:\s+(?:int|long(?:\s+long)?))?|"
                  r"long\s+long|long|int|short|double|float")
UNIT_NAME_TOKENS = re.compile(r"(?:^|_)(?:bytes?|bits?|bps|packets?|pkts?)(?:_|$)")
RAW_UNIT_DECL_RE = re.compile(
    rf"\b({RAW_ARITH_TYPE})\s+([A-Za-z_]\w*)\s*(?:=[^;]*|\{{[^;{{}}]*\}})?;")


def paren_depths(code):
    """Prefix array of '(' nesting depth at each offset (braces ignored),
    used to tell field/local declarations from function parameters."""
    depths = [0] * (len(code) + 1)
    depth = 0
    for i, c in enumerate(code):
        depths[i] = depth
        if c == "(":
            depth += 1
        elif c == ")":
            depth = max(0, depth - 1)
    depths[len(code)] = depth
    return depths


def check_raw_unit_field(ctx):
    for sf in ctx.scoped_files("raw-unit-field"):
        depths = paren_depths(sf.code)
        for m in RAW_UNIT_DECL_RE.finditer(sf.code):
            if depths[m.start()] > 0:
                continue  # function parameter: raw boundaries stay explicit
            name = m.group(2)
            if not UNIT_NAME_TOKENS.search(name.lower().rstrip("_")):
                continue
            ctx.add(sf, m.start(), "raw-unit-field",
                    f"raw '{m.group(1)}' declaration '{name}' carries a "
                    f"unit; declare it sim::Bytes/sim::Bits/sim::BitsPerSec/"
                    f"sim::Packets (src/sim/units.hpp), or mark an "
                    f"intentional boundary with an allowance naming it")


BYTE_NAME = r"[A-Za-z_]\w*byte\w*"
BIT_NAME = r"[A-Za-z_]\w*(?:bits?|bps)\w*"
BYTE_BIT_SCALE_RE = re.compile(
    rf"\b({BYTE_NAME})(?:\.count\s*\(\s*\))?\s*([*/])\s*8(?:\.0)?\b|"
    rf"\b8(?:\.0)?\s*\*\s*({BYTE_NAME})\b")
MIXED_BINOP_RE = re.compile(
    rf"\b({BYTE_NAME})(?:\.count\s*\(\s*\))?\s*"
    rf"(\+|-|<=?|>=?|==|!=)\s*({BIT_NAME})\b|"
    rf"\b({BIT_NAME})(?:\.count\s*\(\s*\))?\s*"
    rf"(\+|-|<=?|>=?|==|!=)\s*({BYTE_NAME})\b")


def check_unit_mixing(ctx):
    conversions = "/".join(NAMED_CONVERSIONS[:2])
    for sf in ctx.scoped_files("unit-mixing"):
        for m in BYTE_BIT_SCALE_RE.finditer(sf.code):
            name = m.group(1) or m.group(3)
            ctx.add(sf, m.start(), "unit-mixing",
                    f"byte<->bit scaling of '{name}' by a literal 8; use "
                    f"the named conversions sim::{conversions}() (or "
                    f"sim::per_second/rate_of for rates) so the crossing is "
                    f"typed and auditable")
        for m in MIXED_BINOP_RE.finditer(sf.code):
            a = m.group(1) or m.group(4)
            b = m.group(3) or m.group(6)
            op = m.group(2) or m.group(5)
            # A name can legitimately contain both tokens (e.g. a
            # bytes_to_bits table); skip ambiguous operands.
            ambiguous = [n for n in (a, b)
                         if "byte" in n and re.search(r"bits?|bps", n)]
            if ambiguous:
                continue
            ctx.add(sf, m.start(), "unit-mixing",
                    f"'{a} {op} {b}' combines a byte-unit name with a "
                    f"bit-unit name; convert through "
                    f"sim::{'/'.join(NAMED_CONVERSIONS[:3])}() before "
                    f"mixing")


ADMIT_RE = re.compile(r"(?:\.|->)\s*admit\s*\(")
RELEASE_RE = re.compile(r"(?:\.|->)\s*release\s*\(")


def check_unpaired_enqueue(ctx):
    """Every SharedBuffer::admit() site must sit in a function from which a
    release() call is reachable through the scanned call graph (fixpoint
    over simple call names, cross-file): otherwise bytes admitted to the
    conservation ledger can never be returned, and the DT pool leaks."""
    scoped = ctx.scoped_files("unpaired-enqueue")
    paths = {sf.path for sf in scoped}
    reaches = ctx.program.reaches(
        paths, seed=lambda fn: "direct" if RELEASE_RE.search(fn.body) else "",
        via=lambda callee: "transitive")
    for sf in scoped:
        for fn in ctx.ir(sf).functions:
            if id(fn) in reaches:
                continue
            for m in ADMIT_RE.finditer(fn.body):
                ctx.add(sf, fn.start + m.start(), "unpaired-enqueue",
                        f"admit() in '{fn.name}' with no release() "
                        f"reachable through the call graph: admitted bytes "
                        f"can never leave the shared-buffer ledger (dequeue "
                        f"or drop accounting is missing)")
