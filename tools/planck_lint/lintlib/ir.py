"""Structural IR: one linear pass per file, shared by every check.

The seed linter re-derived functions per check (three separate
extractions) and classified every brace against the full file prefix,
which made a full-tree run quadratic (~51 s on the PR-8 tree). This
module scans each file once:

  * every brace is classified (namespace / class / function / other) from
    a bounded statement head;
  * call names and scheduling sinks are collected per function body.

ProgramIR then builds the whole-program view: a name-based call graph and
one reachability fixpoint over it, which the event-loop taint and the
release-reachability walk both run.
"""

import bisect
import re
from dataclasses import dataclass, field

# Scheduling sinks: member/qualified calls that put work on the event
# loop, so a function that reaches one runs inside it (the event-loop
# taint). push_back/push_front are not sinks (the (?!_) guard).
SINK_RE = re.compile(
    r"(?:\.|->|::)\s*"
    r"(schedule(?:_at|_packet|_call(?:_at)?)?|push(?:_packet|_call)?(?!_)|send|call)"
    r"\s*\(")

CALL_NAME_RE = re.compile(r"(?:\.|->|::|\b)([A-Za-z_]\w*)\s*\(")

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return", "sizeof",
                    "alignof", "decltype", "static_assert", "assert"}

FUNC_TRAILER_RE = re.compile(r"(?:\s*(?:const|noexcept|override|final|mutable))*$")
TRAILING_RETURN_RE = re.compile(r"->\s*[\w:<>&*\s]+$")
NAMESPACE_HEAD_RE = re.compile(
    r"(?:\binline\s+)?\bnamespace\b(?:\s+[\w:]+)?\s*$|\bextern\s*$")
CLASS_NAME_RE = re.compile(r"\b(?:class|struct|union)\s+([A-Za-z_]\w*)")
NAME_BEFORE_PAREN_RE = re.compile(r"([A-Za-z_~]\w*)\s*$")


@dataclass
class Function:
    name: str
    start: int  # offset of body '{' in file code
    end: int  # offset of matching '}'
    body: str
    has_sink: bool = False
    # Distinct callee names, sorted: the reachability walk credits the
    # first reaching callee it meets, so a set's hash order would make the
    # reason it reports vary from run to run.
    calls: list = field(default_factory=list)


@dataclass
class FileIR:
    path: str
    functions: list = field(default_factory=list)
    # (open_offset, close_offset, kind) per brace, in open order; kind is
    # namespace | class | function | other, and close_offset is -1 except
    # for a function body.
    braces: list = field(default_factory=list)


def match_paren(code, open_idx, open_ch="(", close_ch=")"):
    """Index of the matching close for the opener at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(code)):
        c = code[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


def match_angle(code, open_idx):
    """Match '<'...'>' treating template nesting; bails out on suspicious
    characters so comparison expressions are not mistaken for templates."""
    depth = 0
    i = open_idx
    while i < len(code):
        c = code[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i
        elif c in ";{}":
            return -1
        i += 1
    return -1


def split_top_level(text, sep):
    parts, depth, last = [], 0, 0
    i = 0
    while i < len(text):
        c = text[i]
        if c in "<([{":
            depth += 1
        elif c in ">)]}":
            depth -= 1
        elif c == sep and depth == 0:
            if sep == ":" and i + 1 < len(text) and text[i + 1] == ":":
                i += 2
                continue
            if sep == ":" and i > 0 and text[i - 1] == ":":
                i += 1
                continue
            parts.append(text[last:i])
            last = i + 1
        i += 1
    parts.append(text[last:])
    return parts


def _statement_head(code, brace, window=3000):
    """Text between the previous structural boundary (; { }) and `brace`,
    falling back to a fixed window when the boundary is further away (long
    multi-line signatures with brace default arguments)."""
    lo = max(0, brace - window)
    seg = code[lo:brace]
    for boundary in ";{}":
        idx = seg.rfind(boundary)
        if idx >= 0:
            lo_candidate = lo + idx + 1
            lo = max(lo, lo_candidate)
            seg = code[lo:brace]
    return seg, lo


def _classify_and_name(code, brace):
    """Classification of the '{' at `brace` plus the function's name:
    ('function', name), ('namespace', ''), ('class', '') or
    ('other', '')."""
    head, head_lo = _statement_head(code, brace)
    head = head.rstrip()
    if NAMESPACE_HEAD_RE.search(head):
        return "namespace", ""
    stripped = FUNC_TRAILER_RE.sub("", head)
    stripped = TRAILING_RETURN_RE.sub("", stripped).rstrip()
    if stripped.endswith(")") or stripped.endswith("]"):
        # A ')' head is a function body, lambda, or control-flow block.
        return "function", _function_name(code, head_lo + len(stripped),
                                          brace)
    stmt = head  # the statement head this brace terminates
    if re.search(r"\benum\b", stmt):
        return "other", ""
    if "(" not in stmt and CLASS_NAME_RE.search(stmt):
        return "class", ""
    return "other", ""


def _function_name(code, head_end, brace):
    """Resolve the identifier in front of the '(' that matches the ')'
    closing the head. Returns '' for lambdas, control-flow blocks and
    casts."""
    # Reverse scan from head_end-1 (a ')' or ']') for the matching opener.
    close_ch = code[head_end - 1] if head_end > 0 else ")"
    open_ch = "(" if close_ch == ")" else "["
    if close_ch not in ")]":
        return ""
    depth = 0
    open_idx = -1
    lo = max(0, brace - 6000)
    for i in range(head_end - 1, lo - 1, -1):
        c = code[i]
        if c == close_ch:
            depth += 1
        elif c == open_ch:
            depth -= 1
            if depth == 0:
                open_idx = i
                break
    if open_idx <= 0 or open_ch == "[":
        return ""
    name_m = NAME_BEFORE_PAREN_RE.search(code, lo, open_idx)
    if not name_m or name_m.end() != _rstrip_end(code, open_idx, lo):
        return ""
    name = name_m.group(1)
    if name in CONTROL_KEYWORDS:
        return ""
    return name


def _rstrip_end(code, end, lo):
    i = end
    while i > lo and code[i - 1].isspace():
        i -= 1
    return i


def build_file_ir(sf):
    """Single structural pass over a stripped file."""
    code = sf.code
    ir = FileIR(path=sf.path)
    skip_until = -1

    for m in re.finditer(r"[{}]", code):
        i = m.start()
        if i < skip_until or code[i] == "}":
            continue
        kind, name = _classify_and_name(code, i)
        if kind == "function" and name:
            close = match_paren(code, i, "{", "}")
            if close < 0:
                ir.braces.append((i, -1, "function"))
                continue
            body = code[i:close + 1]
            fn = Function(name=name, start=i, end=close, body=body)
            fn.has_sink = SINK_RE.search(body) is not None
            fn.calls = sorted({c for c in CALL_NAME_RE.findall(body)
                               if c not in CONTROL_KEYWORDS})
            ir.functions.append(fn)
            ir.braces.append((i, close, "function"))
            skip_until = close + 1
            continue
        ir.braces.append((i, -1, kind))

    return ir


class ScopeIndex:
    """Answers `enclosing brace kinds at offset` queries from the
    scanner's brace events (replacement for the seed linter's per-offset
    stacks array, which re-classified every brace against the full file
    prefix). Braces the scanner skipped (inside function bodies) count as
    'function' context."""

    def __init__(self, ir, code):
        opens = {o: k for o, _c, k in ir.braces}
        self._offsets = []
        self._post = []  # stack tuple after processing the brace at offset
        stack = ()
        for m in re.finditer(r"[{}]", code):
            i = m.start()
            if code[i] == "{":
                stack = stack + (opens.get(i, "function"),)
            else:
                stack = stack[:-1] if stack else stack
            self._offsets.append(i)
            self._post.append(stack)

    def stack_at(self, offset):
        """Enclosing-context kinds at a non-brace offset, innermost last."""
        idx = bisect.bisect_left(self._offsets, offset)
        return self._post[idx - 1] if idx else ()


class ProgramIR:
    """Whole-program view over the scanned files: the per-file IR and
    reachability over the name-based call graph."""

    def __init__(self, file_irs):
        self.irs = {ir.path: ir for ir in file_irs}

    def reaches(self, paths, seed, via):
        """{id(fn): reason} for the functions in `paths` (a set of
        repo-relative paths) from which a seed is reachable through the
        call graph restricted to `paths`. A function is a seed when
        `seed(fn)` returns a non-empty reason; a function reaching one
        through a call to `callee` gets `via(callee)`."""
        funcs = []
        for path, ir in sorted(self.irs.items()):
            if path in paths:
                funcs.extend(ir.functions)
        by_name = {}
        for fn in funcs:
            by_name.setdefault(fn.name, []).append(fn)
        state = {}
        for fn in funcs:
            s = seed(fn)
            if s:
                state[id(fn)] = s
        changed = True
        while changed:
            changed = False
            for fn in funcs:
                if id(fn) in state:
                    continue
                for callee in fn.calls:
                    targets = by_name.get(callee)
                    if targets and any(id(t) in state for t in targets):
                        state[id(fn)] = via(callee)
                        changed = True
                        break
        return state
