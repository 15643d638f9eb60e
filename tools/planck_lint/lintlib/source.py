"""Source model: preprocessor-aware stripping and the per-file facts every
check starts from.

Two views of every file:

  raw    the bytes on disk (used for allowance/EXPECT comment parsing).
  code   comments, string/char literals and preprocessor directives blanked
         with spaces, newlines preserved — offsets and line numbers are
         identical in both views. Checks scan `code`, so a banned token in
         a comment, a log string, or a macro definition body never fires,
         and braces inside #if/#define bodies cannot desynchronize the
         structural scanner.

Preprocessor awareness: directive lines (including their backslash
continuations) are blanked from `code`; a check that needs a directive
(unordered-container's `#include` ban) reads it from `raw`.
"""

import bisect
import os
import re
from dataclasses import dataclass, field

SOURCE_EXTS = {".cpp", ".hpp", ".h", ".cc", ".cxx", ".hxx"}

SUPPRESS_RE = re.compile(r"planck-lint:\s*allow(-file)?\s*\(([^)]*)\)")


@dataclass
class SourceFile:
    path: str  # repo-relative, '/'-separated
    raw: str
    code: str = ""
    line_starts: list = field(default_factory=list)  # offset of each line
    allow_lines: dict = field(default_factory=dict)  # line -> set(checks)
    allow_file: dict = field(default_factory=dict)  # check -> decl line
    used_allowances: set = field(default_factory=set)  # (line, check)
    used_file_allowances: set = field(default_factory=set)  # check

    def line_col(self, offset):
        """1-based (line, col) of a `code`/`raw` offset."""
        line = bisect.bisect_right(self.line_starts, offset)
        return line, offset - self.line_starts[line - 1] + 1


def strip_comments_and_strings(text):
    """Blanks comments, string and char literals with spaces, preserving
    newlines so offsets and line numbers survive."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
        elif c == "'" and i > 0 and text[i - 1].isalnum() and nxt.isalnum():
            i += 1  # digit separator (1'000'000), not a char literal
        elif c == '"' or c == "'":
            quote = c
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out[i] = " "
                    if text[i + 1] != "\n":
                        out[i + 1] = " "
                    i += 2
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def mask_preprocessor(code):
    """Blanks preprocessor directive lines (with continuations) from a
    comment-stripped buffer. Returns the masked buffer."""
    out = list(code)
    n = len(code)
    for start in iter_line_starts(code):
        i = start
        while i < n and code[i] in " \t":
            i += 1
        if i >= n or code[i] != "#":
            continue
        # Directive: find its true end through backslash continuations.
        end = i
        while True:
            nl = code.find("\n", end)
            if nl < 0:
                nl = n
            # A continuation ends the physical line with a backslash.
            j = nl - 1
            while j > end and code[j] in " \t\r":
                j -= 1
            if j >= end and code[j] == "\\" and nl < n:
                end = nl + 1
                continue
            end = nl
            break
        for k in range(start, end):
            if out[k] != "\n":
                out[k] = " "
    return "".join(out)


def iter_line_starts(text):
    yield 0
    idx = text.find("\n")
    while idx >= 0:
        yield idx + 1
        idx = text.find("\n", idx + 1)


def load_file(root, relpath):
    with open(os.path.join(root, relpath), encoding="utf-8", errors="replace") as f:
        raw = f.read()
    sf = SourceFile(path=relpath.replace(os.sep, "/"), raw=raw)
    sf.line_starts = list(iter_line_starts(raw))
    for lineno, line in enumerate(raw.splitlines(), start=1):
        for m in SUPPRESS_RE.finditer(line):
            checks = {c.strip() for c in m.group(2).split(",") if c.strip()}
            if m.group(1):  # allow-file
                for check in checks:
                    sf.allow_file.setdefault(check, lineno)
            else:
                sf.allow_lines.setdefault(lineno, set()).update(checks)
    sf.code = mask_preprocessor(strip_comments_and_strings(raw))
    return sf


def collect_files(root, paths):
    rels = []
    for p in paths:
        ap = os.path.join(root, p)
        if os.path.isfile(ap):
            rels.append(os.path.relpath(ap, root))
            continue
        for dirpath, _dirnames, filenames in os.walk(ap):
            for fname in sorted(filenames):
                if os.path.splitext(fname)[1] in SOURCE_EXTS:
                    rels.append(os.path.relpath(os.path.join(dirpath, fname), root))
    return sorted(set(rels))
