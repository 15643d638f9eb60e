"""Findings and their canonical order."""

from dataclasses import dataclass


@dataclass
class Finding:
    path: str  # repo-relative
    line: int  # 1-based
    col: int  # 1-based
    check: str
    message: str

    def render(self):
        return f"{self.path}:{self.line}:{self.col}: [{self.check}] {self.message}"

    def sort_key(self):
        # The canonical finding order (file, line, col, check): two runs
        # over the same tree print byte-identical reports.
        return (self.path, self.line, self.col, self.check)


def finding_at(sf, offset, check, message):
    line, col = sf.line_col(offset)
    return Finding(sf.path, line, col, check, message)
