"""stale-allowance: allowances must die with the violation they excused.

Runs after exemption/suppression filtering: it needs to know which
allowances fired.
"""

from . import all_checks
from ..report import Finding


def check_stale_allowances(files, findings):
    """Flags allow()/allow-file() comments whose named checks never
    suppressed a finding, and allowances naming unknown checks."""
    known = set(all_checks()) | {"*"}
    for sf in files:
        for lineno, checks in sorted(sf.allow_lines.items()):
            for check in sorted(checks):
                if check not in known:
                    findings.append(Finding(
                        sf.path, lineno, 1, "stale-allowance",
                        f"allowance names unknown check '{check}' (known: "
                        f"{', '.join(all_checks())})"))
                elif (lineno, check) not in sf.used_allowances:
                    findings.append(Finding(
                        sf.path, lineno, 1, "stale-allowance",
                        f"allowance for '{check}' suppresses nothing on "
                        f"this or the next line; delete it (allowances "
                        f"must die with the violation they excused)"))
        for check, lineno in sorted(sf.allow_file.items()):
            if check not in known:
                findings.append(Finding(
                    sf.path, lineno, 1, "stale-allowance",
                    f"file-wide allowance names unknown check '{check}'"))
            elif check not in sf.used_file_allowances:
                findings.append(Finding(
                    sf.path, lineno, 1, "stale-allowance",
                    f"file-wide allowance for '{check}' suppresses nothing "
                    f"in this file; delete it"))
