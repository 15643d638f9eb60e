"""Content-hash IR cache.

Parsing (comment stripping + the structural scan) dominates lint time; the
results depend only on file *content*, never on path or neighbors. So each
file's SourceFile + FileIR is pickled under
`.lint-cache/<sha256(content)>-v<IR_VERSION>.pickle` at the repo root.
A warm run re-reads bytes (needed for the hash anyway) and skips the parse.

The key is salted with IR_VERSION (lintlib/__init__.py, the schema
generation) *and* a digest of the lintlib sources themselves, so editing
the tokenizer or scanner automatically orphans every stale entry — no
invalidation pass, no forgotten version bump. The directory is gitignored
and safe to delete at any time.
"""

import hashlib
import os
import pickle

from . import IR_VERSION
from .ir import build_file_ir
from .source import load_file as _parse_file

CACHE_DIR_NAME = ".lint-cache"


def _tool_salt():
    """Digest of the lintlib sources: parse results depend on the parser."""
    lintlib_dir = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(lintlib_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if not fname.endswith(".py"):
                continue
            with open(os.path.join(dirpath, fname), "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:12]


class IRCache:
    def __init__(self, cache_root, enabled=True):
        self.dir = os.path.join(cache_root, CACHE_DIR_NAME)
        self.enabled = enabled
        self.salt = f"v{IR_VERSION}-{_tool_salt()}" if enabled else ""
        self.hits = 0
        self.misses = 0

    def stats(self):
        total = self.hits + self.misses
        return {
            "enabled": self.enabled,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hits / total, 4) if total else 0.0,
        }

    def load(self, root, relpath):
        """(SourceFile, FileIR) for relpath, from cache when possible."""
        apath = os.path.join(root, relpath)
        with open(apath, "rb") as f:
            data = f.read()
        if not self.enabled:
            return _parse_pair(root, relpath)
        key = hashlib.sha256(data).hexdigest()
        entry = os.path.join(self.dir, f"{key}-{self.salt}.pickle")
        if os.path.exists(entry):
            try:
                with open(entry, "rb") as f:
                    sf, ir = pickle.load(f)
                # Path-dependent fields are not part of the content key.
                sf.path = relpath.replace(os.sep, "/")
                ir.path = sf.path
                sf.used_allowances = set()
                sf.used_file_allowances = set()
                self.hits += 1
                return sf, ir
            except Exception:
                pass  # corrupt/foreign entry: fall through and rebuild
        self.misses += 1
        sf, ir = _parse_pair(root, relpath)
        try:
            os.makedirs(self.dir, exist_ok=True)
            tmp = entry + f".tmp.{os.getpid()}"
            with open(tmp, "wb") as f:
                pickle.dump((sf, ir), f, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, entry)
        except OSError:
            pass  # read-only checkout: cache is an optimization only
        return sf, ir


def _parse_pair(root, relpath):
    sf = _parse_file(root, relpath)
    return sf, build_file_ir(sf)
