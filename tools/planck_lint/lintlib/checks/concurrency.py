"""Concurrency-readiness checks: mutable-global, guarded-field,
partition-escape, blocking-in-partition (DESIGN.md section 12). Brace
classification comes from the structural scanner in ir.py."""

import re

from ..ir import ScopeIndex, mask_nested_braces

# --------------------------------------------------------------------------
# mutable-global
# --------------------------------------------------------------------------

NS_DECL_SKIP_TOKENS = {
    "using", "typedef", "template", "friend", "operator", "return", "throw",
    "goto", "delete", "new", "class", "struct", "union", "enum", "namespace",
    "static_assert", "co_return", "co_yield", "if", "else", "for", "while",
    "do", "switch", "case", "break", "continue", "public", "private",
    "protected", "asm", "concept", "requires",
}

# The declaration head is possessive (`++`): it excludes every character
# an initializer can start with (= { [), so greedy-without-backtracking
# accepts exactly the same strings as the old lazy form but in linear
# time — the lazy version went catastrophic on the long blank runs the
# preprocessor mask leaves behind (this was most of the old tool's 50 s).
NS_DECL_CAND_RE = re.compile(
    r"(?:\A|(?<=[;{}]))([^;{}()\[\]=]++)"
    r"(=[^;{}]*|\{[^;{}]*\}|\[[^\]]*\]\s*(?:=[^;{}]*|\{[^;{}]*\})?)?\s*;")

STATIC_DECL_RE = re.compile(
    r"\bstatic\s+((?:(?:inline|thread_local|constinit|mutable|volatile)\s+)*)"
    r"((?:[A-Za-z_][\w:]*)(?:\s*<[^;{}()]*>)?(?:\s*(?:\*|&|const\b))*)\s+"
    r"([A-Za-z_]\w*(?:\s*\[[^\]]*\])?)\s*(=|\{|;|\()")


def mutable_global_message(what, name):
    return (f"{what} '{name}' is shared mutable state every partition "
            f"thread would race on; convert it to member/injected state or "
            f"constexpr (audited singletons: file-wide allow-file with a "
            f"written rationale, DESIGN.md section 12)")


def check_mutable_global(ctx):
    """Non-const static-storage-duration state: namespace-scope variables,
    function-local statics, static data members. The partitioned engine
    (ROADMAP: shard the wheel and slabs, run partitions on a thread pool)
    can only keep digests byte-stable if partition state is injected, never
    ambient."""
    for sf in ctx.scoped_files("mutable-global"):
        stacks = ScopeIndex(ctx.ir(sf), sf.code)

        # (a) namespace-scope variable definitions (static or not).
        for m in NS_DECL_CAND_RE.finditer(sf.code):
            head = m.group(1)
            first_char = m.start(1)
            if any(kind != "namespace" for kind in stacks.stack_at(first_char)):
                continue
            tokens = head.split()
            if len(tokens) < 2:
                continue
            if any(t in NS_DECL_SKIP_TOKENS for t in tokens):
                continue
            if "const" in tokens or "constexpr" in tokens:
                continue  # immutable: safe to share
            if re.search(r"\bconst\b|\bconstexpr\b", head):
                continue  # const glued into a qualified type (`T* const`)
            name = tokens[-1]
            if not re.match(r"[A-Za-z_][\w:]*$", name):
                continue
            if not re.match(r"[A-Za-z_]", tokens[0]):
                continue
            what = ("extern declaration of mutable global"
                    if "extern" in tokens else "namespace-scope variable")
            ctx.add(sf, first_char + len(head) - len(head.lstrip()),
                    "mutable-global", mutable_global_message(what, name))

        # (b) `static` declarations in class or function scope
        # (namespace-scope statics are already covered by (a)).
        for m in STATIC_DECL_RE.finditer(sf.code):
            if m.group(4) == "(":
                continue  # static member function / static free function
            decl_type = m.group(2).strip()
            if re.match(r"(?:const|constexpr)\b", decl_type) or \
                    re.search(r"\bconstexpr\b", m.group(1) + decl_type):
                continue
            if re.search(r"\bconst\b", decl_type):
                continue  # `static const T x`: immutable, shareable
            stack = stacks.stack_at(m.start())
            if not any(kind != "namespace" for kind in stack):
                continue  # namespace scope: (a) already reported it
            what = ("function-local static"
                    if stack and stack[-1] in ("function", "other")
                    else "mutable static data member")
            ctx.add(sf, m.start(), "mutable-global",
                    mutable_global_message(what, m.group(3)))


# --------------------------------------------------------------------------
# guarded-field
# --------------------------------------------------------------------------

# Matches both the std types and the repo's capability-annotated wrapper
# (sim::Mutex, sim/thread_annotations.hpp).
MUTEX_MEMBER_RE = re.compile(
    r"\b(?:(?:std::)?(?:recursive_|shared_|timed_|recursive_timed_)?mutex"
    r"|(?:planck::)?(?:sim::)?Mutex)\s+"
    r"([A-Za-z_]\w*)\s*[;{=]")
ATOMIC_MEMBER_RE = re.compile(
    r"\bstd::atomic(?:<[^;>]*(?:<[^;>]*>)?[^;>]*>|_\w+)\s+([A-Za-z_]\w*)")
GUARDED_REF_RE = re.compile(
    r"\bPLANCK(?:_PT)?_GUARDED_BY\s*\(\s*([A-Za-z_]\w*)")
PARTITION_OWNED_RE = re.compile(r"\bPLANCK_PARTITION_OWNED\b")
MEMBER_SKIP_TOKENS = {
    "using", "typedef", "friend", "static", "enum", "class", "struct",
    "union", "template", "public", "private", "protected", "operator",
    "explicit", "virtual", "return",
}


def has_toplevel_paren(text):
    """True when `text` contains a '(' outside angle brackets — i.e. the
    statement declares (or defines) a function, not a data member.
    Parentheses inside template arguments (std::function<void()> handlers)
    do not count."""
    angle = 0
    for c in text:
        if c == "<":
            angle += 1
        elif c == ">":
            angle = max(0, angle - 1)
        elif c == "(" and angle == 0:
            return True
    return False


def member_declarations(member_text):
    """Yields (offset, name, decl_text) for plain data-member declarations
    at class-body top level: ';'-terminated statements with no top-level
    parens (methods, ctors and annotated members have them) and no
    disqualifying keyword."""
    pos = 0
    while True:
        end = member_text.find(";", pos)
        if end < 0:
            return
        stmt = member_text[pos:end]
        start = pos
        pos = end + 1
        # Access specifiers glue onto the following statement; strip them.
        stripped = re.sub(r"\b(?:public|private|protected)\s*:", " ", stmt)
        lead = len(stmt) - len(stmt.lstrip())
        if has_toplevel_paren(stripped):
            continue
        tokens = stripped.split()
        if len(tokens) < 2:
            continue
        if any(t.rstrip(":") in MEMBER_SKIP_TOKENS for t in tokens):
            continue
        name_m = re.search(
            r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*(?:=[^=]*|\{.*\})?\s*$",
            stripped, re.S)
        if not name_m:
            continue
        yield start + lead, name_m.group(1), stripped


def check_guarded_field(ctx):
    """A class that owns synchronization must say what it synchronizes
    (DESIGN.md section 12): every mutex member needs >= 1
    PLANCK_GUARDED_BY(that_mutex) reference, every plain field of a
    mutex-owning class needs an annotation, and a class mixing std::atomic
    members with plain fields must either guard the plain fields or declare
    PLANCK_PARTITION_OWNED (single-writer, externally synchronized)."""
    for sf in ctx.scoped_files("guarded-field"):
        for ci in ctx.ir(sf).classes:
            if ci.kind == "union" or ci.body_close < 0:
                continue
            body_open = ci.body_open
            body = sf.code[body_open:ci.body_close + 1]
            members = mask_nested_braces(body)
            class_name = ci.name

            mutexes = {}  # name -> offset in body
            for mm in MUTEX_MEMBER_RE.finditer(members):
                mutexes[mm.group(1)] = mm.start()
            atomics = {}
            for am in ATOMIC_MEMBER_RE.finditer(members):
                atomics[am.group(1)] = am.start()
            guarded_by = set(GUARDED_REF_RE.findall(members))
            partition_owned = PARTITION_OWNED_RE.search(members) is not None

            for name, off in sorted(mutexes.items(), key=lambda kv: kv[1]):
                if name not in guarded_by:
                    ctx.add(sf, body_open + off, "guarded-field",
                            f"mutex member '{name}' of '{class_name}' has "
                            f"zero PLANCK_GUARDED_BY({name}) references: a "
                            f"lock that guards nothing is a lock nobody can "
                            f"audit; annotate the fields it protects "
                            f"(sim/thread_annotations.hpp)")

            if not mutexes and not atomics:
                continue
            for off, name, decl in member_declarations(members):
                if name in mutexes or name in atomics:
                    continue
                if re.search(r"\bconst\b|\bconstexpr\b", decl):
                    continue
                if "PLANCK" in decl and GUARDED_REF_RE.search(decl):
                    continue
                if mutexes:
                    ctx.add(sf, body_open + off, "guarded-field",
                            f"field '{name}' of mutex-owning class "
                            f"'{class_name}' carries no PLANCK_GUARDED_BY "
                            f"annotation: state in a locked class is either "
                            f"guarded, const, atomic, or a documented "
                            f"exception (allow with a rationale)")
                elif not partition_owned:
                    ctx.add(sf, body_open + off, "guarded-field",
                            f"'{class_name}' mixes std::atomic members with "
                            f"plain field '{name}' but declares no "
                            f"ownership: add PLANCK_PARTITION_OWNED "
                            f"(single-writer, externally synchronized, "
                            f"DESIGN.md section 12) or guard the plain "
                            f"fields")


# --------------------------------------------------------------------------
# partition-escape
# --------------------------------------------------------------------------

TELEMETRY_GET_RE = re.compile(r"(?:\.|->)\s*telemetry\s*\(\s*\)")
SET_TELEMETRY_RE = re.compile(r"(?:\.|->)\s*set_telemetry\s*\(")

# The sanctioned single-threaded setup points: metric/trace registration
# happens in constructors, before any partition thread exists.
ESCAPE_EXEMPT_FUNCTIONS = {"register_metrics"}


def check_partition_escape(ctx):
    """Taint walk from the sim::Simulation/EventQueue entry points: a
    function from which a scheduling sink is reachable through the scanned
    call graph executes inside the event loop — on the owning partition's
    thread once the engine shards. Grabbing sim.telemetry() there (the one
    object partitions share) or re-installing it mid-run is a write path to
    state the executing partition does not own. Shared-plane access from
    the event core must go through the PLANCK_TRACE/PLANCK_METRIC macro
    layer (null-checked, lock-disciplined) or a handle captured in
    register_metrics(); anything rawer carries an allow(partition-escape)
    with a rationale."""
    scoped = ctx.scoped_files("partition-escape")
    paths = {sf.path for sf in scoped}
    tainted = ctx.program.taint("partition-escape", paths)

    for sf in scoped:
        for fn in ctx.ir(sf).functions:
            via = tainted.get(id(fn))
            if not via:
                continue
            if fn.name in ESCAPE_EXEMPT_FUNCTIONS:
                continue
            for m in TELEMETRY_GET_RE.finditer(fn.body):
                ctx.add(sf, fn.start + m.start(), "partition-escape",
                        f"cross-partition handle: telemetry() dereferenced "
                        f"in '{fn.name}' ({via}), which executes inside the "
                        f"event loop; go through PLANCK_TRACE/PLANCK_METRIC "
                        f"or capture the handle in register_metrics(), or "
                        f"allow with a rationale")
            for m in SET_TELEMETRY_RE.finditer(fn.body):
                ctx.add(sf, fn.start + m.start(), "partition-escape",
                        f"set_telemetry() inside '{fn.name}' ({via}): "
                        f"re-plumbing the shared plane from the event core "
                        f"races every other partition; install telemetry "
                        f"before the run starts")


# --------------------------------------------------------------------------
# blocking-in-partition
# --------------------------------------------------------------------------

BLOCKING_PATTERNS = [
    (re.compile(r"\bstd::this_thread::sleep_(?:for|until)\b|"
                r"(?<![\w:])(?:usleep|nanosleep)\s*\(|"
                r"(?<![\w:.])sleep\s*\("),
     "sleep", "a sleeping partition thread stalls every partition waiting "
              "at the next lookahead barrier"),
    (re.compile(r"\bstd::[io]?fstream\b|\bstd::(?:FILE|fopen|fread|fwrite|"
                r"fprintf|fgets|fflush)\b|"
                r"(?<![\w:])(?:fopen|fread|fwrite|fprintf|fgets|fflush)\s*\(|"
                r"\bstd::cin\b|\bstd::getline\b"),
     "file I/O", "disk latency inside the event loop destroys the "
                 "millisecond control-loop budget; buffer in memory and "
                 "flush between runs"),
    (re.compile(r"\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b|"
                r"\bcondition_variable\b|"
                r"(?:\.|->)\s*wait(?:_for|_until)?\s*\("),
     "blocking synchronization",
     "event-loop code may only synchronize through the lock-disciplined "
     "obs plane or the engine's boundary queues"),
]

MUTEX_ACQ_NOTE = ("sim::MutexLock acquisition outside src/obs/: partition "
                  "code must not contend on locks in the event loop — the "
                  "boundary queues and the obs plane are the sanctioned "
                  "synchronization points")


def check_blocking_in_partition(ctx):
    """Blocking primitives in event-loop-reachable code (the taint walk
    from the scheduling sinks). The obs plane is path-exempt: its short
    lock scopes are the sanctioned shared-plane discipline, enforced by
    guarded-field and Clang -Wthread-safety instead."""
    paths = {sf.path for sf in ctx.files if sf.path.startswith("src/")}
    tainted = ctx.program.taint("src-event-loop", paths)
    for sf in ctx.scoped_files("blocking-in-partition"):
        for fn in ctx.ir(sf).functions:
            via = tainted.get(id(fn))
            if not via:
                continue
            for pattern, what, why in BLOCKING_PATTERNS:
                for m in pattern.finditer(fn.body):
                    ctx.add(sf, fn.start + m.start(), "blocking-in-partition",
                            f"{what} ('{m.group(0).strip()}') in "
                            f"'{fn.name}' ({via}), which executes inside "
                            f"the event loop: {why}")
            for off, expr in fn.locks:
                ctx.add(sf, fn.start + off, "blocking-in-partition",
                        f"sim::MutexLock({expr}) in '{fn.name}' ({via}): "
                        f"{MUTEX_ACQ_NOTE}")
