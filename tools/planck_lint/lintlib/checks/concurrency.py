"""Concurrency-readiness checks: mutable-global, partition-escape,
blocking-in-partition (DESIGN.md section 12). Brace classification comes
from the structural scanner in ir.py."""

import re

from ..ir import ScopeIndex

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
# partition-escape
# --------------------------------------------------------------------------

TELEMETRY_GET_RE = re.compile(r"(?:\.|->)\s*telemetry\s*\(\s*\)")
SET_TELEMETRY_RE = re.compile(r"(?:\.|->)\s*set_telemetry\s*\(")

# The sanctioned single-threaded setup points: metric/trace registration
# happens in constructors, before any partition thread exists.
ESCAPE_EXEMPT_FUNCTIONS = {"register_metrics"}


def event_loop_taint(ctx, paths):
    """{id(fn): reason} for the functions in `paths` from which a
    scheduling sink is reachable: they execute inside the event loop."""
    return ctx.program.reaches(
        paths,
        seed=lambda fn: "direct scheduling call" if fn.has_sink else "",
        via=lambda callee: f"calls {callee}()")


def check_partition_escape(ctx):
    """Taint walk from the sim::Simulation/EventQueue entry points: a
    function from which a scheduling sink is reachable through the scanned
    call graph executes inside the event loop — on the owning partition's
    thread once the engine shards. The telemetry plane is shared by every
    partition and takes registrations only at setup (it holds no lock), so
    event-loop code reaches it only through the PLANCK_TRACE/PLANCK_METRIC
    macro layer (the partition's own trace shard, handles captured in
    register_metrics()). Grabbing sim.telemetry() there, or re-installing
    it mid-run, carries an allow(partition-escape) with a rationale."""
    scoped = ctx.scoped_files("partition-escape")
    paths = {sf.path for sf in scoped}
    tainted = event_loop_taint(ctx, paths)

    for sf in scoped:
        for fn in ctx.ir(sf).functions:
            via = tainted.get(id(fn))
            if not via:
                continue
            if fn.name in ESCAPE_EXEMPT_FUNCTIONS:
                continue
            for m in TELEMETRY_GET_RE.finditer(fn.body):
                ctx.add(sf, fn.start + m.start(), "partition-escape",
                        f"telemetry() dereferenced in '{fn.name}' ({via}), "
                        f"which executes inside the event loop, where the "
                        f"shared registry takes no registration; go "
                        f"through PLANCK_TRACE/PLANCK_METRIC or capture "
                        f"the handle in register_metrics(), or allow with "
                        f"a rationale")
            for m in SET_TELEMETRY_RE.finditer(fn.body):
                ctx.add(sf, fn.start + m.start(), "partition-escape",
                        f"set_telemetry() inside '{fn.name}' ({via}): it "
                        f"adds a trace shard and registers gauges, which "
                        f"races every other partition from the event core; "
                        f"install telemetry before the run starts")


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
     "event-loop code synchronizes only through the engine's window "
     "barrier and boundary queues"),
]


def check_blocking_in_partition(ctx):
    """Blocking primitives in event-loop-reachable code (the taint walk
    from the scheduling sinks)."""
    paths = {sf.path for sf in ctx.files if sf.path.startswith("src/")}
    tainted = event_loop_taint(ctx, paths)
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
