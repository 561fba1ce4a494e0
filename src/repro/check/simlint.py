"""simlint: a simulator-discipline linter for this repository.

The paper's headline numbers are exact protocol message counts, so the
repo's core contract is byte-reproducible determinism.  Most regressions
that break that contract come from a handful of code shapes — wall-clock
reads, unseeded randomness, iteration over unordered collections, float
equality on the simulated clock, or simulator processes that mishandle
events and resources.  ``simlint`` is a small AST pass (stdlib :mod:`ast`
only) that flags exactly those shapes.

Rule families
-------------
* **D-rules** — determinism hazards: anything that could make two runs of
  the same seed diverge.
* **P-rules** — simulator process discipline: misuse of the
  generator-coroutine protocol of :mod:`repro.sim`.
* **O-rules** — observability discipline: tracer hooks that bypass the
  zero-cost ``NULL_TRACER`` pattern and would perturb untraced timing.
* **S-rules** — shard safety: the static twin of the S4xx runtime
  sanitizers; cross-shard effects that bypass ``ShardedTransport``,
  delays that can land below a shard pair's conservative lookahead, and
  merge keys that drop the ``(when, src_shard, src_seq)`` tie-breakers.
* **M-rules** — protocol state-machines: declarative op-order specs
  (:mod:`repro.check.statemachine`) checked against the MC/S CmdSN
  scheduler, the pNFS layout router, and the NFS replay-semantics table.

Whole-program mode
------------------
:func:`lint_paths` builds a cross-module symbol graph
(:mod:`repro.check.graph`) over the whole lint run and layers three
interprocedural passes (:mod:`repro.check.dataflow`) on top of the
per-file scan: D101/D102 taint that flows through helper functions into
sim-visible sinks, O301–O303 guard inference across function boundaries
(a helper whose every call site is guarded is clean), and S503 named
sort keys resolved in other modules.  :func:`lint_source` stays the
fast single-buffer entry point.

Suppression
-----------
Append ``# simlint: disable=D101`` (comma-separate several codes, or use
``all``) to the flagged line, or put ``# simlint: disable-file=D101``
anywhere in the file to suppress a code file-wide.  Suppressions should
carry a human reason on the same comment.

Entry points: :func:`lint_source` for one buffer, :func:`lint_paths` for
files/directory trees, and ``repro lint`` on the command line.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Rule",
    "RULES",
    "Violation",
    "Suppression",
    "lint_source",
    "lint_paths",
    "lint_program",
    "collect_suppressions",
    "format_text",
    "format_json",
    "format_debt",
]


@dataclass(frozen=True)
class Rule:
    """One lint rule: a stable code, a name, and a one-line fix hint."""

    code: str
    name: str
    hint: str


_RULE_LIST = (
    Rule("D101", "wall-clock-call",
         "use the simulated clock (sim.now) instead of host time"),
    Rule("D102", "unseeded-random",
         "thread an explicitly seeded random.Random(seed) through"),
    Rule("D103", "unordered-iteration",
         "iterate sorted(...) so visit order is deterministic"),
    Rule("D104", "float-time-equality",
         "avoid ==/!= on simulated time; compare events or use tolerances"),
    Rule("P201", "non-generator-process",
         "process functions must yield; use yield/yield from inside"),
    Rule("P202", "unreleased-acquire",
         "follow acquire() with try/finally release(), or call use()"),
    Rule("P203", "dropped-sim-result",
         "the result must be yielded from (or yielded, or assigned)"),
    Rule("O301", "unguarded-tracer-hook",
         "guard tracer calls with `if tracer.enabled:` (NULL_TRACER pattern)"),
    Rule("O302", "unguarded-telemetry-hook",
         "guard telemetry pushes with `if telem is not None:` (opt-in layer)"),
    Rule("O303", "unguarded-recorder-hook",
         "guard flight-recorder hooks with `if recorder is not None:` "
         "(opt-in layer)"),
    Rule("S501", "cross-shard-direct-access",
         "route cross-shard effects through ShardedTransport/Shard.post(); "
         "never touch another shard's calendar or ports directly"),
    Rule("S502", "post-below-lookahead",
         "derive the cross-shard delay from the link latency/lookahead "
         "so it cannot land below the pair's conservative horizon"),
    Rule("S503", "nondeterministic-merge-key",
         "merge shard messages by (when, src_shard, src_seq); a bare "
         ".when key makes equal-time order executor-dependent"),
    Rule("M601", "cmdsn-discipline",
         "keep CmdSN allocation monotonic (issue order, before the first "
         "yield) and completion in-order behind the _next_done gate"),
    Rule("M602", "layout-before-io",
         "resolve the pNFS layout (_home/_at_home/_route_fd) before "
         "touching a self.clients connection"),
    Rule("M603", "replay-table-coverage",
         "keep one try/except handler per replay-semantics table row "
         "(EEXIST on replayed CREATE/MKDIR, ENOENT on REMOVE/RMDIR/RENAME)"),
)

RULES: Dict[str, Rule] = {rule.code: rule for rule in _RULE_LIST}


@dataclass(frozen=True)
class Violation:
    """One finding: where it is, which rule, and what was seen."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def hint(self) -> str:
        return RULES[self.code].hint


# -- rule tables --------------------------------------------------------------

# D101: dotted call targets that read the host clock.
_WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "date.today", "datetime.date.today",
})

# D102: module-level random functions (the implicit global Mersenne
# Twister, seeded from the OS — never reproducible across runs).
_GLOBAL_RNG_FNS = frozenset({
    "random", "randint", "randrange", "randbytes", "getrandbits",
    "choice", "choices", "shuffle", "sample", "uniform", "triangular",
    "betavariate", "expovariate", "gammavariate", "gauss",
    "lognormvariate", "normalvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "seed",
})

# P203: simulator calls whose *result* must be yielded (from).  A bare
# expression statement discards it: for a factory (timeout, event) the
# call then does nothing, and for an eager call (use, acquire,
# read_range, write_range) it acts without the process waiting, so the
# process is resumed later unbidden or runs ahead of its I/O.  ``read``
# and ``write`` are left out: they would flag file objects.
_SIM_RESULT_CALLS = frozenset({
    "timeout", "event", "any_of", "all_of", "acquire", "use",
    "hold", "park", "read_range", "write_range",
})

# P201: the entry points that turn a generator into a process.
_PROCESS_ENTRY_POINTS = frozenset({"spawn", "run_process", "run"})

# O301: tracer methods that must stay behind the `.enabled` guard.
# end_span is excluded: `end_span(None)` is the documented safe no-op.
_TRACER_HOOKS = frozenset({"begin_span", "instant", "message", "sample"})

# O302: telemetry push hooks.  Unlike the tracer there is no null object:
# the disabled layer is the attribute being None, so every push must sit
# under an `if telem is not None:` (or truthiness) check.
_TELEM_HOOKS = frozenset({"count", "observe"})

# O303: flight-recorder hooks (repro.obs.explain.FlightRecorder).  Same
# opt-in contract as telemetry: the disabled layer is the attribute being
# None, so every hook must sit under an `if recorder is not None:` check.
_RECORDER_HOOKS = frozenset({"note_event", "note_message", "dump"})

# S501: shard-internal state that only the owning shard may mutate.
# Reaching it through a subscript of a shard collection (`shards[i]`)
# is the static shape of a cross-shard write bypassing ShardedTransport.
_SHARD_INTERNAL = frozenset({
    "sim", "outbox", "ports", "pending", "inbox", "calendar",
})
_SHARD_MUTATORS = frozenset({
    "schedule_at", "schedule", "append", "extend", "add", "insert",
    "push", "update", "setdefault", "pop", "remove", "clear",
})
# The sharded kernel itself owns this state and is exempt from S501.
_SHARD_KERNEL_MODULE = "repro.sim.shard"

# S502: names that tie a cross-shard delay to the link's conservative
# horizon; a delay expression mentioning none of these (or a bare
# literal) can land below the pair's lookahead.
_DELAY_SOURCES = ("delay", "latency", "lookahead", "rtt")

_DISABLE_LINE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9,\s]+)")
_DISABLE_FILE = re.compile(r"#\s*simlint:\s*disable-file=([A-Za-z0-9,\s]+)")
_CODE_TOKEN = re.compile(r"^(?:[A-Z]\d{3}|all)$")


def _codes_in(blob: str) -> Set[str]:
    """The leading rule codes of a disable comment's value.

    The value may be followed by a free-text reason on the same comment
    (``# simlint: disable=D101 -- wall progress meter``); only tokens
    shaped like codes (or ``all``) count.
    """
    codes: Set[str] = set()
    for token in re.split(r"[,\s]+", blob.strip()):
        if not token:
            continue
        if _CODE_TOKEN.match(token):
            codes.add(token)
        else:
            break  # the reason starts here
    return codes


def _parse_suppressions(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Per-line and file-wide suppressed codes from magic comments."""
    by_line: Dict[int, Set[str]] = {}
    file_wide: Set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _DISABLE_LINE.search(line)
        if match:
            by_line.setdefault(lineno, set()).update(
                _codes_in(match.group(1)))
        match = _DISABLE_FILE.search(line)
        if match:
            file_wide.update(_codes_in(match.group(1)))
    return by_line, file_wide


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as a string for Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_unordered(expr: ast.AST) -> bool:
    """True when iterating ``expr`` visits elements in no defined order."""
    # Unwrap order-preserving wrappers so `list(set(...))` still flags.
    while (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
           and expr.func.id in ("list", "tuple", "enumerate", "reversed")
           and expr.args):
        expr = expr.args[0]
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id in ("set", "frozenset")):
        return True
    return False


_ORDER_WRAPPERS = ("list", "tuple", "enumerate", "reversed")
_DICT_VIEWS = frozenset({"keys", "values", "items"})

# Consumers whose result does not depend on iteration order: a
# comprehension fed straight into one of these is deterministic even
# when it iterates a set.
_ORDER_INSENSITIVE = frozenset({
    "sorted", "set", "frozenset", "len", "any", "all", "max", "min",
})


def _unwrap_order(expr: ast.AST) -> ast.AST:
    """Strip order-preserving wrappers (list/tuple/enumerate/reversed)."""
    while (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
           and expr.func.id in _ORDER_WRAPPERS and expr.args):
        expr = expr.args[0]
    return expr


def _own_scope_stmts(scope: ast.AST) -> Iterable[ast.stmt]:
    """Statements of one scope in source order, skipping nested defs."""
    for field in ("body", "orelse", "finalbody"):
        for stmt in getattr(scope, field, ()):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            yield stmt
            yield from _own_scope_stmts(stmt)
    for handler in getattr(scope, "handlers", ()):
        for stmt in handler.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            yield stmt
            yield from _own_scope_stmts(stmt)


def _own_stmt_exprs(stmt: ast.stmt) -> Iterable[ast.AST]:
    """Expression subtrees attached to this statement itself (nested
    statements are visited separately by :func:`_own_scope_stmts`)."""
    for _field, value in ast.iter_fields(stmt):
        if isinstance(value, ast.expr):
            yield from ast.walk(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.expr):
                    yield from ast.walk(item)
                elif isinstance(item, ast.withitem):
                    yield from ast.walk(item.context_expr)


def _laundered_reason(expr: ast.AST, set_names: Set[str],
                      dict_names: Set[str]) -> Optional[str]:
    """Why iterating ``expr`` is unordered, given tracked locals."""
    expr = _unwrap_order(expr)
    if isinstance(expr, ast.Name):
        if expr.id in set_names:
            return ("iterating %r, a set laundered through a local; "
                    "visit order is nondeterministic" % expr.id)
        if expr.id in dict_names:
            return ("iterating dict %r built from a set; key order is "
                    "the set's nondeterministic order" % expr.id)
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in _DICT_VIEWS
            and isinstance(expr.func.value, ast.Name)
            and expr.func.value.id in dict_names):
        return ("iterating .%s() of dict %r built from a set; order is "
                "the set's nondeterministic order"
                % (expr.func.attr, expr.func.value.id))
    return None


def _launder_apply(stmt: ast.stmt, set_names: Set[str],
                   dict_names: Set[str]) -> None:
    """Track which locals hold set-ordered data after ``stmt`` runs."""
    if isinstance(stmt, ast.Assign):
        targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
        value = stmt.value
    elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name):
        targets = [stmt.target]
        value = stmt.value
    else:
        return
    if not targets or value is None:
        return
    unwrapped = _unwrap_order(value)
    is_set = _is_unordered(value) or (
        isinstance(unwrapped, ast.Name) and unwrapped.id in set_names)
    is_dict_from_set = False
    if isinstance(value, ast.DictComp) and value.generators:
        first = _unwrap_order(value.generators[0].iter)
        is_dict_from_set = _is_unordered(value.generators[0].iter) or (
            isinstance(first, ast.Name) and first.id in set_names)
    elif (isinstance(value, ast.Call)
            and _dotted(value.func) == "dict.fromkeys" and value.args):
        arg = _unwrap_order(value.args[0])
        is_dict_from_set = _is_unordered(value.args[0]) or (
            isinstance(arg, ast.Name) and arg.id in set_names)
    elif isinstance(value, ast.Name) and value.id in dict_names:
        is_dict_from_set = True
    for target in targets:
        set_names.discard(target.id)
        dict_names.discard(target.id)
        if is_set:
            set_names.add(target.id)
        elif is_dict_from_set:
            dict_names.add(target.id)


def _check_laundering(tree: ast.Module, path: str) -> List["Violation"]:
    """D103 through locals: ``s = set(...); for x in s`` and friends.

    A linear forward pass per scope tracks which locals hold a set (or a
    list copied from one, or a dict keyed by one) and flags iteration
    over them — the cases the purely syntactic check misses.
    """
    out: List[Violation] = []
    scopes: List[ast.AST] = [tree]
    scopes.extend(node for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)))
    for scope in scopes:
        set_names: Set[str] = set()
        dict_names: Set[str] = set()
        for stmt in _own_scope_stmts(scope):
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                reason = _laundered_reason(stmt.iter, set_names, dict_names)
                if reason is not None:
                    out.append(Violation(
                        path=path, line=stmt.iter.lineno,
                        col=stmt.iter.col_offset, code="D103",
                        message=reason))
            insensitive: Set[int] = set()
            for node in _own_stmt_exprs(stmt):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in _ORDER_INSENSITIVE):
                    insensitive.update(id(arg) for arg in node.args)
            for node in _own_stmt_exprs(stmt):
                if (isinstance(node, (ast.ListComp, ast.SetComp,
                                      ast.DictComp, ast.GeneratorExp))
                        and id(node) not in insensitive):
                    for comp in node.generators:
                        reason = _laundered_reason(
                            comp.iter, set_names, dict_names)
                        if reason is not None:
                            out.append(Violation(
                                path=path, line=comp.iter.lineno,
                                col=comp.iter.col_offset, code="D103",
                                message=reason))
            _launder_apply(stmt, set_names, dict_names)
    return out


def _mentions_now(expr: ast.AST) -> bool:
    """True when the subtree reads something called ``now`` (sim time)."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr == "now":
            return True
        if isinstance(node, ast.Name) and node.id == "now":
            return True
    return False


def _receiver_is_tracer(func: ast.Attribute) -> bool:
    """True for ``<...>tracer.<hook>()`` shaped receivers."""
    value = func.value
    if isinstance(value, ast.Attribute):
        name = value.attr
    elif isinstance(value, ast.Name):
        name = value.id
    else:
        return False
    return "tracer" in name.lower()


def _receiver_is_telem(func: ast.Attribute) -> bool:
    """True for ``<...>telem*.<hook>()`` shaped receivers."""
    value = func.value
    if isinstance(value, ast.Attribute):
        name = value.attr
    elif isinstance(value, ast.Name):
        name = value.id
    else:
        return False
    return "telem" in name.lower()


def _mentions_telem(test: ast.expr) -> bool:
    """True when an ``if`` test inspects a telem-ish name — either a
    ``x is not None`` comparison or a plain truthiness check."""
    for sub in ast.walk(test):
        if isinstance(sub, ast.Attribute) and "telem" in sub.attr.lower():
            return True
        if isinstance(sub, ast.Name) and "telem" in sub.id.lower():
            return True
    return False


def _receiver_is_recorder(func: ast.Attribute) -> bool:
    """True for ``<...>recorder.<hook>()`` shaped receivers."""
    value = func.value
    if isinstance(value, ast.Attribute):
        name = value.attr
    elif isinstance(value, ast.Name):
        name = value.id
    else:
        return False
    return "recorder" in name.lower()


def _mentions_recorder(test: ast.expr) -> bool:
    """True when an ``if`` test inspects a recorder-ish name."""
    for sub in ast.walk(test):
        if isinstance(sub, ast.Attribute) and "recorder" in sub.attr.lower():
            return True
        if isinstance(sub, ast.Name) and "recorder" in sub.id.lower():
            return True
    return False


def _receiver_name(value: ast.AST) -> Optional[str]:
    """The rightmost name of a call receiver (unwrapping a call chain)."""
    if isinstance(value, ast.Call):
        value = value.func
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


def _shard_internal_access(func: ast.Attribute) -> Optional[Tuple[str, str]]:
    """``(collection, attr)`` when a call reaches shard-internal state.

    Matches the S501 shape: a subscript of a shard-ish collection
    (``shards[i]``/``self.shards[dst]``) followed by one of the
    :data:`_SHARD_INTERNAL` attributes — another shard's calendar,
    ports, or outbox reached without going through the transport.
    """
    attrs: List[str] = []
    node = func.value
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Subscript):
        return None
    name = _receiver_name(node.value)
    if name is None or "shard" not in name.lower():
        return None
    internal = _SHARD_INTERNAL.intersection(attrs)
    if not internal:
        return None
    return name, sorted(internal)[0]


def _mentions_delay_source(expr: ast.AST) -> bool:
    """True when a delay expression ties itself to the link horizon."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute):
            name = node.attr.lower()
        elif isinstance(node, ast.Name):
            name = node.id.lower()
        else:
            continue
        if any(source in name for source in _DELAY_SOURCES):
            return True
    return False


def _lambda_key_fields(lam: ast.Lambda) -> Optional[frozenset]:
    """Attribute names a lambda sort key reads off its parameter."""
    if not lam.args.args:
        return None
    param = lam.args.args[0].arg
    fields = set()
    for node in ast.walk(lam.body):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == param):
            fields.add(node.attr)
    return frozenset(fields)


def _try_releases(try_node: ast.Try) -> bool:
    """True when the try's finalbody calls ``.release()`` on something."""
    for stmt in try_node.finalbody:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "release"):
                return True
    return False


class _Linter(ast.NodeVisitor):
    """Single-pass visitor; collects Violation records in ``found``."""

    def __init__(self, path: str, tree: ast.Module,
                 module: Optional[str] = None):
        self.path = path
        self.module = module
        self.found: List[Violation] = []
        # Parent links for ancestor queries (guards, try/finally shape).
        self.parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
        # Name -> "is any def under this name a generator?"  P201 refuses
        # to flag a name if at least one definition yields (methods on
        # different classes may share names).
        self.generator_defs: Dict[str, bool] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                is_gen = self._contains_yield(node)
                previous = self.generator_defs.get(node.name, False)
                self.generator_defs[node.name] = previous or is_gen

    @staticmethod
    def _receiver_runs_processes(func: ast.Attribute) -> bool:
        """Limit ``.run`` to simulator-ish receivers.

        ``spawn``/``run_process`` are unambiguous, but plenty of objects
        have a ``run`` method (ExperimentRunner, subprocess wrappers...);
        only flag it when the receiver is named like a simulator or a
        stack (``sim``, ``self.sim``, ``stack``, ...).
        """
        if func.attr != "run":
            return True
        value = func.value
        if isinstance(value, ast.Attribute):
            name = value.attr
        elif isinstance(value, ast.Name):
            name = value.id
        else:
            return False
        name = name.lower()
        return "sim" in name or "stack" in name

    @staticmethod
    def _contains_yield(func: ast.AST) -> bool:
        for node in ast.walk(func):
            if node is func:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue  # nested scopes don't make the outer a generator
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
        return False

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        self.found.append(Violation(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        ))

    def _ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    # -- call-shaped rules ----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func) if isinstance(
            node.func, (ast.Attribute, ast.Name)) else None

        # D101: wall-clock reads.
        if dotted in _WALLCLOCK_CALLS:
            self._report(node, "D101",
                         "wall-clock call %s() breaks determinism" % dotted)

        # D102: the implicit module-level RNG, or an unseeded instance.
        if dotted is not None:
            parts = dotted.split(".")
            if (len(parts) == 2 and parts[0] == "random"
                    and parts[1] in _GLOBAL_RNG_FNS):
                self._report(node, "D102",
                             "module-level %s() uses the global, "
                             "unseeded RNG" % dotted)
        if (dotted in ("random.Random", "Random") and not node.args
                and not node.keywords):
            self._report(node, "D102",
                         "Random() with no seed is seeded from the OS")

        # P201: spawning a locally defined non-generator as a process.
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _PROCESS_ENTRY_POINTS
                and node.args
                and self._receiver_runs_processes(node.func)):
            first = node.args[0]
            if (isinstance(first, ast.Call)
                    and isinstance(first.func, ast.Name)
                    and first.func.id in self.generator_defs
                    and not self.generator_defs[first.func.id]):
                self._report(
                    node, "P201",
                    "%s() given %s(), which never yields and so is "
                    "not a process" % (node.func.attr, first.func.id))

        # S501: another shard's internal state mutated directly.
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _SHARD_MUTATORS
                and self.module != _SHARD_KERNEL_MODULE):
            access = _shard_internal_access(node.func)
            if access is not None:
                collection, internal = access
                self._report(
                    node, "S501",
                    "%s[...].%s.%s() mutates shard-internal state across "
                    "the shard boundary, bypassing ShardedTransport"
                    % (collection, internal, node.func.attr))

        # S502: cross-shard post whose delay ignores the lookahead.
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "post"):
            receiver = _receiver_name(node.func.value)
            delay = None
            if len(node.args) >= 4:
                delay = node.args[3]
            else:
                for keyword in node.keywords:
                    if keyword.arg == "delay":
                        delay = keyword.value
            if (receiver is not None and "shard" in receiver.lower()
                    and delay is not None):
                if (isinstance(delay, ast.Constant)
                        and isinstance(delay.value, (int, float))
                        and not isinstance(delay.value, bool)):
                    self._report(
                        node, "S502",
                        "cross-shard post with literal delay %r can land "
                        "below the shard pair's lookahead" % (delay.value,))
                elif not _mentions_delay_source(delay):
                    self._report(
                        node, "S502",
                        "cross-shard post delay is not derived from the "
                        "link latency/lookahead")

        # S503: a sort key on shard messages that drops the tie-breakers.
        is_sort = (isinstance(node.func, ast.Attribute)
                   and node.func.attr == "sort")
        is_sorted = (isinstance(node.func, ast.Name)
                     and node.func.id == "sorted")
        if is_sort or is_sorted:
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                if not isinstance(keyword.value, ast.Lambda):
                    continue  # named keys: the whole-program pass
                fields = _lambda_key_fields(keyword.value)
                if (fields and "when" in fields
                        and not any("seq" in field for field in fields)):
                    self._report(
                        node, "S503",
                        "sort key orders messages by .when without a "
                        "sequence tie-breaker; equal-time merge order is "
                        "executor-dependent")

        # O301: tracer hooks outside the `.enabled` guard.
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _TRACER_HOOKS
                and _receiver_is_tracer(node.func)):
            guarded = False
            for ancestor in self._ancestors(node):
                if isinstance(ancestor, ast.If):
                    for sub in ast.walk(ancestor.test):
                        if (isinstance(sub, ast.Attribute)
                                and sub.attr == "enabled"):
                            guarded = True
                            break
                if guarded:
                    break
            if not guarded:
                self._report(
                    node, "O301",
                    "tracer.%s() outside an `if tracer.enabled:` guard"
                    % node.func.attr)

        # O302: telemetry pushes outside the `is not None` guard.
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _TELEM_HOOKS
                and _receiver_is_telem(node.func)):
            guarded = False
            for ancestor in self._ancestors(node):
                if (isinstance(ancestor, ast.If)
                        and _mentions_telem(ancestor.test)):
                    guarded = True
                    break
            if not guarded:
                self._report(
                    node, "O302",
                    "telemetry %s() outside an `if telem is not None:` "
                    "guard" % node.func.attr)

        # O303: flight-recorder hooks outside the `is not None` guard.
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _RECORDER_HOOKS
                and _receiver_is_recorder(node.func)):
            guarded = False
            for ancestor in self._ancestors(node):
                if (isinstance(ancestor, ast.If)
                        and _mentions_recorder(ancestor.test)):
                    guarded = True
                    break
            if not guarded:
                self._report(
                    node, "O303",
                    "flight-recorder %s() outside an `if recorder is "
                    "not None:` guard" % node.func.attr)

        self.generic_visit(node)

    # -- iteration-shaped rules ----------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if _is_unordered(node.iter):
            self._report(node.iter, "D103",
                         "iterating an unordered set; visit order is "
                         "nondeterministic")
        self.generic_visit(node)

    def _order_insensitive_context(self, node) -> bool:
        """True when the comprehension feeds sorted()/set()/len()/...

        The consumer's result is independent of visit order, so the
        unordered iteration cannot leak into observable state.
        """
        parent = self.parents.get(node)
        return (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in _ORDER_INSENSITIVE
                and node in parent.args)

    def _check_comprehension(self, node) -> None:
        if not self._order_insensitive_context(node):
            for comp in node.generators:
                if _is_unordered(comp.iter):
                    self._report(comp.iter, "D103",
                                 "comprehension iterates an unordered set")
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_SetComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension

    # -- comparison rules -----------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left] + list(node.comparators)
            if any(_mentions_now(operand) for operand in operands):
                self._report(node, "D104",
                             "exact ==/!= against simulated time (`now`) "
                             "is float-fragile")
        self.generic_visit(node)

    # -- statement-shaped rules ----------------------------------------------

    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        # P203: a bare statement call whose simulator result is dropped.
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in _SIM_RESULT_CALLS):
            self._report(node, "P203",
                         ".%s() result dropped; it must be yielded "
                         "from" % value.func.attr)
        # P202: `yield from x.acquire()` without a release path.
        if (isinstance(value, ast.YieldFrom)
                and isinstance(value.value, ast.Call)
                and isinstance(value.value.func, ast.Attribute)
                and value.value.func.attr == "acquire"):
            if not self._acquire_is_released(node):
                self._report(node, "P202",
                             "acquire() without try/finally release() "
                             "leaks a resource slot on error")
        self.generic_visit(node)

    def _acquire_is_released(self, stmt: ast.Expr) -> bool:
        # (a) Inside a try whose finalbody releases.
        for ancestor in self._ancestors(stmt):
            if isinstance(ancestor, ast.Try) and _try_releases(ancestor):
                return True
        # (b) Immediately followed by such a try in the same body.
        parent = self.parents.get(stmt)
        if parent is None:
            return False
        for field in ("body", "orelse", "finalbody"):
            body = getattr(parent, field, None)
            if isinstance(body, list) and stmt in body:
                index = body.index(stmt)
                if index + 1 < len(body):
                    after = body[index + 1]
                    if isinstance(after, ast.Try) and _try_releases(after):
                        return True
        return False


# -- public API ---------------------------------------------------------------


def _collect(tree: ast.Module, path: str,
             module: Optional[str] = None) -> List[Violation]:
    """All unsuppressed per-file findings for one parsed buffer."""
    linter = _Linter(path, tree, module=module)
    linter.visit(tree)
    found = list(linter.found)
    found.extend(_check_laundering(tree, path))
    if module is not None:
        from . import statemachine

        found.extend(statemachine.check_module(tree, path, module))
    return found


def _filter_suppressed(violations: Iterable[Violation],
                       by_line: Dict[int, Set[str]],
                       file_wide: Set[str]) -> List[Violation]:
    out = []
    for violation in violations:
        if violation.code in file_wide or "all" in file_wide:
            continue
        line_codes = by_line.get(violation.line, ())
        if violation.code in line_codes or "all" in line_codes:
            continue
        out.append(violation)
    return out


def lint_source(source: str, path: str = "<string>",
                module: Optional[str] = None) -> List[Violation]:
    """Lint one source buffer; returns suppression-filtered violations.

    ``module`` is the dotted module name, when known: it scopes the
    M6xx protocol state-machine specs (which only fire for their target
    modules) and the S501 kernel exemption.
    """
    tree = ast.parse(source, filename=path)
    by_line, file_wide = _parse_suppressions(source)
    out = _filter_suppressed(_collect(tree, path, module), by_line,
                             file_wide)
    out.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return out


def _iter_py_files(paths: Sequence[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in ("__pycache__", ".git"))
                files.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames) if name.endswith(".py"))
        else:
            files.append(path)
    return files


def lint_paths(paths: Sequence[str],
               program: bool = True) -> List[Violation]:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    By default the whole-program passes run on top of the per-file scan
    (``program=False`` restores the v1 per-file-only behaviour, used by
    the autofixer between passes).
    """
    files: List[str] = []
    seen: Set[str] = set()
    for filename in _iter_py_files(paths):
        resolved = os.path.abspath(filename)
        if resolved in seen:
            continue
        seen.add(resolved)
        files.append(filename)
    if program:
        return lint_program(files)
    from .graph import module_name_for

    out: List[Violation] = []
    for filename in files:
        with open(filename, encoding="utf-8") as handle:
            source = handle.read()
        out.extend(lint_source(source, path=filename,
                               module=module_name_for(filename)))
    out.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return out


def lint_program(files: Sequence[str]) -> List[Violation]:
    """Whole-program lint: per-file scan + graph-based passes.

    Pipeline: build the symbol graph once; run the per-file rules (with
    module names, so the M6xx specs fire); drop O3xx findings whose
    enclosing helper is guarded at every call site; add interprocedural
    D101/D102 taint flows and cross-module S503 sort keys; then apply
    each file's suppression comments to the merged result.
    """
    from . import dataflow
    from .graph import build_program

    graph = build_program(files)
    violations: List[Violation] = []
    seen_modules: Set[str] = set()
    for name in graph.order:
        if name in seen_modules:
            continue
        seen_modules.add(name)
        module = graph.modules[name]
        violations.extend(_collect(module.tree, module.path, module.name))
    violations = dataflow.drop_guarded_hook_violations(graph, violations)
    summaries = dataflow.compute_return_taints(graph)
    violations.extend(dataflow.find_taint_flows(graph, summaries))
    violations.extend(dataflow.find_sort_key_hazards(graph))

    suppressions = {
        module.path: _parse_suppressions(module.source)
        for module in graph.modules.values()
    }
    out: List[Violation] = []
    emitted: Set[Violation] = set()
    for violation in violations:
        parsed = suppressions.get(violation.path)
        if parsed is not None:
            kept = _filter_suppressed([violation], parsed[0], parsed[1])
            if not kept:
                continue
        if violation in emitted:
            continue
        emitted.add(violation)
        out.append(violation)
    out.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return out


def format_text(violations: Sequence[Violation]) -> str:
    """One ``path:line:col: CODE message (hint: ...)`` line per finding."""
    if not violations:
        return "simlint: clean"
    lines = [
        "%s:%d:%d: %s %s (hint: %s)"
        % (v.path, v.line, v.col, v.code, v.message, v.hint)
        for v in violations
    ]
    lines.append("simlint: %d violation%s"
                 % (len(violations), "" if len(violations) == 1 else "s"))
    return "\n".join(lines)


@dataclass(frozen=True)
class Suppression:
    """One ``# simlint: disable`` comment found in the tree."""

    path: str
    line: int
    scope: str            # "line" or "file"
    codes: Tuple[str, ...]
    reason: str           # "" when the comment carries no justification


def _split_codes_reason(blob: str, tail: str) -> Tuple[Tuple[str, ...], str]:
    """Leading code tokens, then everything else as the human reason."""
    words = [w for w in re.split(r"[,\s]+", blob.strip()) if w]
    codes: List[str] = []
    rest: List[str] = []
    for word in words:
        if not rest and _CODE_TOKEN.match(word):
            codes.append(word)
        else:
            rest.append(word)
    reason = " ".join(rest + ([tail.strip()] if tail.strip() else []))
    return tuple(codes), reason.strip(" \t-:;")


def collect_suppressions(paths: Sequence[str]) -> List[Suppression]:
    """Every real suppression comment under ``paths``.

    Uses :mod:`tokenize` rather than a line regex so magic comments
    inside string literals (lint-test fixtures) are not counted as
    live suppressions.
    """
    import io
    import tokenize

    out: List[Suppression] = []
    for filename in _iter_py_files(paths):
        with open(filename, encoding="utf-8") as handle:
            source = handle.read()
        try:
            tokens = list(tokenize.generate_tokens(
                io.StringIO(source).readline))
        except tokenize.TokenError:
            continue
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            for scope, pattern in (("file", _DISABLE_FILE),
                                   ("line", _DISABLE_LINE)):
                match = pattern.search(token.string)
                if match is None:
                    continue
                codes, reason = _split_codes_reason(
                    match.group(1), token.string[match.end():])
                out.append(Suppression(
                    path=filename, line=token.start[0], scope=scope,
                    codes=codes, reason=reason))
                break  # disable-file also matches nothing in _DISABLE_LINE
    out.sort(key=lambda s: (s.path, s.line))
    return out


def format_debt(suppressions: Sequence[Suppression]) -> str:
    """The ``repro lint --debt`` report: every suppression + reason."""
    if not suppressions:
        return "simlint debt: no suppressions"
    lines = []
    missing = 0
    for sup in suppressions:
        reason = sup.reason or "NO REASON"
        if not sup.reason:
            missing += 1
        lines.append("%s:%d: [%s] %s — %s"
                     % (sup.path, sup.line, sup.scope,
                        ",".join(sup.codes) or "?", reason))
    lines.append("simlint debt: %d suppression%s (%d without a reason)"
                 % (len(suppressions),
                    "" if len(suppressions) == 1 else "s", missing))
    return "\n".join(lines)


def format_json(violations: Sequence[Violation]) -> str:
    """Machine-readable report (the CI artifact format)."""
    document = {
        "tool": "simlint",
        "rules": {code: {"name": rule.name, "hint": rule.hint}
                  for code, rule in sorted(RULES.items())},
        "violations": [
            {"path": v.path, "line": v.line, "col": v.col,
             "code": v.code, "message": v.message}
            for v in violations
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)
