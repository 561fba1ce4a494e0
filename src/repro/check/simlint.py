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
* **O-rules** — observability discipline: instrument hooks (tracer,
  telemetry, flight recorder, sanitizer, fault injector) that bypass
  their ``is not None`` guard and would fail on an uninstrumented run.

Every rule is a per-file check: :func:`lint_paths` lints each file on
its own, and the whole-repo result is the sorted union.

Suppression
-----------
Append ``# simlint: disable=D101`` (comma-separate several codes, or use
``all``) to the flagged line, or put ``# simlint: disable-file=D101``
anywhere in the file to suppress a code file-wide.  Suppressions should
carry a human reason on the same comment.  ``repro lint --debt`` lists
every suppression and fails on one without a reason, or one that names
a code no rule has (a typo suppresses nothing).

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
    Rule("O301", "unguarded-instrument-hook",
         "read the instrument (`x = self.sim.<slot>`) and guard its hooks "
         "with `if x is not None:`"),
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

# O301: each instrument's hook methods, keyed by the name its receiver
# goes by (``tracer``, ``self.sim.telemetry``, ``san``, ...).  Every
# instrument is a simulator slot that is None when off, so a hook call
# must sit under an ``if`` whose test names the same instrument (``if x
# is not None:`` or plain truthiness).  end_span is exempt: it runs under
# ``if span is not None:``, and a span exists only when a tracer does.
_INSTRUMENT_HOOKS = {
    "tracer": frozenset({"begin_span", "instant", "message", "wrap",
                         "current_span_id"}),
    "telem": frozenset({"count", "observe"}),
    "recorder": frozenset({"note_event", "note_message", "dump"}),
    "san": frozenset({
        "note_send", "note_loss", "note_fault_drop",
        "note_fault_duplicate", "note_scheduled", "note_issued",
        "note_orphan_reply", "note_request", "note_request_cancelled",
        "note_request_replayed", "note_request_dropped_in_progress",
        "note_request_served"}),
    "fault": frozenset({"filter_message"}),
}

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


def _hooked_instrument(func: ast.Attribute) -> Optional[str]:
    """The instrument a ``<receiver>.<hook>()`` call reaches, or ``None``.

    The receiver is matched by name: ``tracer.instant`` and
    ``self.sim.tracer.instant`` both reach the tracer.
    """
    value = func.value
    if isinstance(value, ast.Attribute):
        name = value.attr.lower()
    elif isinstance(value, ast.Name):
        name = value.id.lower()
    else:
        return None
    for instrument, hooks in _INSTRUMENT_HOOKS.items():
        if instrument in name and func.attr in hooks:
            return instrument
    return None


def _mentions(test: ast.expr, instrument: str) -> bool:
    """True when an ``if`` test inspects a name containing ``instrument``
    — an ``x is not None`` comparison or a plain truthiness check."""
    for sub in ast.walk(test):
        if isinstance(sub, ast.Attribute) and instrument in sub.attr.lower():
            return True
        if isinstance(sub, ast.Name) and instrument in sub.id.lower():
            return True
    return False


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

    def __init__(self, path: str, tree: ast.Module):
        self.path = path
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

        # O301: instrument hooks outside their `is not None` guard.
        instrument = (_hooked_instrument(node.func)
                      if isinstance(node.func, ast.Attribute) else None)
        if instrument is not None and not any(
                isinstance(ancestor, ast.If)
                and _mentions(ancestor.test, instrument)
                for ancestor in self._ancestors(node)):
            self._report(
                node, "O301",
                "%s hook %s() outside an `if %s is not None:` guard"
                % (instrument, node.func.attr, instrument))

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


def _collect(tree: ast.Module, path: str) -> List[Violation]:
    """All unsuppressed per-file findings for one parsed buffer."""
    linter = _Linter(path, tree)
    linter.visit(tree)
    found = list(linter.found)
    found.extend(_check_laundering(tree, path))
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


def lint_source(source: str, path: str = "<string>") -> List[Violation]:
    """Lint one source buffer; returns suppression-filtered violations."""
    tree = ast.parse(source, filename=path)
    by_line, file_wide = _parse_suppressions(source)
    out = _filter_suppressed(_collect(tree, path), by_line, file_wide)
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


def lint_paths(paths: Sequence[str]) -> List[Violation]:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    A file reached twice (say, as a path and under a listed directory)
    is linted once.
    """
    out: List[Violation] = []
    seen: Set[str] = set()
    for filename in _iter_py_files(paths):
        resolved = os.path.abspath(filename)
        if resolved in seen:
            continue
        seen.add(resolved)
        with open(filename, encoding="utf-8") as handle:
            source = handle.read()
        out.extend(lint_source(source, path=filename))
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

    @property
    def unknown_codes(self) -> Tuple[str, ...]:
        """The named codes that are not rules (``all`` is fine)."""
        return tuple(code for code in self.codes
                     if code != "all" and code not in RULES)

    @property
    def names_no_rule(self) -> bool:
        """True when the comment names no code, or a code no rule has:
        it then fails to suppress what its author meant it to."""
        return not self.codes or bool(self.unknown_codes)


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
    missing = stray = 0
    for sup in suppressions:
        reason = sup.reason or "NO REASON"
        if not sup.reason:
            missing += 1
        line = ("%s:%d: [%s] %s — %s"
                % (sup.path, sup.line, sup.scope,
                   ",".join(sup.codes) or "?", reason))
        if sup.names_no_rule:
            stray += 1
            line += " — NO SUCH RULE %s" % (
                ",".join(sup.unknown_codes) or "(no code)")
        lines.append(line)
    lines.append("simlint debt: %d suppression%s (%d without a reason, "
                 "%d naming no rule)"
                 % (len(suppressions),
                    "" if len(suppressions) == 1 else "s", missing, stray))
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
