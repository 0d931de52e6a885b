"""The REP001–REP010 invariant rules (``repro.devtools.rules``).

Each rule encodes one invariant DESIGN.md states in prose.  Rules are
path-scoped (see :class:`~repro.devtools.lint.Rule`), so the same code
fires on ``src/repro`` and on the fixture trees under
``tests/devtools/fixtures`` that mirror the scoped directory shapes.

| id     | invariant                                                        |
|--------|------------------------------------------------------------------|
| REP001 | lock order service → pool → session; no expensive build under a  |
|        | held ranked lock                                                 |
| REP002 | no blocking calls directly inside ``async def`` in serve/http,   |
|        | serve/fleet — hop to an executor                                 |
| REP003 | fault-point literals must come from the canonical registry; CLI  |
|        | ``--fault`` help and DESIGN.md must track it                     |
| REP004 | metric families ``repro_[a-z0-9_]+``; counters end ``_total``;   |
|        | no duplicate registration across metrics modules                 |
| REP005 | results stay JSON-native — no ``json.dumps(default=...)`` escape |
| REP006 | engine modules: no unordered set iteration feeding output, no    |
|        | unseeded module-level RNG, no wall-clock calls                   |
| REP007 | every ``except Exception`` carries ``# noqa: BLE001 - <reason>`` |
| REP008 | arrays serialized into the CacheStore use allowlisted dtypes     |
| REP009 | span names come from the ``repro.obs.names`` registry and match  |
|        | ``repro.[a-z0-9_.]+``; DESIGN.md's span taxonomy tracks the set  |
| REP010 | ``core/ctane.py`` stays integer-coded: no pattern objects         |
|        | (``WILDCARD``, ``is_wildcard``, ``pattern_leq``, ``PatternTuple``) |
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.devtools.lint import (
    FileContext,
    Finding,
    LintProject,
    Rule,
    call_name,
    dotted_name,
    keyword_arg,
    string_value,
)

__all__ = ["all_rules", "RULE_CLASSES"]


def _registry_fault_points() -> Tuple[str, ...]:
    """The canonical injection points, from the single source of truth."""
    try:
        from repro.serve.faults import FAULT_POINTS

        return tuple(FAULT_POINTS)
    except ImportError:  # pragma: no cover - repro.serve not importable
        return (
            "store.put",
            "store.get",
            "engine.level",
            "service.execute",
            "fleet.send",
            "fleet.poll",
        )


def _registry_span_names() -> Tuple[str, ...]:
    """The canonical span names, from the single source of truth."""
    try:
        from repro.obs.names import SPAN_NAMES

        return tuple(SPAN_NAMES)
    except ImportError:  # pragma: no cover - repro.obs not importable
        return (
            "repro.fleet.request",
            "repro.http.request",
            "repro.service.execute",
            "repro.pool.admit",
            "repro.store.put",
            "repro.engine.run",
        )


def _store_dtype_allowlist() -> frozenset:
    try:
        from repro.serve.store import ALLOWED_DTYPES

        return frozenset(ALLOWED_DTYPES)
    except ImportError:  # pragma: no cover - repro.serve not importable
        return frozenset(
            {"int8", "int16", "int32", "int64", "uint8", "uint16",
             "uint32", "uint64", "float32", "float64", "bool"}
        )


# --------------------------------------------------------------------- #
# REP001 — lock order
# --------------------------------------------------------------------- #
#: Substring hints mapping a lock owner (class or variable name, lowered)
#: to its rank.  Order matters: ``SessionPool`` must match ``pool`` before
#: ``session``.
_LOCK_OWNER_HINTS: Tuple[Tuple[str, int], ...] = (
    ("service", 10),
    ("pool", 20),
    ("profiler", 30),
    ("session", 30),
    ("provider", 40),
    ("difference", 40),
)

_RANK_LABELS = {10: "service", 20: "pool", 30: "session", 40: "provider"}

#: Ranks backed by a non-reentrant ``threading.Lock`` — nesting the *same*
#: lock is a self-deadlock, not a no-op.
_NON_REENTRANT_RANKS = frozenset({10})

#: Calls that are expensive builds / engine executions and must never run
#: under a held ranked lock (the build-outside-the-lock futures pattern).
_EXPENSIVE_CALLS = frozenset(
    {
        "run",
        "run_batch",
        "sweep",
        "execute",
        "mine_free_closed",
        "dump_caches",
        "warm_from",
        "load_all",
        "relation_fingerprint",
        "fingerprint",
        "run_engine",
    }
)


def _rank_from_owner(owner: str) -> Optional[int]:
    lowered = owner.lower()
    for hint, rank in _LOCK_OWNER_HINTS:
        if hint in lowered:
            return rank
    return None


class LockOrderRule(Rule):
    id = "REP001"
    name = "lock-order"
    summary = (
        "service -> pool -> session lock rank must never invert, and "
        "expensive builds must not run under a held ranked lock"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                class_name = node.name
            elif isinstance(node, ast.Module):
                class_name = ""
            else:
                continue
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._check_function(ctx, child, class_name, findings)
        return findings

    # -- per-function nesting walk ------------------------------------- #
    def _lock_rank(
        self, expr: ast.AST, class_name: str
    ) -> Optional[Tuple[int, str]]:
        """``(rank, expr_text)`` when ``expr`` is a recognizable ranked lock."""
        if not isinstance(expr, ast.Attribute):
            return None
        if "lock" not in expr.attr or expr.attr.endswith("lock_file"):
            return None
        if not expr.attr.startswith("_"):
            return None  # ``store.lock(...)`` style helpers are not locks
        base = expr.value
        if isinstance(base, ast.Name):
            owner = class_name if base.id == "self" else base.id
        elif isinstance(base, ast.Attribute):
            owner = base.attr
        else:
            return None
        rank = _rank_from_owner(owner)
        if rank is None:
            return None
        return rank, dotted_name(expr)

    def _check_function(
        self,
        ctx: FileContext,
        func: ast.AST,
        class_name: str,
        findings: List[Finding],
    ) -> None:
        held: List[Tuple[int, str]] = []

        def visit(node: ast.AST) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
                return  # nested defs run later, with their own stack
            if isinstance(node, (ast.With, ast.AsyncWith)):
                pushed = 0
                for item in node.items:
                    ranked = self._lock_rank(item.context_expr, class_name)
                    if ranked is None:
                        continue
                    rank, text = ranked
                    self._check_acquire(ctx, item.context_expr, rank, text, held, findings)
                    held.append((rank, text))
                    pushed += 1
                for child in node.body:
                    visit(child)
                del held[len(held) - pushed : len(held)]
                return
            if isinstance(node, ast.Call) and held:
                tail = call_name(node).rsplit(".", 1)[-1]
                if tail in _EXPENSIVE_CALLS:
                    locks = ", ".join(text for _, text in held)
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"expensive call '{call_name(node)}' under held "
                            f"lock(s) [{locks}]; build outside the lock "
                            "behind a per-key future instead",
                        )
                    )
            for child in ast.iter_child_nodes(node):
                visit(child)

        for statement in func.body:
            visit(statement)

    def _check_acquire(
        self,
        ctx: FileContext,
        node: ast.AST,
        rank: int,
        text: str,
        held: List[Tuple[int, str]],
        findings: List[Finding],
    ) -> None:
        if not held:
            return
        for held_rank, held_text in held:
            if held_text == text:
                if rank in _NON_REENTRANT_RANKS:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"non-reentrant {_RANK_LABELS.get(rank, rank)} "
                            f"lock '{text}' acquired while already held — "
                            "self-deadlock",
                        )
                    )
                return  # RLock re-entry is fine
        worst_rank, worst_text = max(held, key=lambda item: item[0])
        if worst_rank >= rank:
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"lock-order inversion: acquiring "
                    f"{_RANK_LABELS.get(rank, rank)} lock '{text}' while "
                    f"holding {_RANK_LABELS.get(worst_rank, worst_rank)} "
                    f"lock '{worst_text}'; the permitted order is "
                    "service -> pool -> session",
                )
            )


# --------------------------------------------------------------------- #
# REP002 — no blocking calls in async defs
# --------------------------------------------------------------------- #
_BLOCKING_DOTTED = frozenset(
    {
        "time.sleep",
        "socket.socket",
        "socket.create_connection",
        "socket.getaddrinfo",
        "os.system",
        "subprocess.run",
        "subprocess.Popen",
        "subprocess.check_call",
        "subprocess.check_output",
        "urllib.request.urlopen",
    }
)

#: Sync discovery entry points: calling these on a service/profiler object
#: from a coroutine runs an engine on the event loop.
_BLOCKING_SERVICE_TAILS = frozenset({"run", "run_batch", "sweep"})
_SERVICE_BASE_HINTS = ("service", "profiler", "session")


class NoBlockingInAsyncRule(Rule):
    id = "REP002"
    name = "no-blocking-in-async"
    summary = (
        "no blocking calls (sleep, sync I/O, sync discovery runs, "
        "Future.result) directly inside async def bodies in serve/http "
        "and serve/fleet"
    )
    scope = ("*/serve/http/*.py", "*/serve/fleet/*.py")

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            self._check_async_body(ctx, node, findings)
        return findings

    def _check_async_body(
        self, ctx: FileContext, func: ast.AsyncFunctionDef, findings: List[Finding]
    ) -> None:
        def visit(node: ast.AST) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
                return  # a nested def is not executed on the loop here
            if isinstance(node, ast.Call):
                self._check_call(ctx, func, node, findings)
            for child in ast.iter_child_nodes(node):
                visit(child)

        for statement in func.body:
            visit(statement)

    def _check_call(
        self,
        ctx: FileContext,
        func: ast.AsyncFunctionDef,
        node: ast.Call,
        findings: List[Finding],
    ) -> None:
        name = call_name(node)
        tail = name.rsplit(".", 1)[-1]
        blocking: Optional[str] = None
        if name in _BLOCKING_DOTTED:
            blocking = name
        elif name == "open":
            blocking = "open"
        elif tail == "result" and isinstance(node.func, ast.Attribute):
            blocking = f"{name}()"
        elif tail in _BLOCKING_SERVICE_TAILS and isinstance(node.func, ast.Attribute):
            base = dotted_name(node.func.value).rsplit(".", 1)[-1].lower()
            if any(hint in base for hint in _SERVICE_BASE_HINTS):
                blocking = name
        if blocking is not None:
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"blocking call '{blocking}' inside 'async def "
                    f"{func.name}' — hop to an executor "
                    "(loop.run_in_executor) or use the asyncio equivalent",
                )
            )


# --------------------------------------------------------------------- #
# REP003 — fault-point names
# --------------------------------------------------------------------- #
class FaultPointNamesRule(Rule):
    id = "REP003"
    name = "fault-point-names"
    summary = (
        "string literals reaching FaultPlan.visit() must be canonical "
        "fault points; --fault CLI help must reference FAULT_POINTS; "
        "DESIGN.md's failure-model table must list exactly that set"
    )

    def __init__(self) -> None:
        self.points = frozenset(_registry_fault_points())

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            self._check_visit(ctx, node, findings)
            self._check_fault_help(ctx, node, findings)
        return findings

    def _check_visit(
        self, ctx: FileContext, node: ast.Call, findings: List[Finding]
    ) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        tail = node.func.attr
        if tail == "visit":
            base = dotted_name(node.func.value).lower()
            if "fault" not in base and "plan" not in base:
                return  # an unrelated .visit() (e.g. an ast.NodeVisitor)
        elif tail != "_visit_fault":
            return
        if not node.args:
            return
        literal = string_value(node.args[0])
        if literal is None:
            return
        if any(wildcard in literal for wildcard in "*?["):
            return  # fnmatch patterns are rule specs, not visit points
        if literal not in self.points:
            expected = ", ".join(sorted(self.points))
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"fault point {literal!r} is not in the canonical "
                    f"registry ({expected}); import the FAULT_POINT_* "
                    "constant from repro.serve.faults",
                )
            )

    def _check_fault_help(
        self, ctx: FileContext, node: ast.Call, findings: List[Finding]
    ) -> None:
        if not ctx.posix.endswith("cli.py"):
            return
        if call_name(node).rsplit(".", 1)[-1] != "add_argument":
            return
        if not node.args or string_value(node.args[0]) != "--fault":
            return
        help_node = keyword_arg(node, "help")
        if help_node is None:
            findings.append(
                self.finding(ctx, node, "--fault has no help text")
            )
            return
        for sub in ast.walk(help_node):
            if isinstance(sub, ast.Name) and sub.id in (
                "FAULT_POINTS",
                "fault_points_help",
            ):
                return
            if isinstance(sub, ast.Attribute) and sub.attr in (
                "FAULT_POINTS",
                "fault_points_help",
            ):
                return
        findings.append(
            self.finding(
                ctx,
                node,
                "--fault help does not reference the canonical "
                "FAULT_POINTS registry (repro.serve.faults); build the "
                "point list from fault_points_help()",
            )
        )

    def finalize(self, project: LintProject) -> List[Finding]:
        design = self._find_design(project)
        if design is None:
            return []
        return self._check_design(design)

    @staticmethod
    def _find_design(project: LintProject):
        current = project.root.resolve()
        for _ in range(5):
            candidate = current / "DESIGN.md"
            if candidate.is_file():
                return candidate
            if current.parent == current:
                break
            current = current.parent
        return None

    def _check_design(self, design) -> List[Finding]:
        try:
            text = design.read_text(encoding="utf-8")
        except OSError:
            return []
        documented: Dict[str, int] = {}
        table_line = 0
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = re.match(r"^\|\s*`([a-z_]+\.[a-z_]+)`\s*\|", line)
            if match:
                documented.setdefault(match.group(1), lineno)
                table_line = table_line or lineno
        if not documented:
            return []  # no failure-model table in this DESIGN.md
        findings: List[Finding] = []
        for point in sorted(self.points - set(documented)):
            findings.append(
                Finding(
                    self.id,
                    design.as_posix(),
                    table_line or 1,
                    0,
                    f"canonical fault point {point!r} is missing from the "
                    "DESIGN.md failure-model table",
                )
            )
        for point, lineno in sorted(documented.items()):
            if point not in self.points:
                findings.append(
                    Finding(
                        self.id,
                        design.as_posix(),
                        lineno,
                        0,
                        f"DESIGN.md documents fault point {point!r} which "
                        "is not in the canonical registry",
                    )
                )
        return findings


# --------------------------------------------------------------------- #
# REP004 — metrics naming
# --------------------------------------------------------------------- #
_FAMILY_RE = re.compile(r"repro_[a-z0-9_]+")
_FAMILY_STRICT_RE = re.compile(r"^repro_[a-z0-9_]+$")
_METRIC_CTORS = {"Counter": "counter", "Gauge": "gauge", "Histogram": "histogram"}
_METRIC_KINDS = frozenset({"counter", "gauge", "histogram"})


class MetricsNamingRule(Rule):
    id = "REP004"
    name = "metrics-naming"
    summary = (
        "metric families match repro_[a-z0-9_]+, counters end _total, "
        "and no family is registered in two metrics modules"
    )
    scope = ("*metrics.py",)

    def __init__(self) -> None:
        self.declared: Dict[str, List[Tuple[str, int, Optional[str]]]] = {}

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            family: Optional[Tuple[str, Optional[str], ast.AST]] = None
            if isinstance(node, ast.Call):
                family = self._family_from_call(node)
            elif isinstance(node, ast.Tuple):
                family = self._family_from_tuple(node)
            elif isinstance(node, ast.Assign):
                family = self._family_from_assign(node)
            if family is None:
                continue
            name, kind, at = family
            self._record(ctx, name, kind, at, findings)
        return findings

    @staticmethod
    def _family_from_call(node: ast.Call):
        tail = call_name(node).rsplit(".", 1)[-1]
        if tail in _METRIC_CTORS and node.args:
            name = string_value(node.args[0])
            if name is not None:
                return name, _METRIC_CTORS[tail], node
        if tail == "render_family" and len(node.args) >= 2:
            name = string_value(node.args[0])
            kind = string_value(node.args[1])
            if name is not None and kind is not None:
                return name, kind, node
        return None

    @staticmethod
    def _family_from_tuple(node: ast.Tuple):
        names = []
        kinds = []
        for element in node.elts:
            value = string_value(element)
            if value is None:
                continue
            if value.startswith("repro_"):
                names.append(value)
            elif value in _METRIC_KINDS:
                kinds.append(value)
        if len(names) == 1 and len(kinds) == 1:
            return names[0], kinds[0], node
        return None

    @staticmethod
    def _family_from_assign(node: ast.Assign):
        value = string_value(node.value)
        if value is None or not value.startswith("repro_"):
            return None
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            return value, None, node
        return None

    def _record(
        self,
        ctx: FileContext,
        name: str,
        kind: Optional[str],
        node: ast.AST,
        findings: List[Finding],
    ) -> None:
        if not _FAMILY_STRICT_RE.match(name):
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"metric family {name!r} does not match "
                    "repro_[a-z0-9_]+",
                )
            )
        if kind == "counter" and not name.endswith("_total"):
            findings.append(
                self.finding(
                    ctx, node, f"counter family {name!r} must end in _total"
                )
            )
        if kind in ("gauge", "histogram") and name.endswith("_total"):
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"{kind} family {name!r} must not end in _total "
                    "(reserved for counters)",
                )
            )
        self.declared.setdefault(name, []).append(
            (ctx.posix, getattr(node, "lineno", 1), kind)
        )

    def finalize(self, project: LintProject) -> List[Finding]:
        findings: List[Finding] = []
        for name, sites in sorted(self.declared.items()):
            files = {path for path, _, _ in sites}
            if len(files) > 1:
                where = ", ".join(sorted(files))
                for path, line, _ in sites[1:]:
                    findings.append(
                        Finding(
                            self.id,
                            path,
                            line,
                            0,
                            f"metric family {name!r} is registered in "
                            f"multiple modules ({where}); one family, one "
                            "owner",
                        )
                    )
        return findings


# --------------------------------------------------------------------- #
# REP005 — JSON-native results
# --------------------------------------------------------------------- #
class JsonNativeRule(Rule):
    id = "REP005"
    name = "json-native"
    summary = (
        "no json.dumps(..., default=...) escape hatches; result payloads "
        "must be coerced through json_native before serialization"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            tail = call_name(node).rsplit(".", 1)[-1]
            if tail not in ("dumps", "dump"):
                continue
            if keyword_arg(node, "default") is None:
                continue
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"json.{tail}(..., default=...) hides non-JSON-native "
                    "payloads; coerce through json_native() instead",
                )
            )
        return findings


# --------------------------------------------------------------------- #
# REP006 — engine determinism
# --------------------------------------------------------------------- #
_RNG_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "betavariate",
        "expovariate",
    }
)
_NP_RNG_FUNCS = frozenset(
    {"rand", "randn", "randint", "choice", "shuffle", "permutation", "random"}
)
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
    }
)


class EngineDeterminismRule(Rule):
    id = "REP006"
    name = "determinism"
    summary = (
        "engine modules must not iterate unordered sets into output, "
        "call unseeded module-level RNGs, or order by wall-clock time"
    )
    scope = ("*/core/*.py", "*/fd/*.py", "*/itemsets/*.py", "*/cfd/*.py")

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                self._check_iter(ctx, node.iter, findings)
            elif isinstance(node, ast.comprehension):
                self._check_iter(ctx, node.iter, findings)
            elif isinstance(node, ast.Call):
                self._check_call(ctx, node, findings)
        return findings

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = call_name(node)
            return name in ("set", "frozenset")
        return False

    def _check_iter(
        self, ctx: FileContext, iter_node: ast.AST, findings: List[Finding]
    ) -> None:
        if self._is_set_expr(iter_node):
            findings.append(
                self.finding(
                    ctx,
                    iter_node,
                    "iteration over an unordered set expression in an "
                    "engine module; wrap it in sorted(...) so output order "
                    "is deterministic",
                )
            )

    def _check_call(
        self, ctx: FileContext, node: ast.Call, findings: List[Finding]
    ) -> None:
        name = call_name(node)
        if name in ("list", "tuple") and len(node.args) == 1 and self._is_set_expr(
            node.args[0]
        ):
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"{name}() over an unordered set expression in an "
                    "engine module; use sorted(...) instead",
                )
            )
            return
        parts = name.split(".")
        if len(parts) == 2 and parts[0] == "random" and parts[1] in _RNG_FUNCS:
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"unseeded module-level RNG call '{name}' in an engine "
                    "module; use a seeded random.Random(seed) instance",
                )
            )
            return
        if (
            len(parts) == 3
            and parts[0] in ("np", "numpy")
            and parts[1] == "random"
            and parts[2] in _NP_RNG_FUNCS
        ):
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"unseeded global numpy RNG call '{name}' in an engine "
                    "module; use np.random.default_rng(seed)",
                )
            )
            return
        if name in _WALL_CLOCK:
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"wall-clock call '{name}' in an engine module; engines "
                    "must not order or key anything by the clock "
                    "(time.perf_counter for duration stats is fine)",
                )
            )


# --------------------------------------------------------------------- #
# REP007 — broad-except hygiene
# --------------------------------------------------------------------- #
_NOQA_RE = re.compile(r"#\s*noqa:\s*BLE001\s*-\s*\S")


class BroadExceptRule(Rule):
    id = "REP007"
    name = "broad-except"
    summary = (
        "every 'except Exception' (and bare 'except:') must carry the "
        "'# noqa: BLE001 - <reason>' justification on the same line"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "bare 'except:' — catch a narrow exception type "
                        "(a bare except even swallows KeyboardInterrupt)",
                    )
                )
                continue
            if not self._is_broad(node.type):
                continue
            if _NOQA_RE.search(ctx.line_text(node.lineno)):
                continue
            findings.append(
                self.finding(
                    ctx,
                    node,
                    "'except Exception' without the required "
                    "'# noqa: BLE001 - <reason>' justification; narrow the "
                    "exception type or justify the breadth",
                )
            )
        return findings

    @staticmethod
    def _is_broad(type_node: ast.AST) -> bool:
        if isinstance(type_node, ast.Name) and type_node.id == "Exception":
            return True
        if isinstance(type_node, ast.Tuple):
            return any(
                isinstance(el, ast.Name) and el.id == "Exception"
                for el in type_node.elts
            )
        return False


# --------------------------------------------------------------------- #
# REP008 — store dtype allowlist
# --------------------------------------------------------------------- #
class StoreDtypeRule(Rule):
    id = "REP008"
    name = "store-dtype"
    summary = (
        "arrays serialized into CacheStore entries must use allowlisted "
        "dtypes (the store rejects anything else on load)"
    )

    def __init__(self) -> None:
        self.allowlist = _store_dtype_allowlist()

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._serializes_to_store(node):
                continue
            self._check_dtypes(ctx, node, findings)
        return findings

    @staticmethod
    def _serializes_to_store(func: ast.AST) -> bool:
        if func.name.startswith("pack_"):
            return True
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if not name.endswith(".put"):
                continue
            base = name.rsplit(".", 2)[-2].lower()
            if "store" in base:
                return True
        return False

    @staticmethod
    def _dtype_literal(node: ast.AST) -> Optional[str]:
        value = string_value(node)
        if value is not None:
            return value
        if isinstance(node, ast.Attribute):
            base = dotted_name(node.value)
            if base in ("np", "numpy"):
                return node.attr
        return None

    def _check_dtypes(
        self, ctx: FileContext, func: ast.AST, findings: List[Finding]
    ) -> None:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            candidates: List[ast.AST] = []
            dtype_kw = keyword_arg(node, "dtype")
            if dtype_kw is not None:
                candidates.append(dtype_kw)
            if (
                call_name(node).rsplit(".", 1)[-1] == "astype"
                and node.args
            ):
                candidates.append(node.args[0])
            for candidate in candidates:
                literal = self._dtype_literal(candidate)
                if literal is None or literal in self.allowlist:
                    continue
                allowed = ", ".join(sorted(self.allowlist))
                findings.append(
                    self.finding(
                        ctx,
                        candidate,
                        f"dtype {literal!r} in a store-serialization path "
                        f"is outside the CacheStore allowlist ({allowed}); "
                        "the store would reject the entry on load",
                    )
                )


# --------------------------------------------------------------------- #
# REP009 — span names
# --------------------------------------------------------------------- #
_SPAN_NAME_RE = re.compile(r"^repro\.[a-z0-9_.]+$")
_SPAN_STARTERS = frozenset({"start_span", "start_trace"})
#: DESIGN.md span-taxonomy rows: ``| `repro.layer.op` | ... |``.  Span
#: names carry the ``repro.`` prefix, so fault-point rows never match.
_SPAN_ROW_RE = re.compile(r"^\|\s*`(repro\.[a-z0-9_.]+)`\s*\|")


class SpanNamesRule(Rule):
    id = "REP009"
    name = "span-names"
    summary = (
        "start_span/start_trace sites must pass a SPAN_* constant from the "
        "repro.obs.names registry (never an inline literal); SPAN_* "
        "constants match repro.[a-z0-9_.]+; DESIGN.md's span-taxonomy "
        "table must list exactly the registered set"
    )

    def __init__(self) -> None:
        self.names = frozenset(_registry_span_names())

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                self._check_start(ctx, node, findings)
            elif isinstance(node, ast.Assign):
                self._check_constant(ctx, node, findings)
        return findings

    def _check_start(
        self, ctx: FileContext, node: ast.Call, findings: List[Finding]
    ) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in _SPAN_STARTERS:
            return
        if not node.args:
            return
        literal = string_value(node.args[0])
        if literal is None:
            return  # a SPAN_* constant (or dynamic passthrough) — fine
        if literal in self.names:
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"span name {literal!r} passed as an inline literal; "
                    "import the SPAN_* constant from repro.obs.names so the "
                    "registry stays the single source of truth",
                )
            )
        else:
            expected = ", ".join(sorted(self.names))
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"span name {literal!r} is not in the canonical "
                    f"registry ({expected}); add it to repro.obs.names "
                    "and use the constant",
                )
            )

    def _check_constant(
        self, ctx: FileContext, node: ast.Assign, findings: List[Finding]
    ) -> None:
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return
        target = node.targets[0].id
        if not target.startswith("SPAN_"):
            return
        value = string_value(node.value)
        if value is None:
            return  # SPAN_NAMES tuple (or similar aggregate) — not a name
        if not _SPAN_NAME_RE.match(value):
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"span constant {target} = {value!r} does not match "
                    "repro.[a-z0-9_.]+ (layer-dotted lowercase)",
                )
            )

    def finalize(self, project: LintProject) -> List[Finding]:
        design = FaultPointNamesRule._find_design(project)
        if design is None:
            return []
        try:
            text = design.read_text(encoding="utf-8")
        except OSError:
            return []
        documented: Dict[str, int] = {}
        table_line = 0
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = _SPAN_ROW_RE.match(line)
            if match:
                documented.setdefault(match.group(1), lineno)
                table_line = table_line or lineno
        if not documented:
            return []  # no span-taxonomy table in this DESIGN.md
        findings: List[Finding] = []
        for name in sorted(self.names - set(documented)):
            findings.append(
                Finding(
                    self.id,
                    design.as_posix(),
                    table_line or 1,
                    0,
                    f"registered span name {name!r} is missing from the "
                    "DESIGN.md span-taxonomy table",
                )
            )
        for name, lineno in sorted(documented.items()):
            if name not in self.names:
                findings.append(
                    Finding(
                        self.id,
                        design.as_posix(),
                        lineno,
                        0,
                        f"DESIGN.md documents span name {name!r} which is "
                        "not in the repro.obs.names registry",
                    )
                )
        return findings


# --------------------------------------------------------------------- #
# REP010 — CTANE lattice encoding
# --------------------------------------------------------------------- #
_PATTERN_OBJECTS = frozenset({"WILDCARD", "is_wildcard", "pattern_leq", "PatternTuple"})


class EngineEncodingRule(Rule):
    id = "REP010"
    name = "engine-encoding"
    summary = (
        "core/ctane.py must not import or reference the pattern objects "
        "WILDCARD/is_wildcard/pattern_leq/PatternTuple: its lattice is "
        "integer-coded (-1 = wildcard) and decodes only via cfd_from_codes"
    )
    scope = ("*/core/ctane.py",)

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            for name in names:
                if name in _PATTERN_OBJECTS:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"pattern object {name!r} in the CTANE engine; "
                            "use WILDCARD_CODE and decode with cfd_from_codes",
                        )
                    )
        return findings


RULE_CLASSES = (
    LockOrderRule,
    NoBlockingInAsyncRule,
    FaultPointNamesRule,
    MetricsNamingRule,
    JsonNativeRule,
    EngineDeterminismRule,
    BroadExceptRule,
    StoreDtypeRule,
    SpanNamesRule,
    EngineEncodingRule,
)


def all_rules() -> List[Rule]:
    """Fresh instances of every REP rule (one lint run's worth of state)."""
    return [rule_class() for rule_class in RULE_CLASSES]
