"""Whole-program analysis: module/symbol tables, call graph, effects.

Where the per-file rules see one AST at a time, this module parses the
*whole* source tree into compact, JSON-serializable summaries and
answers cross-module questions:

* **symbol table** — every module, class, function and method, keyed
  by dotted qualname (``repro.virt.merged.MergedTrie.lookup``);
* **conservative call graph** — call sites resolved through import
  tables, ``self``, local constructor bindings and annotated
  parameters (unresolvable receivers get no edge rather than a guess);
* **effect summaries** — per-function flags with source locations:
  *calls unseeded random*, *calls wall-clock time*, *reads the
  environment*, *iterates a set*, *performs blocking I/O*, *mutates an
  attribute of a parameter*, *mutates module-level shared state*;
* **reachability** — ``reachable_from(qualname)`` plus
  ``effects_reachable_from`` used by the DET/CONC rule packs to walk
  from ``@register``-ed experiment entry points.

Summaries never hold AST nodes, so a parsed project can round-trip
through JSON: :class:`ProjectCache` keys each module summary by a
sha256 of its source and lets repeated lint invocations (the CI drift
gate runs the linter twice) skip re-extraction of unchanged files.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = [
    "Effect",
    "CallSite",
    "AttrMutation",
    "MetricUse",
    "SpanUse",
    "ObserveUse",
    "SubmitSite",
    "FunctionSummary",
    "ModuleSummary",
    "ProjectAnalysis",
    "ProjectCache",
    "build_project",
    "extract_module_summary",
    "module_name_for",
    "source_sha",
]

#: wall-clock calls that make cached experiment results lie
TIME_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: calls that block the event loop / do real I/O
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "socket.create_connection",
    "urllib.request.urlopen",
    "requests.get",
    "requests.post",
})

#: bare builtins that block (only when the name is not locally rebound)
BLOCKING_BUILTINS = frozenset({"open", "input"})

#: method names that block regardless of receiver type: file I/O helpers,
#: pipe/socket receives, and the CPU-bound trie walk of the serving tier
#: (an event loop hosting any of these stalls every connection; ``send``
#: and ``join`` stay out — too many innocent receivers share those names)
BLOCKING_METHODS = frozenset({
    "read_text",
    "read_bytes",
    "write_text",
    "write_bytes",
    "recv",
    "recv_bytes",
    "walk_batch",
})

#: method names that mutate their receiver in place
MUTATOR_METHODS = frozenset({
    "append",
    "add",
    "update",
    "extend",
    "insert",
    "remove",
    "discard",
    "pop",
    "popitem",
    "clear",
    "setdefault",
    "sort",
    "reverse",
})

#: ``numpy.random`` globals that are exempt from DET001
_NUMPY_RANDOM_OK = frozenset({"default_rng", "Generator", "SeedSequence"})

#: ``random`` module members that are exempt from DET001
_RANDOM_OK = frozenset({"Random", "SystemRandom", "seed", "getstate", "setstate"})

#: default-argument constructors that cannot cross a pickle boundary
_UNPICKLABLE_DEFAULTS = frozenset({
    "threading.Lock",
    "threading.RLock",
    "threading.Event",
    "threading.Condition",
    "threading.Semaphore",
    "open",
})


@dataclass
class Effect:
    """One observed side effect inside a function body."""

    kind: str  #: ``random`` | ``time`` | ``env`` | ``set_iter`` | ``blocking`` | ``global_mut``
    line: int
    col: int
    detail: str


@dataclass
class CallSite:
    """One call expression, kept in resolvable form."""

    name: str  #: bare callee name (``evaluate_scenario``, ``submit``)
    recv: str | None  #: dotted receiver chain (``self``, ``np.random``) or ``None``
    line: int
    col: int
    #: positional argument roots: the ``Name`` id when the argument is
    #: a plain name, else ``None`` (positions are preserved)
    arg_roots: list[str | None] = field(default_factory=list)
    #: keyword argument roots (same convention)
    kwarg_roots: dict[str, str] = field(default_factory=dict)


@dataclass
class AttrMutation:
    """A write through a name: ``root.attr = ...``, ``root[k] = ...`` ..."""

    root: str
    line: int
    col: int
    detail: str


@dataclass
class MetricUse:
    """A ``registry.counter/gauge/histogram("name", ...)`` registration."""

    kind: str
    name: str
    line: int
    col: int
    #: label names when statically known, ``None`` for dynamic label sets
    labels: list[str] | None = None


@dataclass
class SpanUse:
    """A ``tracer.span("name")`` call; f-strings become ``*`` wildcards."""

    pattern: str
    line: int
    col: int
    dynamic: bool = False


@dataclass
class ObserveUse:
    """A ``histogram.observe(<literal>)`` with a non-float literal."""

    line: int
    col: int
    literal: str


@dataclass
class SubmitSite:
    """A call handing a function to another worker.

    ``executor.submit(f, ...)`` / ``pool.map(f, ...)`` plus the sharded
    serving tier's two fan-out shapes: ``Process(target=f, ...)``
    (the callable and its defaults must pickle into the child) and
    ``loop.run_in_executor(pool, f, ...)``.
    """

    target: str | None  #: bare name of the submitted callable, if a plain name
    line: int
    col: int
    via: str  #: ``submit`` | ``map`` | ``process`` | ``run_in_executor``
    pool_class: str | None  #: constructor class of the receiver, when known


@dataclass
class FunctionSummary:
    """Everything the project rules need to know about one function."""

    qualname: str
    module: str
    localname: str
    line: int
    col: int
    is_async: bool = False
    enclosing_class: str | None = None
    decorators: list[str] = field(default_factory=list)
    #: first string argument of a ``@register("...")`` decorator
    entry_id: str | None = None
    params: list[str] = field(default_factory=list)
    param_annotations: dict[str, str] = field(default_factory=dict)
    #: local var -> bare class name it was constructed from
    constructed: dict[str, str] = field(default_factory=dict)
    calls: list[CallSite] = field(default_factory=list)
    effects: list[Effect] = field(default_factory=list)
    attr_mutations: list[AttrMutation] = field(default_factory=list)
    #: (param, line, reason) for defaults that cannot be pickled
    unpicklable_defaults: list[list] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """Extraction result for one module (JSON-serializable)."""

    module: str
    path: str
    sha: str = ""
    top_names: list[str] = field(default_factory=list)
    #: local name -> [kind, dotted target]; kind is ``module`` or ``symbol``
    imports: dict[str, list] = field(default_factory=dict)
    #: class name -> line
    classes: dict[str, int] = field(default_factory=dict)
    #: module-level name -> bare class name it was constructed from
    instances: dict[str, str] = field(default_factory=dict)
    #: localname ("f" or "Cls.m") -> summary
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    metric_uses: list[MetricUse] = field(default_factory=list)
    span_uses: list[SpanUse] = field(default_factory=list)
    observe_uses: list[ObserveUse] = field(default_factory=list)
    submit_sites: list[SubmitSite] = field(default_factory=list)

    def to_json(self) -> dict:
        """Plain-dict form (inverse of :meth:`from_json`)."""
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "ModuleSummary":
        """Rebuild a summary from :meth:`to_json` output."""
        summary = cls(module=data["module"], path=data["path"], sha=data["sha"])
        summary.top_names = list(data["top_names"])
        summary.imports = {k: list(v) for k, v in data["imports"].items()}
        summary.classes = dict(data["classes"])
        summary.instances = dict(data.get("instances", {}))
        summary.metric_uses = [MetricUse(**m) for m in data["metric_uses"]]
        summary.span_uses = [SpanUse(**s) for s in data["span_uses"]]
        summary.observe_uses = [ObserveUse(**o) for o in data["observe_uses"]]
        summary.submit_sites = [SubmitSite(**s) for s in data["submit_sites"]]
        for name, f in data["functions"].items():
            fn = FunctionSummary(
                qualname=f["qualname"],
                module=f["module"],
                localname=f["localname"],
                line=f["line"],
                col=f["col"],
                is_async=f["is_async"],
                enclosing_class=f["enclosing_class"],
                decorators=list(f["decorators"]),
                entry_id=f["entry_id"],
                params=list(f["params"]),
                param_annotations=dict(f["param_annotations"]),
                constructed=dict(f["constructed"]),
                calls=[CallSite(**c) for c in f["calls"]],
                effects=[Effect(**e) for e in f["effects"]],
                attr_mutations=[AttrMutation(**a) for a in f["attr_mutations"]],
                unpicklable_defaults=[list(u) for u in f["unpicklable_defaults"]],
            )
            summary.functions[name] = fn
        return summary


def source_sha(source: str) -> str:
    """Content key used by the parsed-project cache."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def module_name_for(display_path: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/virt/merged.py`` → ``repro.virt.merged``;
    ``tests/unit/test_trie.py`` → ``tests.unit.test_trie``;
    package ``__init__`` files collapse onto the package name.
    """
    parts = list(Path(display_path).parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return display_path
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or display_path


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _mutation_root(target: ast.AST) -> tuple[str, str] | None:
    """(root name, description) when ``target`` writes through a name."""
    node = target
    trail = ""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        trail = ("." + node.attr if isinstance(node, ast.Attribute) else "[...]") + trail
        node = node.value
    if isinstance(node, ast.Name) and trail:
        return node.id, node.id + trail
    return None


class _ModuleScan(ast.NodeVisitor):
    """First pass: imports, top-level names, class index."""

    def __init__(self, tree: ast.Module):
        self.imports: dict[str, list] = {}
        self.top_names: list[str] = []
        self.classes: dict[str, int] = {}
        self.instances: dict[str, str] = {}
        for stmt in tree.body:
            self._scan(stmt)

    def _scan(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                self.imports[local] = ["module", target]
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module is None or stmt.level:
                return
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                self.imports[local] = ["symbol", f"{stmt.module}.{alias.name}"]
        elif isinstance(stmt, ast.ClassDef):
            self.classes[stmt.name] = stmt.lineno
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        self.top_names.append(node.id)
            # module-level instance:  ESTIMATOR = ScenarioEstimator()
            if isinstance(stmt.value, ast.Call):
                name = _dotted(stmt.value.func)
                if name is not None:
                    bare = name.split(".")[-1]
                    if bare[:1].isupper():
                        for target in stmt.targets:
                            if isinstance(target, ast.Name):
                                self.instances[target.id] = bare
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            self.top_names.append(stmt.target.id)
        elif isinstance(stmt, (ast.If, ast.Try)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self._scan(child)


def _resolve_dotted(dotted: str, imports: dict[str, list]) -> str:
    """Resolve the first segment of a dotted chain through the import table."""
    head, _, rest = dotted.partition(".")
    entry = imports.get(head)
    if entry is None:
        return dotted
    resolved = entry[1]
    return f"{resolved}.{rest}" if rest else resolved


class _FunctionScan:
    """Second pass: per-function calls, effects and mutations."""

    def __init__(
        self,
        summary: FunctionSummary,
        imports: dict[str, list],
        top_names: set[str],
    ):
        self.fn = summary
        self.imports = imports
        self.top_names = top_names
        self.locals: set[str] = set(summary.params)
        self.globals_declared: set[str] = set()

    # -- helpers -------------------------------------------------------------

    def _full_call_name(self, recv: str | None, name: str) -> str:
        if recv is None:
            entry = self.imports.get(name)
            if entry is not None and name not in self.locals:
                return entry[1]
            return name
        if recv in ("self", "cls"):
            return f"{recv}.{name}"
        resolved = _resolve_dotted(recv, self.imports) if recv.split(".")[0] not in self.locals else recv
        return f"{resolved}.{name}"

    def _effect(self, kind: str, node: ast.AST, detail: str) -> None:
        self.fn.effects.append(
            Effect(kind=kind, line=node.lineno, col=node.col_offset, detail=detail)
        )

    # -- scan ----------------------------------------------------------------

    def scan(self, node: ast.AST) -> None:
        """Collect locals first (store contexts), then walk for facts."""
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                self.locals.add(child.id)
            elif isinstance(child, ast.Global):
                self.globals_declared.update(child.names)
        for child in ast.walk(node):
            self._visit(child)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            self._visit_call(node)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self._visit_assign(node)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                root = _mutation_root(target)
                if root:
                    self._record_mutation(root[0], node, f"del {root[1]}")
        elif isinstance(node, ast.For):
            self._check_set_iter(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                self._check_set_iter(gen.iter)
        elif isinstance(node, ast.Attribute):
            if _dotted(node) is not None:
                resolved = _resolve_dotted(_dotted(node), self.imports)
                if resolved == "os.environ":
                    self._effect("env", node, "reads os.environ")

    def _is_setish(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "set" and "set" not in self.locals and "set" not in self.imports:
                return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return self._is_setish(node.left) or self._is_setish(node.right)
        return False

    def _check_set_iter(self, iter_node: ast.AST) -> None:
        if self._is_setish(iter_node):
            self._effect(
                "set_iter",
                iter_node,
                "iteration order over a set is not deterministic; sort first",
            )

    def _record_mutation(self, root: str, node: ast.AST, detail: str) -> None:
        self.fn.attr_mutations.append(
            AttrMutation(root=root, line=node.lineno, col=node.col_offset, detail=detail)
        )
        if root in self.globals_declared or (
            root in self.top_names and root not in self.locals
        ) or (
            root in self.imports and root not in self.locals
        ):
            self._effect("global_mut", node, f"mutates module-level state '{detail}'")

    def _visit_assign(self, node: ast.Assign | ast.AugAssign | ast.AnnAssign) -> None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            root = _mutation_root(target)
            if root:
                self._record_mutation(root[0], node, f"{root[1]} = ...")
            elif isinstance(target, ast.Name) and (
                target.id in self.globals_declared
            ):
                self._effect("global_mut", node, f"assigns global '{target.id}'")
        # record constructor bindings:  x = SomeClass(...)
        value = getattr(node, "value", None)
        if isinstance(node, ast.Assign) and isinstance(value, ast.Call):
            cls = self._constructed_class(value)
            if cls:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.fn.constructed[target.id] = cls

    def _constructed_class(self, call: ast.Call) -> str | None:
        name = _dotted(call.func)
        if name is None:
            return None
        bare = name.split(".")[-1]
        return bare if bare[:1].isupper() else None

    def _visit_call(self, node: ast.Call) -> None:
        func = node.func
        recv: str | None = None
        name: str | None = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
            recv = _dotted(func.value)
            if recv is None and isinstance(func.value, ast.Subscript):
                recv = _dotted(func.value.value)
        if name is None:
            return

        arg_roots = [a.id if isinstance(a, ast.Name) else None for a in node.args]
        kwarg_roots = {
            kw.arg: kw.value.id
            for kw in node.keywords
            if kw.arg is not None and isinstance(kw.value, ast.Name)
        }
        self.fn.calls.append(
            CallSite(
                name=name,
                recv=recv,
                line=node.lineno,
                col=node.col_offset,
                arg_roots=arg_roots,
                kwarg_roots=kwarg_roots,
            )
        )

        full = self._full_call_name(recv, name)
        self._classify_call(node, full, recv, name)

        # mutation through a method:  root.attr.append(x), setattr(root, ...)
        if recv is not None and name in MUTATOR_METHODS:
            root = recv.split(".")[0]
            if root not in ("self", "cls"):
                self._record_mutation(root, node, f"{recv}.{name}(...)")
        if name == "setattr" and recv is None and node.args:
            if isinstance(node.args[0], ast.Name):
                self._record_mutation(
                    node.args[0].id, node, f"setattr({node.args[0].id}, ...)"
                )

    def _classify_call(
        self, node: ast.Call, full: str, recv: str | None, name: str
    ) -> None:
        if full in TIME_CALLS:
            self._effect("time", node, f"wall-clock call '{full}'")
        elif full == "os.getenv":
            self._effect("env", node, "reads os.getenv")
        elif full in BLOCKING_CALLS:
            self._effect("blocking", node, f"blocking call '{full}'")
        elif recv is None and name in BLOCKING_BUILTINS and name not in self.locals:
            self._effect("blocking", node, f"blocking call '{name}()'")
        elif name in BLOCKING_METHODS and recv is not None:
            self._effect("blocking", node, f"blocking call '.{name}()'")
        self._classify_random(node, full)

    def _classify_random(self, node: ast.Call, full: str) -> None:
        head, _, member = full.rpartition(".")
        if full.startswith("random.") and head == "random":
            if member not in _RANDOM_OK:
                self._effect("random", node, f"unseeded global random call '{full}'")
            elif member == "Random" and not node.args:
                self._effect("random", node, "unseeded random.Random()")
        elif full == "random.Random" and not node.args:
            self._effect("random", node, "unseeded random.Random()")
        elif head == "numpy.random":
            if member == "default_rng" and not (node.args or node.keywords):
                self._effect("random", node, "unseeded numpy.random.default_rng()")
            elif member not in _NUMPY_RANDOM_OK and member != "seed":
                self._effect("random", node, f"unseeded numpy global random call '{full}'")


def _scan_module_level_uses(
    tree: ast.Module, summary: ModuleSummary, metric_prefix: str
) -> None:
    """Metric/span/observe/submit sites anywhere in the module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # worker-process constructors submit their target across a
        # pickle boundary exactly like an executor does
        callee = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id
            if isinstance(func, ast.Name)
            else None
        )
        if callee == "Process":
            target = None
            for kw in node.keywords:
                if (
                    kw.arg == "target"
                    and isinstance(kw.value, ast.Name)
                ):
                    target = kw.value.id
            summary.submit_sites.append(
                SubmitSite(
                    target=target,
                    line=node.lineno,
                    col=node.col_offset,
                    via="process",
                    pool_class="Process",
                )
            )
            continue
        if not isinstance(func, ast.Attribute):
            continue
        attr = func.attr
        if attr in ("counter", "gauge", "histogram"):
            if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
                node.args[0].value, str
            ):
                metric_name = node.args[0].value
                if metric_name.startswith(metric_prefix):
                    labels = _extract_labels(node)
                    summary.metric_uses.append(
                        MetricUse(
                            kind=attr,
                            name=metric_name,
                            line=node.lineno,
                            col=node.col_offset,
                            labels=labels,
                        )
                    )
        elif attr == "span" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                summary.span_uses.append(
                    SpanUse(pattern=first.value, line=node.lineno, col=node.col_offset)
                )
            elif isinstance(first, ast.JoinedStr):
                parts = []
                for value in first.values:
                    if isinstance(value, ast.Constant):
                        parts.append(str(value.value))
                    else:
                        parts.append("*")
                summary.span_uses.append(
                    SpanUse(
                        pattern="".join(parts),
                        line=node.lineno,
                        col=node.col_offset,
                        dynamic=True,
                    )
                )
        elif attr == "observe" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and not isinstance(first.value, float):
                literal = type(first.value).__name__
                summary.observe_uses.append(
                    ObserveUse(line=node.lineno, col=node.col_offset, literal=literal)
                )
        elif attr in ("submit", "map"):
            target = None
            if node.args and isinstance(node.args[0], ast.Name):
                target = node.args[0].id
            recv = _dotted(func.value)
            summary.submit_sites.append(
                SubmitSite(
                    target=target,
                    line=node.lineno,
                    col=node.col_offset,
                    via=attr,
                    pool_class=recv,  # resolved to a constructor class later
                )
            )
        elif attr == "run_in_executor":
            # loop.run_in_executor(pool, f, *args): f is argument 1
            target = None
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Name):
                target = node.args[1].id
            summary.submit_sites.append(
                SubmitSite(
                    target=target,
                    line=node.lineno,
                    col=node.col_offset,
                    via="run_in_executor",
                    pool_class="executor",
                )
            )


def _extract_labels(node: ast.Call) -> list[str] | None:
    """Label names from a registration call, ``None`` when dynamic."""
    labels_node: ast.AST | None = None
    for kw in node.keywords:
        if kw.arg == "labels":
            labels_node = kw.value
    if labels_node is None and len(node.args) >= 3:
        labels_node = node.args[2]
    if labels_node is None:
        return []
    if isinstance(labels_node, (ast.Tuple, ast.List)):
        labels = []
        for element in labels_node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                labels.append(element.value)
            else:
                return None
        return labels
    return None


def _entry_id_from_decorator(dec: ast.expr) -> str | None:
    if isinstance(dec, ast.Call) and dec.args:
        first = dec.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    return None


def _default_reason(node: ast.expr) -> str | None:
    """Why a default argument cannot cross a pickle boundary, if it can't."""
    if isinstance(node, ast.Lambda):
        return "lambda default"
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        if name is not None and (
            name in _UNPICKLABLE_DEFAULTS or name.split(".")[-1] in ("Lock", "RLock")
        ):
            return f"'{name}(...)' default"
    return None


def extract_module_summary(
    display_path: str,
    tree: ast.Module,
    *,
    module: str | None = None,
    metric_prefix: str = "repro_",
) -> ModuleSummary:
    """Extract the JSON-serializable summary of one parsed module."""
    module = module or module_name_for(display_path)
    summary = ModuleSummary(module=module, path=display_path)
    scan = _ModuleScan(tree)
    summary.imports = scan.imports
    summary.top_names = sorted(set(scan.top_names))
    summary.classes = scan.classes
    summary.instances = scan.instances
    top_names = set(summary.top_names)

    def add_function(node: ast.FunctionDef | ast.AsyncFunctionDef, cls: str | None) -> None:
        localname = f"{cls}.{node.name}" if cls else node.name
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        if args.vararg:
            params.append(args.vararg.arg)
        if args.kwarg:
            params.append(args.kwarg.arg)
        fn = FunctionSummary(
            qualname=f"{module}.{localname}",
            module=module,
            localname=localname,
            line=node.lineno,
            col=node.col_offset,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            enclosing_class=cls,
        )
        fn.params = params
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.annotation is not None:
                ann = _dotted(arg.annotation)
                if ann:
                    fn.param_annotations[arg.arg] = ann.split(".")[-1]
        for dec in node.decorator_list:
            dec_name = _dotted(dec if not isinstance(dec, ast.Call) else dec.func)
            if dec_name:
                fn.decorators.append(dec_name.split(".")[-1])
                if dec_name.split(".")[-1] == "register":
                    fn.entry_id = _entry_id_from_decorator(dec)
        positional = [*args.posonlyargs, *args.args]
        for param, default in zip(positional[len(positional) - len(args.defaults):], args.defaults):
            reason = _default_reason(default)
            if reason:
                fn.unpicklable_defaults.append([param.arg, default.lineno, reason])
        for param, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                reason = _default_reason(default)
                if reason:
                    fn.unpicklable_defaults.append([param.arg, default.lineno, reason])
        walker = _FunctionScan(fn, scan.imports, top_names)
        for stmt in node.body:
            walker.scan(stmt)
        summary.functions[localname] = fn

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(stmt, None)
        elif isinstance(stmt, ast.ClassDef):
            for inner in stmt.body:
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add_function(inner, stmt.name)

    _scan_module_level_uses(tree, summary, metric_prefix)
    return summary


class ProjectCache:
    """Per-file summary cache keyed by source sha (JSON on disk)."""

    VERSION = 2  # v2: recv/walk_batch blocking; Process/run_in_executor submits

    def __init__(self, path: Path | None = None):
        self.path = path
        self._entries: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        if path is not None and path.is_file():
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
                if data.get("version") == self.VERSION:
                    self._entries = data.get("modules", {})
            except (OSError, ValueError):
                self._entries = {}

    def lookup(self, display_path: str, sha: str) -> ModuleSummary | None:
        """Cached summary for an unchanged file, else ``None``."""
        entry = self._entries.get(display_path)
        if entry is not None and entry.get("sha") == sha:
            self.hits += 1
            try:
                return ModuleSummary.from_json(entry["summary"])
            except (KeyError, TypeError):
                pass
        self.misses += 1
        return None

    def store(self, summary: ModuleSummary) -> None:
        """Record ``summary`` for its path."""
        self._entries[summary.path] = {"sha": summary.sha, "summary": summary.to_json()}

    def save(self) -> None:
        """Write the cache back to disk (no-op without a path)."""
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"version": self.VERSION, "modules": self._entries}
        self.path.write_text(json.dumps(payload), encoding="utf-8")


class ProjectAnalysis:
    """Symbol table + call graph + effect queries over module summaries."""

    def __init__(self, summaries: list[ModuleSummary], root: Path | None = None):
        self.root = root
        self.modules: dict[str, ModuleSummary] = {s.module: s for s in summaries}
        #: qualname -> FunctionSummary
        self.functions: dict[str, FunctionSummary] = {}
        #: bare class name -> [(module, class qualname)]
        self.classes: dict[str, list[str]] = {}
        for summary in summaries:
            for fn in summary.functions.values():
                self.functions[fn.qualname] = fn
            for cls in summary.classes:
                self.classes.setdefault(cls, []).append(f"{summary.module}.{cls}")
        self._edges: dict[str, list[tuple[str, CallSite]]] = {}
        self._reach_memo: dict[str, frozenset[str]] = {}
        for fn in self.functions.values():
            self._edges[fn.qualname] = self._resolve_calls(fn)
        self._mutated_params = self._compute_mutated_params()

    # -- resolution ----------------------------------------------------------

    def module_of(self, display_path: str) -> ModuleSummary | None:
        """Summary whose file is ``display_path``, if any."""
        for summary in self.modules.values():
            if summary.path == display_path:
                return summary
        return None

    def _lookup_symbol(self, dotted: str) -> FunctionSummary | None:
        """Resolve ``pkg.mod.fn`` / ``pkg.mod.Cls`` to a function summary."""
        fn = self.functions.get(dotted)
        if fn is not None:
            return fn
        # class constructor: resolve to __init__
        init = self.functions.get(f"{dotted}.__init__")
        if init is not None:
            return init
        # symbol re-exported through a package __init__ — try one re-resolve
        head, _, tail = dotted.rpartition(".")
        package = self.modules.get(head)
        if package is not None and tail in package.imports:
            return self._lookup_symbol(package.imports[tail][1])
        return None

    def _class_method(self, bare_class: str, method: str, prefer_module: str) -> str | None:
        candidates = self.classes.get(bare_class, [])
        ordered = sorted(candidates, key=lambda q: not q.startswith(prefer_module + "."))
        for qual in ordered:
            candidate = f"{qual}.{method}"
            if candidate in self.functions:
                return candidate
        return None

    def _resolve_calls(self, fn: FunctionSummary) -> list[tuple[str, CallSite]]:
        summary = self.modules[fn.module]
        edges: list[tuple[str, CallSite]] = []
        for call in fn.calls:
            target = self._resolve_one(fn, summary, call)
            if target is not None:
                edges.append((target, call))
        return edges

    def _resolve_one(
        self, fn: FunctionSummary, summary: ModuleSummary, call: CallSite
    ) -> str | None:
        recv, name = call.recv, call.name
        if recv is None:
            # local function or method-free call
            if name in summary.functions:
                return summary.functions[name].qualname
            entry = summary.imports.get(name)
            if entry is not None:
                resolved = self._lookup_symbol(entry[1])
                return resolved.qualname if resolved else None
            if name in summary.classes:
                init = f"{summary.module}.{name}.__init__"
                return init if init in self.functions else None
            return None
        head = recv.split(".")[0]
        if head in ("self", "cls") and fn.enclosing_class:
            candidate = f"{summary.module}.{fn.enclosing_class}.{name}"
            return candidate if candidate in self.functions else None
        if head in fn.constructed:
            return self._class_method(fn.constructed[head], name, summary.module)
        if head in fn.param_annotations:
            return self._class_method(fn.param_annotations[head], name, summary.module)
        entry = summary.imports.get(head)
        if entry is not None:
            dotted = _resolve_dotted(recv, summary.imports)
            resolved = self._lookup_symbol(f"{dotted}.{name}")
            if resolved is not None:
                return resolved.qualname
            # imported module-level instance:  from m import ESTIMATOR
            inst_cls = self._instance_class(dotted)
            if inst_cls is not None:
                return self._class_method(inst_cls, name, summary.module)
            return None
        if head in summary.instances:
            return self._class_method(summary.instances[head], name, summary.module)
        return None

    def _instance_class(self, dotted: str) -> str | None:
        """Class of a module-level instance named by ``pkg.mod.NAME``."""
        mod, _, inst = dotted.rpartition(".")
        owner = self.modules.get(mod)
        if owner is None:
            return None
        if inst in owner.instances:
            return owner.instances[inst]
        # re-exported through a package __init__
        if inst in owner.imports:
            return self._instance_class(owner.imports[inst][1])
        return None

    # -- queries -------------------------------------------------------------

    def callees(self, qualname: str) -> list[str]:
        """Direct resolved callees of ``qualname``."""
        return [target for target, _ in self._edges.get(qualname, [])]

    def call_edges(self, qualname: str) -> list[tuple[str, CallSite]]:
        """Resolved (callee qualname, call site) pairs for ``qualname``."""
        return list(self._edges.get(qualname, []))

    def reachable_from(self, qualname: str) -> frozenset[str]:
        """Functions transitively reachable from ``qualname`` (inclusive)."""
        memo = self._reach_memo.get(qualname)
        if memo is not None:
            return memo
        seen: set[str] = set()
        stack = [qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for target, _ in self._edges.get(current, []):
                if target not in seen:
                    stack.append(target)
        result = frozenset(seen)
        self._reach_memo[qualname] = result
        return result

    def effects_reachable_from(
        self, qualname: str, kinds: set[str] | None = None
    ) -> list[tuple[FunctionSummary, Effect]]:
        """(holder, effect) pairs over the reachable closure of ``qualname``."""
        out: list[tuple[FunctionSummary, Effect]] = []
        for reached in sorted(self.reachable_from(qualname)):
            fn = self.functions.get(reached)
            if fn is None:
                continue
            for effect in fn.effects:
                if kinds is None or effect.kind in kinds:
                    out.append((fn, effect))
        return out

    def entry_points(self, decorator: str = "register") -> list[FunctionSummary]:
        """Functions carrying ``@register`` (experiment entry points)."""
        return sorted(
            (fn for fn in self.functions.values() if decorator in fn.decorators),
            key=lambda fn: fn.qualname,
        )

    def mutated_params(self, qualname: str) -> frozenset[str]:
        """Parameter names ``qualname`` mutates, directly or via callees."""
        return self._mutated_params.get(qualname, frozenset())

    def _compute_mutated_params(self) -> dict[str, frozenset[str]]:
        direct: dict[str, set[str]] = {}
        for fn in self.functions.values():
            mutated = {m.root for m in fn.attr_mutations if m.root in fn.params}
            direct[fn.qualname] = mutated
        # propagate through calls that forward a param into a mutating callee
        for _ in range(20):
            changed = False
            for fn in self.functions.values():
                mine = direct[fn.qualname]
                for target, call in self._edges.get(fn.qualname, []):
                    callee = self.functions.get(target)
                    if callee is None:
                        continue
                    callee_mutated = direct.get(target, set())
                    if not callee_mutated:
                        continue
                    # positional forwarding (skip self for methods)
                    params = list(callee.params)
                    if callee.enclosing_class and params and params[0] in ("self", "cls"):
                        params = params[1:]
                    for pos, root in enumerate(call.arg_roots):
                        if root in fn.params and pos < len(params):
                            if params[pos] in callee_mutated and root not in mine:
                                mine.add(root)
                                changed = True
                    for kw, root in call.kwarg_roots.items():
                        if root in fn.params and kw in callee_mutated and root not in mine:
                            mine.add(root)
                            changed = True
            if not changed:
                break
        return {qual: frozenset(mutated) for qual, mutated in direct.items()}

    # -- aggregated site lists (used by OBS/CONC rules) ----------------------

    def metric_uses(self) -> list[tuple[ModuleSummary, MetricUse]]:
        """Every metric registration across the project."""
        return [
            (summary, use)
            for summary in sorted(self.modules.values(), key=lambda s: s.path)
            for use in summary.metric_uses
        ]

    def span_uses(self) -> list[tuple[ModuleSummary, SpanUse]]:
        """Every span start across the project."""
        return [
            (summary, use)
            for summary in sorted(self.modules.values(), key=lambda s: s.path)
            for use in summary.span_uses
        ]

    def observe_uses(self) -> list[tuple[ModuleSummary, ObserveUse]]:
        """Every non-float-literal ``observe`` call across the project."""
        return [
            (summary, use)
            for summary in sorted(self.modules.values(), key=lambda s: s.path)
            for use in summary.observe_uses
        ]

    def submit_sites(self) -> list[tuple[ModuleSummary, SubmitSite]]:
        """Every executor ``submit``/``map`` call across the project."""
        return [
            (summary, use)
            for summary in sorted(self.modules.values(), key=lambda s: s.path)
            for use in summary.submit_sites
        ]

    def resolve_in_module(self, summary: ModuleSummary, bare_name: str) -> FunctionSummary | None:
        """Resolve a bare function name as seen from ``summary``'s namespace."""
        if bare_name in summary.functions:
            return summary.functions[bare_name]
        entry = summary.imports.get(bare_name)
        if entry is not None:
            return self._lookup_symbol(entry[1])
        return None


def build_project(
    parsed: list[tuple[str, ast.Module, str]],
    *,
    root: Path | None = None,
    cache: ProjectCache | None = None,
    metric_prefix: str = "repro_",
) -> ProjectAnalysis:
    """Build a :class:`ProjectAnalysis` from (display_path, tree, source).

    With a ``cache``, unchanged files reuse their stored summaries and
    the cache is rewritten afterwards.
    """
    summaries: list[ModuleSummary] = []
    for display_path, tree, source in parsed:
        sha = source_sha(source)
        summary = cache.lookup(display_path, sha) if cache is not None else None
        if summary is None:
            summary = extract_module_summary(
                display_path, tree, metric_prefix=metric_prefix
            )
            summary.sha = sha
            if cache is not None:
                cache.store(summary)
        summaries.append(summary)
    if cache is not None:
        cache.save()
    return ProjectAnalysis(summaries, root=root)
