"""Project-wide call graph for the interprocedural flow passes.

The local rules in ``repro.checks.rules_*`` see one file at a time; the
flow passes (FLOW001 taint, CON001/CON002 contracts) need to know *who
calls whom* across the whole package.  This module builds that graph in
two stages, mirroring a classic separate-compilation linker:

1. **Extraction** (:func:`extract_module`) parses one file into a
   :class:`ModuleSummary` — every function with its outgoing
   :class:`CallRef`\\ s (alias-resolved dotted targets), every
   nondeterminism :class:`SourceInfo` found in its body, every class with
   its method table and base names, plus the file's ``# repro: noqa`` suppression map and its
   ``COLUMN_CONTRACTS`` findings.  Summaries are plain JSON-able dicts,
   which is what makes the ``.repro-cache`` warm path possible: an
   unchanged file is never re-parsed.
2. **Linking** (:class:`CallGraph.link`) resolves every ``CallRef``
   against the global symbol table: plain calls through import aliases
   and package re-exports (``repro.kernel.MemCg`` →
   ``repro.kernel.memcg.MemCg``), ``self.``/``cls.``/``super().`` method
   calls via a class scan over the inheritance chain, constructor calls
   to ``__init__``, and locally-typed receivers (``pool =
   MachinePagePool(...); pool.scan_all()``).

Anything that cannot be resolved becomes the **unknown callee** lattice
element: the edge is recorded as unresolved and contributes *no*
taint.  The lattice is therefore
``CLEAN ⊑ UNKNOWN ⊑ TAINTED`` with the analyzer reporting only provable
``TAINTED`` facts — conservative in the "no spurious findings" direction
a lint gate needs (a hazard hidden behind an unresolvable indirect call
is the price; the local DET rules still see it at its definition site).

Nested function bodies fold into their enclosing function: a closure's
calls and sources are attributed to the function that defines it.  That
over-approximates (the closure might never run) but never hides a hazard
behind a ``def``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.checks.core import LintError, _parse_suppressions

__all__ = [
    "CallGraph",
    "CallRef",
    "ClassInfo",
    "FunctionInfo",
    "ModuleSummary",
    "SourceInfo",
    "extract_module",
    "find_package_root",
    "iter_package_files",
    "module_name_for",
]

#: Bumped whenever the summary shape changes (invalidates caches).
SUMMARY_FORMAT_VERSION = 2

#: Wall-clock reads (mirrors DET001's catalogue).
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.today",
        "datetime.datetime.utcnow", "datetime.date.today",
    }
)

#: numpy legacy global-RNG entry points (mirrors DET002).
_NP_LEGACY_FNS = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "choice", "shuffle", "permutation", "bytes",
        "normal", "uniform", "poisson", "exponential", "beta", "gamma",
        "binomial", "standard_normal", "get_state", "set_state",
    }
)

_VIEW_METHODS = frozenset({"keys", "values", "items"})
_ORDERED_SINKS = frozenset({"append", "extend", "insert"})


@dataclass
class CallRef:
    """One outgoing call site, before linking.

    Attributes:
        target: alias-resolved dotted expression — an absolute dotted
            path for plain calls, ``self.<m>``/``cls.<m>`` for method
            calls on the instance, or ``<Class dotted>.<m>`` for calls
            on a locally-typed receiver.
        line: call-site line number.
        kind: ``plain`` | ``self`` | ``super``.
    """

    target: str
    line: int
    kind: str = "plain"

    def to_dict(self) -> Dict[str, object]:
        return {"target": self.target, "line": self.line, "kind": self.kind}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "CallRef":
        return cls(str(d["target"]), int(d["line"]), str(d["kind"]))  # type: ignore[arg-type]


@dataclass
class SourceInfo:
    """One nondeterminism source found directly in a function body."""

    kind: str  #: ``wall-clock`` | ``rng`` | ``environ`` | ``id`` | ``set-order``
    detail: str  #: human description, e.g. "wall-clock read `time.time()`"
    line: int

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "detail": self.detail, "line": self.line}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "SourceInfo":
        return cls(str(d["kind"]), str(d["detail"]), int(d["line"]))  # type: ignore[arg-type]


@dataclass
class FunctionInfo:
    """One function (or method) in the package."""

    qualname: str  #: ``pkg.mod.func`` or ``pkg.mod.Class.method``
    module: str
    rel_path: str  #: posix path relative to the *package root's parent*
    line: int
    class_name: Optional[str] = None  #: enclosing class qualname, if a method
    calls: List[CallRef] = field(default_factory=list)
    sources: List[SourceInfo] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[1]

    def to_dict(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "module": self.module,
            "rel_path": self.rel_path,
            "line": self.line,
            "class_name": self.class_name,
            "calls": [c.to_dict() for c in self.calls],
            "sources": [s.to_dict() for s in self.sources],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "FunctionInfo":
        return cls(
            qualname=str(d["qualname"]),
            module=str(d["module"]),
            rel_path=str(d["rel_path"]),
            line=int(d["line"]),  # type: ignore[arg-type]
            class_name=d.get("class_name"),  # type: ignore[arg-type]
            calls=[CallRef.from_dict(c) for c in d["calls"]],  # type: ignore[union-attr]
            sources=[SourceInfo.from_dict(s) for s in d["sources"]],  # type: ignore[union-attr]
        )


@dataclass
class ClassInfo:
    """One class: method table and bases."""

    qualname: str
    module: str
    rel_path: str
    line: int
    bases: List[str] = field(default_factory=list)  #: resolved dotted names
    methods: Dict[str, str] = field(default_factory=dict)  #: name -> fn qualname

    def to_dict(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "module": self.module,
            "rel_path": self.rel_path,
            "line": self.line,
            "bases": self.bases,
            "methods": self.methods,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ClassInfo":
        return cls(
            qualname=str(d["qualname"]),
            module=str(d["module"]),
            rel_path=str(d["rel_path"]),
            line=int(d["line"]),  # type: ignore[arg-type]
            bases=list(d["bases"]),  # type: ignore[arg-type]
            methods=dict(d["methods"]),  # type: ignore[arg-type]
        )


@dataclass
class ModuleSummary:
    """Everything the linker needs to know about one file."""

    module: str
    rel_path: str
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level ``from X import y [as z]``: ``mod.z`` -> ``X.y``
    #: (how re-exports through ``__init__.py`` files are followed).
    reexports: Dict[str, str] = field(default_factory=dict)
    #: line -> suppressed rule ids (None = all rules).
    suppressions: Dict[int, Optional[List[str]]] = field(default_factory=dict)
    #: CON001/CON002 findings found at extraction time (finding dicts).
    con_findings: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "module": self.module,
            "rel_path": self.rel_path,
            "functions": {q: f.to_dict() for q, f in self.functions.items()},
            "classes": {q: c.to_dict() for q, c in self.classes.items()},
            "reexports": self.reexports,
            "suppressions": {
                str(line): rules for line, rules in self.suppressions.items()
            },
            "con_findings": self.con_findings,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ModuleSummary":
        return cls(
            module=str(d["module"]),
            rel_path=str(d["rel_path"]),
            functions={
                q: FunctionInfo.from_dict(f)
                for q, f in d["functions"].items()  # type: ignore[union-attr]
            },
            classes={
                q: ClassInfo.from_dict(c)
                for q, c in d["classes"].items()  # type: ignore[union-attr]
            },
            reexports=dict(d["reexports"]),  # type: ignore[arg-type]
            suppressions={
                int(line): rules
                for line, rules in d["suppressions"].items()  # type: ignore[union-attr]
            },
            con_findings=list(d["con_findings"]),  # type: ignore[arg-type]
        )


# ----------------------------------------------------------------------
# Package discovery
# ----------------------------------------------------------------------


def find_package_root(path: Path) -> Path:
    """The topmost ancestor of ``path`` that is still a package.

    Walks up from a file's directory (or the directory itself) while an
    ``__init__.py`` is present, so ``src/repro/kernel/columnar.py`` and
    ``src/repro`` both land on ``src/repro``.

    Raises:
        LintError: when ``path`` is not inside a python package.
    """
    directory = path if path.is_dir() else path.parent
    directory = directory.resolve()
    if not (directory / "__init__.py").exists():
        raise LintError(
            f"{path} is not inside a python package (no __init__.py); "
            f"flow analysis needs a package root"
        )
    while (directory.parent / "__init__.py").exists():
        directory = directory.parent
    return directory


def iter_package_files(package_root: Path) -> List[Path]:
    """Every ``.py`` file under the package, sorted (deterministic)."""
    return sorted(package_root.rglob("*.py"))


def module_name_for(package_root: Path, path: Path) -> str:
    """Dotted module name of ``path`` within its package."""
    rel = path.resolve().relative_to(package_root.parent)
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------


class _ModuleExtractor(ast.NodeVisitor):
    """One pass over a module AST, building its :class:`ModuleSummary`."""

    def __init__(self, summary: ModuleSummary, package: str):
        self.summary = summary
        self.package = package
        self.module_aliases: Dict[str, str] = {}
        self.symbol_aliases: Dict[str, str] = {}
        #: top-level names defined in this module (functions + classes).
        self.local_defs: Set[str] = set()
        self._class_stack: List[ClassInfo] = []
        self._fn_stack: List[FunctionInfo] = []
        #: local variable -> class dotted name (``pool = Pool(...)``).
        self._local_types: Dict[str, str] = {}

    # -- imports --------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.module_aliases[alias.asname] = alias.name
            else:
                root = alias.name.split(".")[0]
                self.module_aliases[root] = root
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level:  # relative import: anchor at this module's package
            base = self.summary.module.split(".")
            # level 1 = the containing package of this module.
            anchor = base[: len(base) - node.level]
            module = ".".join(anchor + ([module] if module else []))
        if module:
            for alias in node.names:
                local = alias.asname or alias.name
                target = f"{module}.{alias.name}"
                self.symbol_aliases[local] = target
                if not self._fn_stack and not self._class_stack:
                    # Module-level from-import: record as a re-export so
                    # `pkg.sub.local` resolves onward to `target`.
                    self.summary.reexports[
                        f"{self.summary.module}.{local}"
                    ] = target
        self.generic_visit(node)

    # -- name resolution ------------------------------------------------

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Attribute chain -> dotted string, following import aliases."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        resolved = self.module_aliases.get(root)
        if resolved is None:
            resolved = self.symbol_aliases.get(root)
        if resolved is None and root in self.local_defs:
            resolved = f"{self.summary.module}.{root}"
        if resolved is None:
            resolved = root
        parts.append(resolved)
        return ".".join(reversed(parts))

    # -- definitions ----------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._fn_stack:  # classes inside functions: fold body, skip index
            self.generic_visit(node)
            return
        parent = self._class_stack[-1] if self._class_stack else None
        qualname = (
            f"{parent.qualname}.{node.name}"
            if parent
            else f"{self.summary.module}.{node.name}"
        )
        if not parent:
            self.local_defs.add(node.name)
        info = ClassInfo(
            qualname=qualname,
            module=self.summary.module,
            rel_path=self.summary.rel_path,
            line=node.lineno,
            bases=[b for b in map(self.dotted_name, node.bases) if b],
        )
        self.summary.classes[qualname] = info
        self._class_stack.append(info)
        for stmt in node.body:
            self.visit(stmt)
        self._class_stack.pop()

    def _visit_function(self, node) -> None:
        if self._fn_stack:
            # Nested def: fold its body into the enclosing function.
            for stmt in node.body:
                self.visit(stmt)
            return
        cls = self._class_stack[-1] if self._class_stack else None
        if cls is not None:
            qualname = f"{cls.qualname}.{node.name}"
            cls.methods[node.name] = qualname
        else:
            qualname = f"{self.summary.module}.{node.name}"
            self.local_defs.add(node.name)
        info = FunctionInfo(
            qualname=qualname,
            module=self.summary.module,
            rel_path=self.summary.rel_path,
            line=node.lineno,
            class_name=cls.qualname if cls else None,
        )
        self.summary.functions[qualname] = info
        self._fn_stack.append(info)
        saved_types = self._local_types
        self._local_types = {}
        for stmt in node.body:
            self.visit(stmt)
        self._local_types = saved_types
        self._fn_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- statements inside functions ------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if (
            self._fn_stack
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            target = node.targets[0].id
            cls_name = self._constructed_class(node.value)
            if cls_name is not None:
                self._local_types[target] = cls_name
            else:
                self._local_types.pop(target, None)
        self.generic_visit(node)

    def _constructed_class(self, value: ast.AST) -> Optional[str]:
        """Dotted class name when ``value`` looks like ``ClassName(...)``."""
        if not isinstance(value, ast.Call):
            return None
        name = self.dotted_name(value.func)
        if name is None:
            return None
        leaf = name.rsplit(".", 1)[-1]
        return name if leaf[:1].isupper() else None

    # -- calls and sources ----------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        fn = self._fn_stack[-1] if self._fn_stack else None
        if fn is not None:
            ref = self._call_ref(node)
            if ref is not None:
                fn.calls.append(ref)
            source = self._call_source(node)
            if source is not None:
                fn.sources.append(source)
        self.generic_visit(node)

    def _call_ref(self, node: ast.Call) -> Optional[CallRef]:
        func = node.func
        # super().m()
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
        ):
            return CallRef(target=func.attr, line=node.lineno, kind="super")
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            root = func.value.id
            if root in ("self", "cls"):
                return CallRef(
                    target=f"self.{func.attr}", line=node.lineno, kind="self"
                )
            if root in self._local_types:
                return CallRef(
                    target=f"{self._local_types[root]}.{func.attr}",
                    line=node.lineno,
                )
        name = self.dotted_name(func)
        if name is None:
            return None
        return CallRef(target=name, line=node.lineno)

    def _call_source(self, node: ast.Call) -> Optional[SourceInfo]:
        name = self.dotted_name(node.func)
        if name is None:
            return None
        if name in _WALL_CLOCK_CALLS:
            return SourceInfo(
                "wall-clock", f"wall-clock read `{name}()`", node.lineno
            )
        if name.startswith("random.") and name.count(".") == 1:
            return SourceInfo(
                "rng", f"process-global stdlib RNG `{name}()`", node.lineno
            )
        if name.startswith("numpy.random."):
            leaf = name.rsplit(".", 1)[1]
            if leaf in _NP_LEGACY_FNS:
                return SourceInfo(
                    "rng", f"legacy numpy global RNG `{name}()`", node.lineno
                )
            if leaf == "default_rng" and not node.args and not node.keywords:
                return SourceInfo(
                    "rng", "entropy-seeded `np.random.default_rng()`",
                    node.lineno,
                )
        if name in ("os.getenv", "os.environ.get"):
            return SourceInfo(
                "environ", f"environment read `{name}(...)`", node.lineno
            )
        if name == "id" and "id" not in self.symbol_aliases:
            return SourceInfo(
                "id", "`id()` (address-dependent value)", node.lineno
            )
        return None

    def visit_Attribute(self, node: ast.Attribute) -> None:
        fn = self._fn_stack[-1] if self._fn_stack else None
        if fn is not None and self.dotted_name(node) == "os.environ":
            fn.sources.append(
                SourceInfo("environ", "`os.environ` read", node.lineno)
            )
            # Stop here: don't also record the bare `os.environ.get` call
            # walk below this attribute (visit_Call already did).
        self.generic_visit(node)

    # -- unordered-iteration sources ------------------------------------

    def _unordered_iterable(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return f"{func.id}()"
        if isinstance(node, ast.Set):
            return "set literal"
        if isinstance(node, ast.SetComp):
            return "set comprehension"
        return None

    def _accumulates(self, body: List[ast.stmt]) -> bool:
        for stmt in body:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _ORDERED_SINKS
                ):
                    return True
                if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                    return True
        return False

    def visit_For(self, node: ast.For) -> None:
        fn = self._fn_stack[-1] if self._fn_stack else None
        if fn is not None:
            described = self._unordered_iterable(node.iter)
            if described is not None and self._accumulates(node.body):
                fn.sources.append(
                    SourceInfo(
                        "set-order",
                        f"iteration over {described} feeds an ordered "
                        f"accumulator",
                        node.lineno,
                    )
                )
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        fn = self._fn_stack[-1] if self._fn_stack else None
        if fn is not None:
            for gen in node.generators:
                described = self._unordered_iterable(gen.iter)
                if described is not None:
                    fn.sources.append(
                        SourceInfo(
                            "set-order",
                            f"list built from {described}",
                            node.lineno,
                        )
                    )
                    break
        self.generic_visit(node)


def extract_module(
    package_root: Path, path: Path, source: Optional[str] = None
) -> ModuleSummary:
    """Parse one file into its :class:`ModuleSummary`.

    Args:
        package_root: the package the file belongs to.
        path: the file.
        source: pre-read file contents (read from disk when omitted).

    Raises:
        LintError: when the file does not parse.
    """
    if source is None:
        source = path.read_text(encoding="utf-8")
    rel_path = path.resolve().relative_to(package_root.parent).as_posix()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise LintError(f"{rel_path} does not parse: {exc.msg}") from exc
    summary = ModuleSummary(
        module=module_name_for(package_root, path), rel_path=rel_path
    )
    suppressions = _parse_suppressions(source)
    summary.suppressions = {
        line: (sorted(rules) if rules is not None else None)
        for line, rules in suppressions.items()
    }
    extractor = _ModuleExtractor(summary, package=package_root.name)
    # Pre-scan top-level names so forward references resolve.
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            extractor.local_defs.add(stmt.name)
    extractor.visit(tree)

    from repro.checks.flow.contracts import check_module_contracts

    summary.con_findings = [
        f.to_dict() for f in check_module_contracts(tree, summary)
    ]
    return summary


# ----------------------------------------------------------------------
# Linking
# ----------------------------------------------------------------------


class CallGraph:
    """The linked whole-package graph the flow passes run on.

    Attributes:
        functions: qualname -> :class:`FunctionInfo`.
        classes: qualname -> :class:`ClassInfo`.
        edges: caller qualname -> list of (callee qualname, call line).
        unresolved: caller qualname -> list of (raw target, line) — the
            *unknown callee* lattice element, kept for introspection and
            the conservatism tests.
    """

    def __init__(self, summaries: Sequence[ModuleSummary]):
        self.summaries = list(summaries)
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.reexports: Dict[str, str] = {}
        self.edges: Dict[str, List[Tuple[str, int]]] = {}
        self.unresolved: Dict[str, List[Tuple[str, int]]] = {}
        #: callee -> callers (reverse adjacency, built by :meth:`link`).
        self.callers: Dict[str, List[Tuple[str, int]]] = {}
        self.link()

    # -- symbol resolution ----------------------------------------------

    def _follow_reexports(self, name: str) -> str:
        """Chase ``from X import y`` chains (cycle-guarded)."""
        seen = set()
        while name in self.reexports and name not in seen:
            seen.add(name)
            name = self.reexports[name]
        return name

    def resolve(self, name: str) -> Optional[str]:
        """A dotted name -> function qualname, or None (unknown).

        Handles re-exports, classes (-> ``__init__``), and methods
        reached through a class name (``pkg.mod.Class.m``), including
        methods inherited from in-package bases.
        """
        name = self._follow_reexports(name)
        if name in self.functions:
            return name
        if name in self.classes:
            init = self._resolve_method(name, "__init__")
            return init
        # pkg.mod.Class.method with the method defined on a base.
        head, _, leaf = name.rpartition(".")
        if head:
            head = self._follow_reexports(head)
            if head in self.classes:
                return self._resolve_method(head, leaf)
            combined = f"{head}.{leaf}"
            if combined in self.functions:
                return combined
        return None

    def _resolve_method(
        self, class_qualname: str, method: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Class scan: find ``method`` on the class or its bases."""
        seen = _seen if _seen is not None else set()
        if class_qualname in seen:
            return None
        seen.add(class_qualname)
        info = self.classes.get(class_qualname)
        if info is None:
            return None
        if method in info.methods:
            return info.methods[method]
        for base in info.bases:
            base = self._follow_reexports(base)
            found = self._resolve_method(base, method, seen)
            if found is not None:
                return found
        return None

    def class_of(self, qualname: str) -> Optional[str]:
        """Dotted class name when ``qualname`` resolves to a class."""
        name = self._follow_reexports(qualname)
        return name if name in self.classes else None

    # -- link -----------------------------------------------------------

    def link(self) -> None:
        """Resolve every CallRef into edges (idempotent)."""
        self.functions.clear()
        self.classes.clear()
        self.reexports.clear()
        for summary in self.summaries:
            self.functions.update(summary.functions)
            self.classes.update(summary.classes)
            self.reexports.update(summary.reexports)
        self.edges = {q: [] for q in self.functions}
        self.unresolved = {q: [] for q in self.functions}
        for fn in self.functions.values():
            for ref in fn.calls:
                callee = self._resolve_ref(fn, ref)
                if callee is not None:
                    self.edges[fn.qualname].append((callee, ref.line))
                else:
                    self.unresolved[fn.qualname].append((ref.target, ref.line))
        self.callers = {}
        for caller, callees in self.edges.items():
            for callee, line in callees:
                self.callers.setdefault(callee, []).append((caller, line))

    def _resolve_ref(self, fn: FunctionInfo, ref: CallRef) -> Optional[str]:
        if ref.kind == "self":
            if fn.class_name is None:
                return None
            method = ref.target.split(".", 1)[1]
            return self._resolve_method(fn.class_name, method)
        if ref.kind == "super":
            if fn.class_name is None:
                return None
            cls = self.classes.get(fn.class_name)
            if cls is None:
                return None
            for base in cls.bases:
                base = self._follow_reexports(base)
                found = self._resolve_method(base, ref.target)
                if found is not None:
                    return found
            return None
        return self.resolve(ref.target)

    # -- queries used by the passes -------------------------------------

    def suppressed_at(self, rel_path: str, line: int, rule: str) -> bool:
        """Whether a ``# repro: noqa`` comment covers (file, line, rule)."""
        for summary in self.summaries:
            if summary.rel_path != rel_path:
                continue
            if line not in summary.suppressions:
                return False
            rules = summary.suppressions[line]
            return rules is None or rule in rules
        return False
