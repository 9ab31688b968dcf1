"""The reprolint engine: files -> ASTs -> rules -> findings.

The paper's control plane is only as good as its measurements: the K-th
percentile threshold policy (§4.3) and the GP-Bandit autotuner (§5.3)
both assume that replaying the same fleet with the same seed reproduces
the same histograms bit-for-bit.  ``repro.checks`` enforces the hazards *statically*: every rule encodes
one way that contract has broken (or could break) in this codebase.

Architecture:

* :class:`Rule` — one check; subclasses provide an :class:`ast.NodeVisitor`
  (via :attr:`Rule.visitor_class`) or override :meth:`Rule.check`.
* :class:`RuleVisitor` — visitor base with import tracking and a
  ``report(node, message)`` helper.
* ``@register`` — adds a rule class to the global :data:`RULES` registry.
* :class:`LintEngine` — walks paths, parses each file once, runs every
  applicable rule, and strips findings suppressed with
  ``# repro: noqa[RULE]`` comments.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

__all__ = [
    "Finding",
    "FileContext",
    "LintError",
    "LintEngine",
    "RULES",
    "Rule",
    "RuleVisitor",
    "register",
    "iter_python_files",
]

from repro.common.errors import ReproError


class LintError(ReproError):
    """The lint engine itself failed (bad path, unparsable rule set)."""


#: ``# repro: noqa`` (all rules) or ``# repro: noqa[DET001,ACC001]``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)

#: Matches every rule id (used by suppression parsing and --rule).
_RULE_ID_RE = re.compile(r"^[A-Z]{3,6}\d{3}$")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location.

    Local (per-file) rules produce single-line findings.  The flow passes
    (``repro.checks.flow``) produce *multi-line* diagnostics: the finding
    anchors at the **sink** line — where nondeterminism enters the tick
    path, or where an unpicklable attribute lands — and :attr:`chain`
    carries the source→sink call chain, one hop per entry.  Suppression
    (``# repro: noqa[RULE]``) and baseline identity both key on the sink:
    the chain is rendered for humans but excluded from
    :meth:`baseline_key`, because its file:line hops drift with every
    edit of any file along the chain.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    #: Call-chain context, outermost hop first (flow findings only).
    chain: Tuple[str, ...] = ()

    def render(self) -> str:
        """``path:line:col: RULE message`` plus indented chain lines."""
        head = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if not self.chain:
            return head
        return "\n".join([head, *(f"    {hop}" for hop in self.chain)])

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        document: Dict[str, object] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }
        if self.chain:
            document["chain"] = list(self.chain)
        return document

    def baseline_key(self) -> str:
        """Identity used by the baseline workflow (line numbers drift as
        files are edited, so the key is path + rule + message; the chain
        of a flow finding is context, not identity)."""
        return f"{self.path}::{self.rule}::{self.message}"


@dataclass
class FileContext:
    """Everything a rule may inspect about one file."""

    path: Path
    rel_path: str  #: posix-style path relative to the lint root
    source: str
    tree: ast.Module
    #: line number -> rule ids suppressed there (``None`` = all rules).
    suppressions: Dict[int, Optional[Set[str]]] = field(default_factory=dict)

    def is_suppressed(self, finding: Finding) -> bool:
        """True when a ``# repro: noqa`` comment covers this finding."""
        rules = self.suppressions.get(finding.line, _MISSING)
        if rules is _MISSING:
            return False
        return rules is None or finding.rule in rules


_MISSING = object()


def _parse_suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    suppressions: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[lineno] = None
        else:
            suppressions[lineno] = {
                r.strip().upper() for r in rules.split(",") if r.strip()
            }
    return suppressions


class RuleVisitor(ast.NodeVisitor):
    """Visitor base: tracks imports, reports findings.

    Subclasses get two alias tables maintained for free:

    * :attr:`module_aliases` — local name -> dotted module for every
      ``import x`` / ``import x.y as z``;
    * :attr:`symbol_aliases` — local name -> ``module.symbol`` for every
      ``from x import y [as z]``.
    """

    def __init__(self, rule: "Rule", ctx: FileContext):
        self.rule = rule
        self.ctx = ctx
        self.findings: List[Finding] = []
        self.module_aliases: Dict[str, str] = {}
        self.symbol_aliases: Dict[str, str] = {}

    def report(self, node: ast.AST, message: str) -> None:
        """Record one finding anchored at ``node``."""
        self.findings.append(
            Finding(
                path=self.ctx.rel_path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=self.rule.id,
                message=message,
            )
        )

    # -- import bookkeeping (generic_visit keeps traversal going) -------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:  # import a.b as c -> c resolves to a.b
                self.module_aliases[alias.asname] = alias.name
            else:  # import a.b binds only the root name a
                root = alias.name.split(".")[0]
                self.module_aliases[root] = root
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            for alias in node.names:
                self.symbol_aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    # -- shared helpers --------------------------------------------------

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Resolve an attribute chain to a dotted string, following import
        aliases at the root (``np.random.seed`` -> ``numpy.random.seed``).
        Returns None for non-name expressions (calls, subscripts...)."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        resolved = self.module_aliases.get(root)
        if resolved is None:
            resolved = self.symbol_aliases.get(root, root)
        parts.append(resolved)
        return ".".join(reversed(parts))


class Rule:
    """One static check.  Subclass and ``@register``."""

    id: str = ""
    title: str = ""
    #: Rel-path fragments this rule is limited to (empty = every file).
    path_fragments: Tuple[str, ...] = ()
    #: Rel-path fragments exempt from this rule.
    allowlist: Tuple[str, ...] = ()
    visitor_class: Optional[Type[RuleVisitor]] = None

    def applies_to(self, rel_path: str) -> bool:
        """Whether this rule runs on a file (path scoping + allowlist)."""
        if any(fragment in rel_path for fragment in self.allowlist):
            return False
        if not self.path_fragments:
            return True
        return any(fragment in rel_path for fragment in self.path_fragments)

    def check(self, ctx: FileContext) -> List[Finding]:
        """Run the rule over one parsed file."""
        if self.visitor_class is None:  # pragma: no cover - abstract misuse
            raise NotImplementedError(f"{self.id}: no visitor_class")
        visitor = self.visitor_class(self, ctx)
        visitor.visit(ctx.tree)
        return visitor.findings


#: The global rule registry (id -> instance), filled by ``@register``.
RULES: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to :data:`RULES`."""
    if not _RULE_ID_RE.match(rule_cls.id):
        raise LintError(f"bad rule id {rule_cls.id!r}")
    if rule_cls.id in RULES:
        raise LintError(f"duplicate rule id {rule_cls.id}")
    RULES[rule_cls.id] = rule_cls()
    return rule_cls


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories, sorted
    (deterministic engine output is itself part of the contract)."""
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


class LintEngine:
    """Runs a rule set over a source tree.

    Args:
        root: paths are reported relative to this directory (findings are
            stable across checkouts, which the baseline workflow needs).
        rules: rule ids to run (default: every registered rule).
    """

    def __init__(
        self,
        root: Optional[Path] = None,
        rules: Optional[Sequence[str]] = None,
    ):
        self.root = (root or Path.cwd()).resolve()
        if rules is None:
            self.rules = [RULES[rule_id] for rule_id in sorted(RULES)]
        else:
            unknown = [r for r in rules if r not in RULES]
            if unknown:
                raise LintError(
                    f"unknown rule(s) {', '.join(sorted(unknown))}; "
                    f"available: {', '.join(sorted(RULES))}"
                )
            self.rules = [RULES[rule_id] for rule_id in sorted(set(rules))]

    def _rel(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    def lint_file(self, path: Path) -> List[Finding]:
        """Lint one file; parse errors surface as a PARSE finding."""
        rel = self._rel(path)
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return [
                Finding(
                    path=rel,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule="PARSE",
                    message=f"file does not parse: {exc.msg}",
                )
            ]
        ctx = FileContext(
            path=path,
            rel_path=rel,
            source=source,
            tree=tree,
            suppressions=_parse_suppressions(source),
        )
        findings: List[Finding] = []
        for rule in self.rules:
            if not rule.applies_to(rel):
                continue
            findings.extend(
                f for f in rule.check(ctx) if not ctx.is_suppressed(f)
            )
        return findings

    def run(self, paths: Sequence[Path]) -> List[Finding]:
        """Lint every python file under ``paths``; findings sorted by
        (path, line, col, rule)."""
        findings: List[Finding] = []
        for path in iter_python_files(paths):
            findings.extend(self.lint_file(path))
        return sorted(findings)
