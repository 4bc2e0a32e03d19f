"""An AST lint that flags hash-order-dependent iteration.

Python's per-process hash randomization makes ``set``/``frozenset``
iteration order a function of ``PYTHONHASHSEED``.  Any such iteration whose
order *flows somewhere* — into a returned list, stored triples, RNG
consumption, shard assignment — is a cross-process nondeterminism bug.
This lint walks the source tree and flags:

* ``DET001`` — a ``for`` loop over a set-valued expression;
* ``DET002`` — a list/generator/dict comprehension over a set-valued
  expression (set comprehensions are exempt: they produce a set again);
* ``DET003`` — ``list()``/``tuple()``/``enumerate()``/``zip()`` directly
  materializing a set-valued expression;
* ``DET004`` — a call to builtin ``hash()`` (use
  :func:`repro.determinism.stable.stable_hash` instead);
* ``DET005`` — a parameter default constructed at ``def`` time
  (``config: WikiConfig = WikiConfig()``): the instance is built once at
  import and shared by every call, so later mutation — or a config class
  gaining mutable fields — silently couples callers.  Use a ``None``
  sentinel and construct inside the body.

Set-valuedness is inferred per scope: set literals and comprehensions,
``set()``/``frozenset()`` calls, set-operator expressions, ``set``-annotated
names and attributes, ``self.x = set(...)`` attributes, and a curated table
of set-returning methods in this codebase.  Iterations wrapped directly in
an order-insensitive reducer (``sorted``, ``sum``, ``min``, ``max``,
``len``, ``any``, ``all``, ``set``, ``frozenset``, ``sorted_set``) are not
flagged.

Genuinely order-insensitive sites are allowlisted **explicitly**, either
with an inline pragma comment::

    for title in titles:  # det: allow-unordered -- only membership counts

or an entry in :data:`ALLOWLIST` (``"<path suffix>:<line text fragment>"``).
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Optional

#: Inline pragma that silences every finding on its line.
PRAGMA = "det: allow-unordered"

#: Explicit allowlist: "path-suffix:substring of the flagged source line".
#: Prefer inline pragmas; use this only for files the lint runs over but
#: that cannot carry pragma comments (e.g. generated code).
ALLOWLIST: frozenset[str] = frozenset()

#: Calls whose result does not depend on argument iteration order.
ORDER_INSENSITIVE_CALLS = {
    "len", "sum", "min", "max", "any", "all", "sorted", "set", "frozenset",
    "sorted_set", "Counter",
}

#: Wrappers that re-materialize the unordered iterable as-is.
ORDER_PRESERVING_MATERIALIZERS = {"list", "tuple", "enumerate", "zip", "iter"}

#: Methods in this codebase known to return sets.
SET_RETURNING_METHODS = {
    "entities", "predicates", "true_variables", "link_targets",
    "lsh_candidate_pairs", "shingles",
}

#: Set methods that return sets regardless of receiver inference.
SET_COMBINATORS = {
    "union", "intersection", "difference", "symmetric_difference",
}


@dataclass(frozen=True, slots=True)
class Finding:
    """One flagged site."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"


class _Scope:
    """Set-like name/attribute bindings visible in one function or module."""

    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.names: set[str] = set(parent.names) if parent else set()
        self.attrs: set[str] = set(parent.attrs) if parent else set()
        self.non_set_names: set[str] = set()

    def bind(self, name: str, is_set: bool) -> None:
        if is_set:
            self.names.add(name)
            self.non_set_names.discard(name)
        else:
            self.names.discard(name)
            self.non_set_names.add(name)


def _annotation_is_set(node: Optional[ast.expr]) -> bool:
    """True for ``set[...]``, ``frozenset[...]``, ``Set[...]`` annotations."""
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        return _annotation_is_set(node.value)
    if isinstance(node, ast.Name):
        return node.id in {"set", "frozenset", "Set", "FrozenSet", "AbstractSet"}
    if isinstance(node, ast.Attribute):
        return node.attr in {"Set", "FrozenSet", "AbstractSet"}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        return text.startswith(("set[", "frozenset[", "Set[", "FrozenSet["))
    return False


class _FileLinter(ast.NodeVisitor):
    """Lint one parsed module."""

    def __init__(self, path: str, source_lines: list[str]) -> None:
        self.path = path
        self.source_lines = source_lines
        self.findings: list[Finding] = []
        self.scope = _Scope()
        self._exempt: set[int] = set()   # node ids inside safe reducers
        self._class_set_attrs: set[str] = set()

    # ------------------------------------------------------- set inference

    def _is_set_expr(self, node: Optional[ast.expr]) -> bool:
        if node is None:
            return False
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            if node.id in self.scope.non_set_names:
                return False
            return node.id in self.scope.names
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return node.attr in self.scope.attrs
            return False
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return True
            if isinstance(func, ast.Attribute):
                if func.attr in SET_COMBINATORS:
                    return True
                if func.attr in SET_RETURNING_METHODS:
                    return True
                if func.attr == "copy" and self._is_set_expr(func.value):
                    return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.IfExp):
            return self._is_set_expr(node.body) or self._is_set_expr(node.orelse)
        return False

    # ---------------------------------------------------------- allowlist

    def _allowed(self, node: ast.AST) -> bool:
        line_index = node.lineno - 1
        if 0 <= line_index < len(self.source_lines):
            text = self.source_lines[line_index]
            if PRAGMA in text:
                return True
            for entry in ALLOWLIST:  # det: allow-unordered -- boolean any() over entries
                suffix, __, fragment = entry.partition(":")
                if self.path.endswith(suffix) and fragment and fragment in text:
                    return True
        return False

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        if self._allowed(node):
            return
        self.findings.append(
            Finding(self.path, node.lineno, node.col_offset, code, message)
        )

    # ------------------------------------------------------------ scoping

    def _collect_bindings(self, body: Iterable[ast.stmt]) -> None:
        """Pre-pass: record which names/attrs this scope binds to sets."""
        for statement in body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Assign):
                    is_set = self._is_set_literalish(node.value)
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.scope.bind(target.id, is_set)
                        elif (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and is_set
                        ):
                            self.scope.attrs.add(target.attr)
                elif isinstance(node, ast.AnnAssign):
                    target = node.target
                    is_set = _annotation_is_set(node.annotation) or (
                        self._is_set_literalish(node.value)
                    )
                    if isinstance(target, ast.Name):
                        self.scope.bind(target.id, is_set)
                    elif (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and is_set
                    ):
                        self.scope.attrs.add(target.attr)
                elif isinstance(node, ast.AugAssign):
                    # s |= other keeps s a set; anything else leaves it alone.
                    if (
                        isinstance(node.target, ast.Name)
                        and isinstance(node.op, (ast.BitOr, ast.BitAnd))
                        and self._is_set_literalish(node.value)
                    ):
                        self.scope.bind(node.target.id, True)

    def _is_set_literalish(self, node: Optional[ast.expr]) -> bool:
        """Binding-time set-likeness (no name lookups, to avoid ordering
        effects between the pre-pass and the real visit)."""
        if node is None:
            return False
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return True
            if isinstance(func, ast.Attribute) and func.attr in (
                SET_COMBINATORS | SET_RETURNING_METHODS
            ):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor)
        ):
            return self._is_set_literalish(node.left) and self._is_set_literalish(
                node.right
            )
        return False

    # ------------------------------------------------------------- visits

    def visit_Module(self, node: ast.Module) -> None:
        self._collect_bindings(node.body)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # Collect self.<attr> = set(...) across all methods first, so every
        # method sees the class's set-valued attributes.
        saved_attrs = set(self.scope.attrs)
        for method in node.body:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_bindings(method.body)
        self.generic_visit(node)
        self.scope.attrs = saved_attrs

    def _visit_function(self, node) -> None:
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            if (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id[:1].isupper()
            ):
                self._flag(
                    default,
                    "DET005",
                    f"parameter default {default.func.id}() is constructed "
                    "once at def time and shared across calls; use a None "
                    "sentinel and construct in the function body",
                )
        outer = self.scope
        self.scope = _Scope(parent=outer)
        for arg in list(node.args.args) + list(node.args.kwonlyargs):
            if _annotation_is_set(arg.annotation):
                self.scope.bind(arg.arg, True)
        self._collect_bindings(node.body)
        self.generic_visit(node)
        self.scope = outer

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._flag(
                node,
                "DET001",
                "for-loop over a set: iteration order depends on "
                "PYTHONHASHSEED (wrap in sorted()/sorted_set(), or add "
                f"'# {PRAGMA}' if order cannot matter)",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else None
        if name == "hash" and len(node.args) == 1:
            self._flag(
                node,
                "DET004",
                "builtin hash() is salted per process; use "
                "repro.determinism.stable.stable_hash()",
            )
        if name in ORDER_INSENSITIVE_CALLS:
            for arg in node.args:
                self._exempt.add(id(arg))
        elif name in ORDER_PRESERVING_MATERIALIZERS:
            for arg in node.args:
                if self._is_set_expr(arg):
                    self._flag(
                        node,
                        "DET003",
                        f"{name}() materializes a set in hash order; wrap "
                        "the set in sorted()/sorted_set() first",
                    )
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        if not isinstance(node, ast.SetComp) and id(node) not in self._exempt:
            for generator in node.generators:
                if self._is_set_expr(generator.iter):
                    self._flag(
                        node,
                        "DET002",
                        "comprehension over a set: result order depends on "
                        "PYTHONHASHSEED (wrap the iterable in sorted()/"
                        "sorted_set(), or reduce with an order-insensitive "
                        "function)",
                    )
                    break
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_SetComp = _visit_comprehension


def lint_file(path: str) -> list[Finding]:
    """Lint one Python file; returns its findings."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Finding(path, error.lineno or 0, error.offset or 0, "DET000",
                    f"syntax error: {error.msg}")
        ]
    linter = _FileLinter(path, source.splitlines())
    linter.visit(tree)
    return sorted(linter.findings, key=lambda f: (f.path, f.line, f.col))


def lint_paths(paths: Iterable[str]) -> list[Finding]:
    """Lint files and directory trees; returns all findings."""
    findings: list[Finding] = []
    for path in paths:
        if os.path.isdir(path):
            for root, __, files in sorted(os.walk(path)):
                for filename in sorted(files):
                    if filename.endswith(".py"):
                        findings.extend(lint_file(os.path.join(root, filename)))
        elif path.endswith(".py"):
            findings.extend(lint_file(path))
    return findings


def main(argv: Optional[list[str]] = None) -> int:
    """CLI: lint the given paths (default: src/repro); exit 1 on findings."""
    parser = argparse.ArgumentParser(
        prog="lint-determinism",
        description="flag hash-order-dependent iteration in Python sources",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    args = parser.parse_args(argv)
    findings = lint_paths(args.paths)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} unordered-iteration finding(s)")
        return 1
    print("determinism lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
