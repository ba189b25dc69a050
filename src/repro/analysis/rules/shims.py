"""RPR009 — no re-export shim modules.

A module whose whole body is ``from ... import`` lines keeps an old
import path alive after its code moved: a second name for one object,
with callers and docs split between the two.  Packages re-export
through their ``__init__``; any other module must hold code.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import FileContext, Rule

__all__ = ["NoReexportShims"]


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _is_dunder_all(node: ast.stmt) -> bool:
    targets = (
        node.targets if isinstance(node, ast.Assign)
        else [node.target] if isinstance(node, ast.AnnAssign)
        else []
    )
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


class NoReexportShims(Rule):
    id = "RPR009"
    title = "no re-export shim modules"
    invariant = (
        "a module other than __init__ must hold code: one whose body,"
        " apart from its docstring, __future__ import and __all__, is"
        " only from-imports is a shim; import from the real module"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.posix.name != "__init__.py"

    def check(self, ctx: FileContext) -> Iterable[tuple[int, int, str]]:
        imports = []
        for node in ctx.tree.body:
            if _is_docstring(node) or _is_dunder_all(node):
                continue
            if not isinstance(node, ast.ImportFrom):
                return
            if node.module != "__future__":
                imports.append(node)
        if imports:
            names = ", ".join(i.module or "." for i in imports)
            yield (
                imports[0].lineno,
                imports[0].col_offset + 1,
                f"module only re-exports from {names}: import from the"
                " real module and delete this shim",
            )
