"""RPR005 — metric naming and the register-once contract.

Cache hit/miss metrics double-count the moment two layers each
increment them, so the contract is "count once, at one layer" — and
the structural half of that contract is that each metric *family* is
registered at exactly one call site per module, under a
``repro_``-prefixed snake_case name the dashboards can rely on.  The
rule checks every
``registry.counter/gauge/histogram("literal", ...)`` call: the literal
must match ``repro_[a-z_]+`` and must not be registered at two
distinct call sites in the same module.

Dynamic names (non-literal first argument, e.g. the helpers in
``resilience/guards.py``) are out of scope — so are unrelated calls
like ``np.histogram(data, bins)``, whose first argument is not a
string literal.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from ..engine import FileContext, Rule

__all__ = ["MetricNameContract"]

_REGISTER_ATTRS = {"counter", "gauge", "histogram"}
_NAME_RE = re.compile(r"^repro_[a-z_]+$")


class MetricNameContract(Rule):
    id = "RPR005"
    title = "metric families: repro_ snake_case, registered once per module"
    invariant = (
        "metric names match repro_[a-z_]+ and each family has exactly"
        " one registration call site per module (PR 7 count-once"
        " contract)"
    )

    def check(self, ctx: FileContext) -> Iterable[tuple[int, int, str]]:
        seen: dict[str, int] = {}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _REGISTER_ATTRS
            ):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                continue
            name = first.value
            if not _NAME_RE.match(name):
                yield (
                    node.lineno,
                    node.col_offset + 1,
                    f"metric name {name!r} must match repro_[a-z_]+"
                    " (repro_ prefix, lowercase snake_case)",
                )
            if name in seen:
                yield (
                    node.lineno,
                    node.col_offset + 1,
                    f"metric family {name!r} already registered at line"
                    f" {seen[name]} in this module: register once and"
                    " share the handle (count-once contract)",
                )
            else:
                seen[name] = node.lineno
