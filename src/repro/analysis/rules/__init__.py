"""The rule catalogue — one module per invariant.

``ALL_RULES`` is the ordered registry the CLI instantiates; adding a
rule means writing a module with a :class:`~repro.analysis.engine.Rule`
subclass and appending its class here (see ``docs/static-analysis.md``
for the how-to).
"""

from __future__ import annotations

from ..engine import Rule
from .clocks import MonotonicClocks
from .excepts import NoSilentExcept
from .locks import NoBlockingUnderLock
from .metric_names import MetricNameContract
from .picklable import PicklableExceptions
from .sharedmem import SharedMemoryLifecycle
from .shims import NoReexportShims
from .solvers import GuardedSolversOnly
from .spans import SpanPropagation

__all__ = [
    "ALL_RULES",
    "GuardedSolversOnly",
    "MetricNameContract",
    "MonotonicClocks",
    "NoBlockingUnderLock",
    "NoReexportShims",
    "NoSilentExcept",
    "PicklableExceptions",
    "SharedMemoryLifecycle",
    "SpanPropagation",
    "default_rules",
    "rule_classes",
]

ALL_RULES: tuple[type[Rule], ...] = (
    PicklableExceptions,   # RPR001
    MonotonicClocks,       # RPR002
    NoBlockingUnderLock,   # RPR003
    GuardedSolversOnly,    # RPR004
    MetricNameContract,    # RPR005
    SpanPropagation,       # RPR006
    SharedMemoryLifecycle, # RPR007
    NoSilentExcept,        # RPR008
    NoReexportShims,       # RPR009
)


def rule_classes() -> dict[str, type[Rule]]:
    return {cls.id: cls for cls in ALL_RULES}


def default_rules() -> list[Rule]:
    return [cls() for cls in ALL_RULES]
