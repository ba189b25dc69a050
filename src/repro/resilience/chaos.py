"""Deterministic fault injection: seeded plans, named sites.

Chaos testing a numerical service needs *reproducible* faults: a CI
run that crashes a worker on Tuesdays is worse than no chaos at all.
A :class:`FaultPlan` is a frozen, picklable, JSON-serialisable spec —
a seed plus a list of :class:`FaultRule`\\ s — whose every decision is
a pure function of ``(seed, site, key, rule index)`` via SHA-256, so
the same plan injects the same faults into the same jobs on any
machine, across process boundaries, with no shared counters.

Sites (the names the service layer pokes):

* ``worker.task`` — the worker-side job entry point: ``CRASH``
  (SIGKILL, what an OOM kill looks like) and ``HANG`` (sleep past the
  job timeout) fire here;
* ``cls.output`` — the CLS-stage output inside :func:`repro.core.fsi.
  fsi`: ``CORRUPT`` (NaN/Inf block entries) and ``ILLCOND``
  (artificially ill-conditioned blocks) fire here;
* ``cache.store`` — a result about to enter the scheduler's cache:
  ``CORRUPT`` fires here, which the scheduler's result screen must
  catch before the poison is served.

One-shot faults (``once=True``, e.g. crash-once-then-recover) record a
marker file under ``state_dir`` with ``O_EXCL`` so exactly one firing
happens per ``(rule, key)`` even across recycled worker processes —
this generalises the old ad-hoc ``crash_once_task``.

In-process activation is a module global (:func:`activate` /
:func:`is_active`): the cost to un-chaosed code is one ``None`` check.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

__all__ = [
    "FaultKind",
    "FaultRule",
    "FaultPlan",
    "activate",
    "is_active",
    "active_plan",
    "job_key",
    "current_key",
    "corrupt_array",
]


class FaultKind(Enum):
    """What a firing rule does."""

    CRASH = "crash"      # SIGKILL the current process
    HANG = "hang"        # sleep (trips job timeouts)
    CORRUPT = "corrupt"  # overwrite entries with NaN/Inf
    ILLCOND = "illcond"  # scale a block to blow up its condition number


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: where, what, how often.

    ``probability`` is evaluated deterministically per ``(site, key)``;
    ``once`` limits the rule to a single firing per key (needs the
    plan's ``state_dir`` for cross-process memory).
    """

    site: str
    kind: FaultKind
    probability: float = 1.0
    once: bool = False
    hang_seconds: float = 30.0
    corrupt_value: float = float("nan")
    illcond_scale: float = 1e16

    def __post_init__(self) -> None:
        if not isinstance(self.kind, FaultKind):
            object.__setattr__(self, "kind", FaultKind(self.kind))
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must lie in [0, 1], got {self.probability}"
            )

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "kind": self.kind.value,
            "probability": self.probability,
            "once": self.once,
            "hang_seconds": self.hang_seconds,
            "corrupt_value": (
                str(self.corrupt_value)
                if not np.isfinite(self.corrupt_value)
                else self.corrupt_value
            ),
            "illcond_scale": self.illcond_scale,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        data = dict(data)
        if isinstance(data.get("corrupt_value"), str):
            data["corrupt_value"] = float(data["corrupt_value"])
        data["kind"] = FaultKind(data["kind"])
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic set of fault rules.

    Picklable (ships to worker processes inside the task closure) and
    JSON round-trippable (the ``--chaos-plan`` CLI flag).
    """

    seed: int
    rules: tuple[FaultRule, ...] = ()
    state_dir: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        if any(r.once for r in self.rules) and self.state_dir is None:
            raise ValueError(
                "rules with once=True need a state_dir for their markers"
            )

    # ------------------------------------------------------------------
    def _roll(self, site: str, key: str, index: int) -> float:
        """Deterministic uniform draw in [0, 1) for one decision."""
        digest = hashlib.sha256(
            f"{self.seed}|{site}|{key}|{index}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "little") / 2**64

    def _claim_once(self, rule_index: int, key: str) -> bool:
        """Atomically claim a once-rule's single firing for ``key``."""
        assert self.state_dir is not None
        os.makedirs(self.state_dir, exist_ok=True)
        digest = hashlib.sha256(key.encode()).hexdigest()[:24]
        marker = os.path.join(self.state_dir, f"fired-{rule_index}-{digest}")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))
        return True

    def decide(self, site: str, key: str) -> FaultRule | None:
        """The rule firing at ``(site, key)``, or ``None``.

        Pure in ``(seed, site, key)`` except for ``once`` bookkeeping;
        the first matching rule that fires wins.
        """
        for index, rule in enumerate(self.rules):
            if rule.site != site:
                continue
            if self._roll(site, key, index) >= rule.probability:
                continue
            if rule.once and not self._claim_once(index, key):
                continue
            return rule
        return None

    def fired(self) -> int:
        """How many once-rules have fired so far (marker count)."""
        if self.state_dir is None or not os.path.isdir(self.state_dir):
            return 0
        return sum(
            1 for name in os.listdir(self.state_dir)
            if name.startswith("fired-")
        )

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "state_dir": self.state_dir,
                "rules": [rule.to_dict() for rule in self.rules],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls(
            seed=int(data["seed"]),
            rules=tuple(
                FaultRule.from_dict(rule) for rule in data.get("rules", ())
            ),
            state_dir=data.get("state_dir"),
        )

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_json(fh.read())


# ----------------------------------------------------------------------
# in-process activation (worker side)
# ----------------------------------------------------------------------

_ACTIVE: FaultPlan | None = None
_CURRENT_KEY: str = ""


def is_active() -> bool:
    """One-attribute-check fast path for instrumented code."""
    return _ACTIVE is not None


def active_plan() -> FaultPlan | None:
    return _ACTIVE


@contextmanager
def activate(plan: FaultPlan | None) -> Iterator[None]:
    """Install ``plan`` as this process's active plan (restored on exit).

    Worker processes are recycled and reused across batches; scoping
    activation to the task body keeps plans from leaking between them.
    """
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = plan
    try:
        yield
    finally:
        _ACTIVE = prev


@contextmanager
def job_key(key: str) -> Iterator[None]:
    """Set the ambient job key that sited decisions are keyed on."""
    global _CURRENT_KEY
    prev = _CURRENT_KEY
    _CURRENT_KEY = key
    try:
        yield
    finally:
        _CURRENT_KEY = prev


def current_key() -> str:
    return _CURRENT_KEY


def corrupt_array(site: str, arr: np.ndarray,
                  key: str | None = None) -> np.ndarray | None:
    """Apply a CORRUPT/ILLCOND rule at ``site`` to a copy of ``arr``.

    Returns the corrupted copy when a rule fires, else ``None`` (the
    caller keeps its pristine array; no copy is made on the healthy
    path).  For ``(b, N, N)`` block stacks the fault lands in block 0;
    for plain matrices it lands in the top-left entry.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    rule = plan.decide(site, key if key is not None else _CURRENT_KEY)
    if rule is None or rule.kind not in (FaultKind.CORRUPT, FaultKind.ILLCOND):
        return None
    out = np.array(arr, copy=True)
    target = out[0] if out.ndim == 3 else out
    if rule.kind is FaultKind.CORRUPT:
        target.flat[0] = rule.corrupt_value
    else:  # ILLCOND: one tiny singular value via a near-rank-deficient row
        target *= rule.illcond_scale
        target[-1] = target[0] * (1.0 + 1.0 / rule.illcond_scale)
    return out
