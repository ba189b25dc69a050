"""Numerical health guards for the FSI pipeline.

The CLS stage multiplies ``c`` slice matrices into clustered products
whose condition number grows like ``e^{~c dtau U}`` (Sec. II-A; worse
at low temperature), so a ``(c, L, beta)`` choice that looked fine on
paper can silently lose every significant digit.  These guards make
that failure *loud* and *cheap to detect*:

* :func:`screen_finite` — NaN/Inf screening of inputs and stage
  outputs (vectorised ``np.isfinite`` reductions, ``O(L N^2)`` against
  the solver's ``O(N^3)`` stages);
* :func:`estimate_condition` — a 1-norm condition estimate (LAPACK
  ``getrf`` + ``gecon``, ~``2/3 N^3`` flops instead of a full SVD or an
  explicit inverse) applied to a deterministic sample of the clustered
  blocks;
* :func:`check_seed_residual` — a sampled identity residual
  ``||(M~ G~)_{k,l} - delta_{kl}||`` over the reduced matrix and its
  BSOFI inverse (a couple of gemms), catching a wrong inverse even
  when every entry is finite.

Verdicts flow into the process-global telemetry registry
(``repro_guard_checks_total`` / ``repro_guard_trips_total`` counter
families, condition/residual histograms) and a tripped guard raises
the typed :class:`NumericalHealthError` that
:func:`repro.core.fsi.fsi_resilient` turns into a fallback-ladder
retry and the service layer turns into a typed job failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg as sla

from ..telemetry import runtime as _telemetry

if TYPE_CHECKING:
    from ..core.bsofi import SeedBand

__all__ = [
    "NumericalHealthError",
    "GuardConfig",
    "GuardReport",
    "all_finite",
    "screen_finite",
    "estimate_condition",
    "check_cluster_conditions",
    "check_seed_residual",
    "guarded_solve",
    "guarded_inv",
    "sample_indices",
]


class NumericalHealthError(ArithmeticError):
    """A numerical health guard tripped; the result is not trustworthy.

    Attributes
    ----------
    check:
        Which guard tripped (``"finite"``, ``"condition"``,
        ``"residual"``).
    site:
        Where in the pipeline (``"input"``, ``"cls"``, ``"bsofi"``,
        ``"wrp"``, ``"result"``).
    value / limit:
        The observed quantity and the configured threshold (``nan``
        for finiteness screens, which have no scalar threshold).
    """

    def __init__(self, message: str, *, check: str, site: str,
                 value: float = math.nan, limit: float = math.nan):
        super().__init__(message)
        self.check = check
        self.site = site
        self.value = value
        self.limit = limit


@dataclass(frozen=True)
class GuardConfig:
    """Which guards run, and their thresholds.

    The defaults keep the whole battery under a few percent of one
    solve (enforced by ``benchmarks/bench_resilience.py --check``):
    finiteness screens are vectorised reductions, and the expensive
    checks are *sampled* — ``condition_samples`` clustered blocks and
    ``residual_samples`` rows of the reduced identity.
    """

    screen_input: bool = True
    screen_stages: bool = True
    condition_limit: float = 1e12
    condition_samples: int = 1
    residual_limit: float = 1e-6
    residual_samples: int = 2
    #: How many *result* blocks the in-solve screen checks (evenly
    #: sampled).  Patterns like COLUMNS emit hundreds of blocks and the
    #: per-block dispatch would dominate small solves; the service
    #: layer still screens every block before a result enters the
    #: cache, so the in-solve cap costs no end-to-end coverage.
    result_screen_samples: int = 32

    def __post_init__(self) -> None:
        if self.condition_limit <= 0 or self.residual_limit <= 0:
            raise ValueError("guard limits must be positive")
        if (self.condition_samples < 0 or self.residual_samples < 0
                or self.result_screen_samples < 0):
            raise ValueError("guard sample counts must be >= 0")


@dataclass
class GuardReport:
    """What the guards saw on one solve attempt (attached to results)."""

    checks_run: int = 0
    worst_condition: float = 0.0
    worst_residual: float = 0.0
    tripped: str | None = None
    details: dict[str, float] = field(default_factory=dict)

    def merge_worst(self, other: "GuardReport") -> None:
        """Fold another attempt's observations into this report."""
        self.checks_run += other.checks_run
        self.worst_condition = max(self.worst_condition, other.worst_condition)
        self.worst_residual = max(self.worst_residual, other.worst_residual)


# ----------------------------------------------------------------------
# telemetry plumbing
# ----------------------------------------------------------------------

def _count(check: str, tripped: bool) -> None:
    r = _telemetry.registry()
    r.counter(
        "repro_guard_checks_total", "Numerical guard checks run",
        labels=("check",),
    ).labels(check=check).inc()
    if tripped:
        r.counter(
            "repro_guard_trips_total", "Numerical guard trips",
            labels=("check",),
        ).labels(check=check).inc()


def _observe(name: str, help_text: str, value: float) -> None:
    if np.isfinite(value):
        _telemetry.registry().histogram(name, help_text).observe(value)


# ----------------------------------------------------------------------
# the guards
# ----------------------------------------------------------------------

def _maybe_nonfinite(arr: np.ndarray) -> bool:
    """Cheap screen: a NaN/Inf entry poisons the sum — no sum returns
    from inf or NaN to a finite value (``inf - inf`` is NaN) — so one C
    reduction, with no boolean temporary, clears the common all-finite
    case.  A positive here may rarely be overflow of a genuinely finite
    array, so callers re-verify with an exact scan.

    Complex arrays are summed through their float view, the real and
    imaginary parts side by side: a non-finite entry in either part
    poisons that sum the same way.  The sum's own overflow and
    ``inf - inf`` warnings are silenced: the result says it all."""
    if np.issubdtype(arr.dtype, np.complexfloating):
        arr = np.ascontiguousarray(arr)
        arr = arr.view(arr.real.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        total = arr.sum()
    return not bool(np.isfinite(total))


def all_finite(arr: np.ndarray) -> bool:
    """``np.isfinite(arr).all()``, through the one-reduction fast path."""
    return not _maybe_nonfinite(arr) or bool(np.isfinite(arr).all())


def screen_finite(site: str, *arrays: np.ndarray,
                  report: GuardReport | None = None) -> None:
    """Raise :class:`NumericalHealthError` if any array has NaN/Inf."""
    bad = None
    for arr in arrays:
        if not all_finite(arr):
            bad = arr
            break
    if report is not None:
        report.checks_run += 1
    _count("finite", bad is not None)
    if bad is not None:
        n_bad = int(np.size(bad) - np.count_nonzero(np.isfinite(bad)))
        if report is not None:
            report.tripped = f"finite@{site}"
        raise NumericalHealthError(
            f"non-finite values at {site}: {n_bad} of {np.size(bad)} entries",
            check="finite", site=site,
        )


def estimate_condition(A: np.ndarray) -> float:
    """1-norm condition estimate ``||A||_1 / rcond`` by LAPACK ``getrf``
    + ``gecon`` (Hager/Higham estimation, no Python loop).

    ``gecon``'s ``||A^-1||_1`` is a lower bound, so the estimate never
    exceeds the exact 1-norm condition number and is usually within a
    factor of 3 of it.  Returns ``inf`` for singular (or non-finite)
    blocks.
    """
    if not np.isfinite(A).all():
        return float("inf")
    getrf, gecon = sla.get_lapack_funcs(("getrf", "gecon"), (A,))
    lu, _, info = getrf(A)
    norm_a = float(np.linalg.norm(A, 1))
    if info != 0 or norm_a == 0.0:
        return float("inf")
    rcond, info = gecon(lu, norm_a, norm="1")
    if info != 0 or not rcond > 0.0:
        return float("inf")
    return 1.0 / float(rcond)


def _check_dense_inputs(A: np.ndarray, site: str,
                        condition_limit: float,
                        *extra: np.ndarray) -> None:
    screen_finite(site, A, *extra)
    cond = estimate_condition(A)
    _observe(
        "repro_guard_dense_condition",
        "1-norm condition estimates of guarded dense solves",
        cond,
    )
    tripped = not np.isfinite(cond) or cond > condition_limit
    _count("dense", tripped)
    if tripped:
        raise NumericalHealthError(
            f"dense system at {site} has condition estimate {cond:.3e}"
            f" (limit {condition_limit:.3e})",
            check="condition", site=site, value=cond, limit=condition_limit,
        )


def guarded_solve(A: np.ndarray, b: np.ndarray, *, site: str = "solve",
                  condition_limit: float = 1e12) -> np.ndarray:
    """``np.linalg.solve`` behind the guard battery.

    The linter (rule RPR004) requires every dense solve outside the
    ``core/`` stage kernels to come through here: inputs are screened
    for NaN/Inf, the system's condition is estimated against
    ``condition_limit``, and singular systems surface as the typed
    :class:`NumericalHealthError` (``check="condition"``) rather than a
    raw ``LinAlgError`` — so callers degrade the way the service layer
    expects.
    """
    A = np.asarray(A)
    b = np.asarray(b)
    _check_dense_inputs(A, site, condition_limit, b)
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalHealthError(
            f"dense solve at {site} failed: {exc}",
            check="condition", site=site,
        ) from exc
    screen_finite(site, x)
    return x


def guarded_inv(A: np.ndarray, *, site: str = "inv",
                condition_limit: float = 1e12) -> np.ndarray:
    """``np.linalg.inv`` behind the guard battery (see :func:`guarded_solve`)."""
    A = np.asarray(A)
    _check_dense_inputs(A, site, condition_limit)
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalHealthError(
            f"dense inversion at {site} failed: {exc}",
            check="condition", site=site,
        ) from exc
    screen_finite(site, inv)
    return inv


def sample_indices(n: int, samples: int) -> list[int]:
    """``samples`` deterministic indices spread evenly over ``range(n)``."""
    if samples <= 0 or n <= 0:
        return []
    if samples >= n:
        return list(range(n))
    return sorted({int(i) for i in np.linspace(0, n - 1, samples)})


def check_cluster_conditions(
    B: np.ndarray, config: GuardConfig, report: GuardReport | None = None
) -> float:
    """Condition-growth guard over a sample of clustered blocks.

    ``B`` is the ``(b, N, N)`` block array of the CLS-reduced matrix.
    Raises when the worst sampled estimate exceeds
    ``config.condition_limit``; returns the worst estimate.
    """
    worst = 0.0
    for i in sample_indices(B.shape[0], config.condition_samples):
        worst = max(worst, estimate_condition(B[i]))
    if report is not None:
        report.checks_run += 1
        report.worst_condition = max(report.worst_condition, worst)
        report.details["cluster_condition"] = worst
    _observe(
        "repro_guard_cluster_condition",
        "1-norm condition estimates of sampled CLS clustered blocks",
        worst,
    )
    tripped = worst > config.condition_limit
    _count("condition", tripped)
    if tripped:
        if report is not None:
            report.tripped = "condition@cls"
        raise NumericalHealthError(
            f"clustered block condition estimate {worst:.3e} exceeds"
            f" limit {config.condition_limit:.3e}",
            check="condition", site="cls", value=worst,
            limit=config.condition_limit,
        )
    return worst


def _frobenius(A: np.ndarray) -> float:
    return float(np.sqrt(np.vdot(A, A).real))


def _band_pair(
    seeds: SeedBand | np.ndarray, k0: int
) -> tuple[np.ndarray, np.ndarray]:
    """The two blocks that diagonal entry ``k0`` of ``M~ G~`` reads:
    ``G~_{k0,k0}`` and ``G~_{k0-1,k0}`` (for ``k0 = 0`` the corner
    ``G~_{b-1,0}``), 0-based, from a seed grid or its band."""
    if isinstance(seeds, np.ndarray):
        b = seeds.shape[0]
        return seeds[k0, k0], (seeds[k0 - 1, k0] if k0 else seeds[b - 1, 0])
    return seeds.diag[k0], (seeds.upper[k0 - 1] if k0 else seeds.corner)


def check_seed_residual(
    B: np.ndarray,
    seeds: SeedBand | np.ndarray,
    config: GuardConfig,
    report: GuardReport | None = None,
    t: complex = 1.0,
) -> float:
    """Sampled identity residual of the BSOFI inverse.

    ``t * B`` holds the reduced blocks ``B~_i`` (``(b, N, N)``; ``t``
    is a spectral shift's scale, see :func:`~repro.core.bsofi.bsofi_seeds`);
    ``seeds`` is the band of the BSOFI inverse ``G~`` (a
    :class:`~repro.core.bsofi.SeedBand`) or the whole ``(b, b, N, N)``
    grid.  For sampled rows ``k`` the reduced p-cyclic structure gives

        ``(M~ G~)_{k,k} = G~_{k,k} - B~_k G~_{k-1,k}``  (``k >= 2``)
        ``(M~ G~)_{1,1} = G~_{1,1} + B~_1 G~_{b,1}``

    which must equal ``I``: the diagonal, the super-diagonal and the
    corner of ``G~`` — exactly the band.  Each sample costs one gemm.
    Raises when the worst relative residual exceeds
    ``config.residual_limit``; returns the worst residual.
    """
    b, N = B.shape[0], B.shape[1]
    worst = 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for k0 in sample_indices(b, config.residual_samples):
            G_kk, G_nb = _band_pair(seeds, k0)
            if G_nb.dtype.kind == "c" and B.dtype.kind != "c":
                # A real B~ multiplies the complex seed's float view: one
                # real gemm, no complex copy of B~.
                G_nb = np.ascontiguousarray(G_nb)
                prod = (B[k0] @ G_nb.view(G_nb.real.dtype)).view(G_nb.dtype)
            else:
                prod = B[k0] @ G_nb
            if t != 1.0:
                prod = t * prod
            # Row 1 holds +B~_1 in the corner (b = 1: M~ = I + B~_1).
            R = G_kk + prod if k0 == 0 else G_kk - prod
            R.flat[:: N + 1] -= 1.0
            scale = max(1.0, _frobenius(G_kk) + _frobenius(prod))
            resid = _frobenius(R) / scale
            if not np.isfinite(resid):
                resid = float("inf")
            worst = max(worst, resid)
    if report is not None:
        report.checks_run += 1
        report.worst_residual = max(report.worst_residual, worst)
        report.details["seed_residual"] = worst
    _observe(
        "repro_guard_seed_residual",
        "Sampled relative identity residuals of the BSOFI seed inverse",
        worst,
    )
    tripped = worst > config.residual_limit
    _count("residual", tripped)
    if tripped:
        if report is not None:
            report.tripped = "residual@bsofi"
        raise NumericalHealthError(
            f"seed identity residual {worst:.3e} exceeds limit"
            f" {config.residual_limit:.3e}",
            check="residual", site="bsofi", value=worst,
            limit=config.residual_limit,
        )
    return worst
