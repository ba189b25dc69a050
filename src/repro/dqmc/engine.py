"""The DQMC simulation driver (Alg. 4) with FSI-powered measurements.

A full simulation (Fig. 7) is::

    initialise HS field h = (+/-1)
    warmup:       w sweeps
    measurement:  m sweeps, each followed by
                  M_sigma(h) -> FSI -> selected G blocks -> physical
                  measurements

One *sweep* visits every site of every imaginary-time slice, proposing
single HS-spin flips with the Metropolis rule of
:mod:`repro.dqmc.updates`; the wrapped equal-time Green's functions of
both spins are carried along and periodically rebuilt from scratch
(:mod:`repro.dqmc.stabilize`) to bound error accumulation.

The measurement stage is where FSI earns its keep: equal-time
observables need every diagonal block (pattern ``FULL_DIAGONAL``) and
time-dependent SPXX needs ``b`` block rows *and* ``b`` block columns —
all three patterns are wrapped from a *single* CLS+BSOFI seed grid per
spin, so the expensive stages run once per Green's function.

Timings for the Green's-function computation and for the measurement
accumulation are recorded separately, mirroring the runtime profile of
Fig. 10.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.fsi import fsi
from ..core.patterns import Pattern, SelectedInversion, Selection
from ..core.stability import recommend_c
from ..core.wrap import wrap
from ..hubbard.hs_field import HSField
from ..hubbard.matrix import HubbardModel
from ..telemetry import runtime as _telemetry
from .delayed import DelayedGreens
from .measurements import EqualTimeAccumulator, measure_slice
from .spxx import SPXXResult, spxx
from .stabilize import stable_equal_time
from .stats import BinningAnalysis, jackknife, jackknife_ratio
from .updates import (
    UpdateStats,
    advance_slice,
    apply_flip,
    gamma_factor,
    init_wrapped,
    metropolis_ratio,
)

__all__ = ["DQMCConfig", "DQMCResult", "DQMC", "GreensBundle"]


@dataclass(frozen=True)
class DQMCConfig:
    """Run-control parameters of a DQMC simulation.

    Parameters
    ----------
    warmup_sweeps, measurement_sweeps:
        ``w`` and ``m`` of Alg. 4 (the paper's headline run uses
        ``(w, m) = (100, 200)``).
    c:
        FSI cluster size for the measurement Green's functions
        (``None`` = the ``c ~ sqrt(L)`` rule).
    nwrap:
        Rebuild the wrapped Green's function from scratch every
        ``nwrap`` slices during a sweep (stability control).
    bin_size:
        Measurement bin size for the jackknife analysis.
    num_threads:
        OpenMP-style team size for the measurement loops (FSI runs on
        the calling thread).
    measure_time_dependent:
        Compute SPXX (needs rows+columns) in addition to equal-time
        observables.
    seed:
        RNG seed for the HS field initialisation and Metropolis draws.
    delay:
        Delayed-update block size (:mod:`repro.dqmc.delayed`): accepted
        rank-1 Green's-function kicks are accumulated and flushed as
        one gemm every ``delay`` acceptances.  ``1`` = eager updates.
        Mathematically equivalent for any value; larger blocks trade
        BLAS-2 for BLAS-3 work, as production DQMC codes do.
    sign_resync_every:
        Recompute the configuration sign exactly (structured
        determinants) every this many measurement iterations, guarding
        the multiplicative sign tracking against numerical drift.  Only
        matters away from half filling, where ``det M_up det M_dn`` can
        go negative (the fermion sign problem).
    measure_extended:
        Additionally record the extended correlators: connected charge
        correlation, s-wave pairing, the AFM structure factor
        ``S(pi, pi)``, the local imaginary-time Green's function
        ``G_loc(tau)`` and the time-displaced ``szz(tau, d)`` (the last
        two require ``measure_time_dependent``).
    """

    warmup_sweeps: int = 10
    measurement_sweeps: int = 20
    c: int | None = None
    nwrap: int = 8
    bin_size: int = 5
    num_threads: int | None = None
    measure_time_dependent: bool = True
    seed: int | None = None
    delay: int = 1
    sign_resync_every: int = 25
    measure_extended: bool = False

    def __post_init__(self) -> None:
        if self.warmup_sweeps < 0 or self.measurement_sweeps < 0:
            raise ValueError("sweep counts must be non-negative")
        if self.nwrap < 1:
            raise ValueError(f"nwrap must be >= 1, got {self.nwrap}")
        if self.delay < 1:
            raise ValueError(f"delay must be >= 1, got {self.delay}")
        if self.sign_resync_every < 1:
            raise ValueError(
                f"sign_resync_every must be >= 1, got {self.sign_resync_every}"
            )


@dataclass
class GreensBundle:
    """All selected Green's-function pieces for one spin."""

    full_diagonal: SelectedInversion
    rows: SelectedInversion | None
    cols: SelectedInversion | None


@dataclass
class DQMCResult:
    """Output of :meth:`DQMC.run`."""

    estimates: dict[str, tuple[np.ndarray, np.ndarray]]
    spxx_mean: np.ndarray | None
    spxx_error: np.ndarray | None
    acceptance_rate: float
    average_sign: float
    greens_seconds: float
    measurement_seconds: float
    sweep_seconds: float
    max_wrap_drift: float
    sweeps: int

    def observable(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``(mean, error)`` of one observable."""
        return self.estimates[name]


class DQMC:
    """Determinant Quantum Monte Carlo for the Hubbard model.

    >>> from repro.hubbard import HubbardModel, RectangularLattice
    >>> model = HubbardModel(RectangularLattice(4, 4), L=8, U=4.0, beta=2.0)
    >>> sim = DQMC(model, DQMCConfig(warmup_sweeps=2, measurement_sweeps=4,
    ...                              seed=0))
    >>> result = sim.run()            # doctest: +SKIP
    """

    def __init__(self, model: HubbardModel, config: DQMCConfig | None = None):
        self.model = model
        self.config = config or DQMCConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self.field = HSField.random(model.L, model.N, self.rng)
        self.c = self.config.c if self.config.c is not None else recommend_c(model.L)
        if model.L % self.c != 0:
            raise ValueError(
                f"cluster size c={self.c} must divide L={model.L}"
            )
        self.stats = UpdateStats()
        self.max_wrap_drift = 0.0
        #: multiplicatively tracked sign of det M_up(h) det M_dn(h);
        #: initialised exactly on first use, resynced periodically.
        self.config_sign: float | None = None

    # ------------------------------------------------------------------
    # sweeping
    # ------------------------------------------------------------------
    def _rebuild(self, l: int, sigma: int) -> np.ndarray:
        """Stable wrapped Green's function at 1-based slice ``l``."""
        pc = self.model.build_matrix(self.field, sigma)
        return init_wrapped(stable_equal_time(pc, l), self.model)

    def _exact_sign(self) -> float:
        """Sign of the configuration weight via structured determinants.

        Repulsive: ``sign(det M_up det M_dn)``.  Attractive: the weight
        ``e^{-nu sum h} (det M)^2`` is non-negative by construction.
        """
        from ..core.solve import determinant

        if self.model.is_attractive:
            return 1.0
        sign = 1.0
        for sigma in (+1, -1):
            s, _ = determinant(self.model.build_matrix(self.field, sigma))
            sign *= s
        return sign

    def resync_sign(self) -> float:
        """Recompute the configuration sign exactly and adopt it.

        Returns the drift (0.0 if the tracked sign was already right).
        """
        exact = self._exact_sign()
        drift = 0.0 if self.config_sign in (None, exact) else 2.0
        self.config_sign = exact
        return drift

    def sweep(self) -> None:
        """One full space-time Metropolis sweep over the HS field.

        For the attractive model both spins share one Green's function
        and the Metropolis ratio carries the bare HS factor:
        ``r = e^{2 nu h_old} r_B^2`` — manifestly non-negative (no sign
        problem), with a single rank-1 update per acceptance.
        """
        model, field, cfg = self.model, self.field, self.config
        L, N = model.L, model.N
        if self.config_sign is None:
            self.config_sign = self._exact_sign()
        if model.is_attractive:
            self._sweep_attractive()
            return
        Gw = {+1: self._rebuild(1, +1), -1: self._rebuild(1, -1)}
        for l in range(1, L + 1):
            if l > 1:
                rebuild = (l - 1) % cfg.nwrap == 0
                for sigma in (+1, -1):
                    Gw[sigma] = advance_slice(
                        Gw[sigma], model, field, l - 1, sigma
                    )
                    if rebuild:
                        fresh = self._rebuild(l, sigma)
                        drift = float(np.abs(fresh - Gw[sigma]).max())
                        self.max_wrap_drift = max(self.max_wrap_drift, drift)
                        Gw[sigma] = fresh
            uniform = self.rng.random(N)
            if cfg.delay > 1:
                dg = {
                    sigma: DelayedGreens(Gw[sigma], delay=cfg.delay)
                    for sigma in (+1, -1)
                }
                for i in range(N):
                    h_li = int(field.h[l - 1, i])
                    g_up = gamma_factor(model, h_li, +1)
                    g_dn = gamma_factor(model, h_li, -1)
                    r_up = dg[+1].ratio(i, g_up)
                    r_dn = dg[-1].ratio(i, g_dn)
                    r = r_up * r_dn
                    self.stats.proposed += 1
                    if r < 0:
                        self.stats.negative_ratios += 1
                    if uniform[i] < min(1.0, abs(r)):
                        dg[+1].accept(i, g_up, r_up)
                        dg[-1].accept(i, g_dn, r_dn)
                        field.flip(l - 1, i)
                        self.stats.accepted += 1
                        if r < 0:
                            self.config_sign = -self.config_sign
                for sigma in (+1, -1):
                    Gw[sigma] = dg[sigma].matrix
            else:
                for i in range(N):
                    h_li = int(field.h[l - 1, i])
                    g_up = gamma_factor(model, h_li, +1)
                    g_dn = gamma_factor(model, h_li, -1)
                    r_up = metropolis_ratio(Gw[+1], i, g_up)
                    r_dn = metropolis_ratio(Gw[-1], i, g_dn)
                    r = r_up * r_dn
                    self.stats.proposed += 1
                    if r < 0:
                        self.stats.negative_ratios += 1
                    if uniform[i] < min(1.0, abs(r)):
                        apply_flip(Gw[+1], i, g_up, r_up)
                        apply_flip(Gw[-1], i, g_dn, r_dn)
                        field.flip(l - 1, i)
                        self.stats.accepted += 1
                        if r < 0:
                            self.config_sign = -self.config_sign

    def _sweep_attractive(self) -> None:
        """Charge-channel sweep: one shared Green's function."""
        model, field, cfg = self.model, self.field, self.config
        L, N = model.L, model.N
        nu = model.nu
        Gw = self._rebuild(1, +1)
        for l in range(1, L + 1):
            if l > 1:
                Gw = advance_slice(Gw, model, field, l - 1, +1)
                if (l - 1) % cfg.nwrap == 0:
                    fresh = self._rebuild(l, +1)
                    drift = float(np.abs(fresh - Gw).max())
                    self.max_wrap_drift = max(self.max_wrap_drift, drift)
                    Gw = fresh
            uniform = self.rng.random(N)
            for i in range(N):
                h_li = int(field.h[l - 1, i])
                g = gamma_factor(model, h_li, +1)
                r_b = metropolis_ratio(Gw, i, g)
                # Bare HS factor from e^{-nu sum h}: flipping h -> -h
                # multiplies the weight by e^{2 nu h_old}.
                r = float(np.exp(2.0 * nu * h_li)) * r_b * r_b
                self.stats.proposed += 1
                if uniform[i] < min(1.0, r):
                    apply_flip(Gw, i, g, r_b)
                    field.flip(l - 1, i)
                    self.stats.accepted += 1

    # ------------------------------------------------------------------
    # measurement Green's functions (FSI)
    # ------------------------------------------------------------------
    def compute_greens(self, q: int | None = None) -> dict[int, GreensBundle]:
        """Selected Green's functions of both spins from the current field.

        One ``CLS -> BSOFI`` per spin; ``FULL_DIAGONAL`` (always) plus
        ``ROWS`` and ``COLUMNS`` (when time-dependent measurements are
        on) are wrapped from the same seed grid.  ``q`` is drawn
        uniformly when ``None`` and *shared* between the spins so that
        SPXX sees matching block index sets.
        """
        cfg = self.config
        if q is None:
            q = int(self.rng.integers(0, self.c))
        out: dict[int, GreensBundle] = {}
        if self.model.is_attractive:
            # Both spins share one matrix; compute once, alias the bundle.
            sigmas: tuple[int, ...] = (+1,)
        else:
            sigmas = (+1, -1)
        for sigma in sigmas:
            pc = self.model.build_matrix(self.field, sigma)
            res = fsi(pc, self.c, pattern=Pattern.FULL_DIAGONAL, q=q)
            rows = cols = None
            if cfg.measure_time_dependent:
                L = pc.L
                rows = wrap(
                    pc, res.seeds, Selection(Pattern.ROWS, L=L, c=self.c, q=q)
                )
                cols = wrap(
                    pc, res.seeds,
                    Selection(Pattern.COLUMNS, L=L, c=self.c, q=q),
                )
            out[sigma] = GreensBundle(
                full_diagonal=res.selected, rows=rows, cols=cols
            )
        if self.model.is_attractive:
            out[-1] = out[+1]
        return out

    # ------------------------------------------------------------------
    # measurements
    # ------------------------------------------------------------------
    def measure(self, greens: dict[int, GreensBundle]) -> dict[str, np.ndarray | float]:
        """All physical measurements from one set of Green's functions.

        The per-slice equal-time loop runs on the OpenMP-style team with
        *thread-local* accumulators merged at the join — the concurrent-
        write workaround Alg. 3 prescribes for measurement quantities.
        """
        from ..parallel.openmp import thread_local_reduce

        model = self.model
        L = model.L
        diag_up = greens[+1].full_diagonal
        diag_dn = greens[-1].full_diagonal

        def body(l0: int, local: EqualTimeAccumulator) -> None:
            l = l0 + 1
            local.add(measure_slice(diag_up[(l, l)], diag_dn[(l, l)], model))

        def merge(a: EqualTimeAccumulator, b: EqualTimeAccumulator):
            a.merge(b)
            return a

        acc = thread_local_reduce(
            body, L, EqualTimeAccumulator, merge,
            num_threads=self.config.num_threads,
        )
        assert acc is not None
        sample: dict[str, np.ndarray | float] = dict(acc.mean())
        if self.config.measure_extended:
            from .correlations import (
                afm_structure_factor,
                charge_correlation,
                pairing_correlation,
            )

            L_slices = model.L
            charge = np.zeros(model.lattice.d_max)
            pairing = np.zeros(model.lattice.d_max)
            safm = 0.0
            for l in range(1, L_slices + 1):
                gu = diag_up[(l, l)]
                gd = diag_dn[(l, l)]
                charge += charge_correlation(gu, gd, model.lattice)
                pairing += pairing_correlation(gu, gd, model.lattice)
                safm += afm_structure_factor(gu, gd, model.lattice)
            sample["charge_corr"] = charge / L_slices
            sample["pairing_corr"] = pairing / L_slices
            sample["s_afm"] = safm / L_slices
        if self.config.measure_time_dependent:
            gu, gd = greens[+1], greens[-1]
            assert gu.rows is not None and gu.cols is not None
            assert gd.rows is not None and gd.cols is not None
            result: SPXXResult = spxx(
                gu.rows,
                gu.cols,
                gd.rows,
                gd.cols,
                model.lattice,
                num_threads=self.config.num_threads,
            )
            sample["spxx"] = result.values
            if self.config.measure_extended:
                from .tdm import local_greens_tau, szz_tau

                sample["g_loc_tau"] = local_greens_tau(
                    gu.rows, gd.rows, model.lattice
                )
                sample["szz_tau"] = szz_tau(
                    gu.rows,
                    gu.cols,
                    gd.rows,
                    gd.cols,
                    gu.full_diagonal,
                    gd.full_diagonal,
                    model.lattice,
                    num_threads=self.config.num_threads,
                )
        return sample

    # ------------------------------------------------------------------
    # the full simulation
    # ------------------------------------------------------------------
    def run(self) -> DQMCResult:
        """Alg. 4: warmup sweeps, then measurement sweeps with FSI.

        Observables are sign-reweighted: each sample enters the binned
        analysis multiplied by the configuration sign, and the final
        estimates are jackknifed ratios ``<O s> / <s>``.  At half
        filling (``mu = 0``, no sign problem) this reduces exactly to
        the plain estimator.
        """
        cfg = self.config
        analysis = BinningAnalysis(bin_size=cfg.bin_size)
        t_sweep = t_greens = t_measure = 0.0
        for _ in range(cfg.warmup_sweeps):
            t0 = time.perf_counter()
            with _telemetry.span("dqmc.sweep", phase="warmup"):
                self.sweep()
            t_sweep += time.perf_counter() - t0
        for it in range(cfg.measurement_sweeps):
            t0 = time.perf_counter()
            with _telemetry.span("dqmc.sweep", phase="measurement", it=it):
                self.sweep()
            t_sweep += time.perf_counter() - t0
            t0 = time.perf_counter()
            with _telemetry.span("dqmc.greens", it=it):
                greens = self.compute_greens()
            t_greens += time.perf_counter() - t0
            t0 = time.perf_counter()
            if it % cfg.sign_resync_every == 0:
                self.resync_sign()
            s = self.config_sign if self.config_sign is not None else 1.0
            with _telemetry.span("dqmc.measure", it=it):
                sample = self.measure(greens)
            weighted: dict[str, np.ndarray | float] = {
                name: np.asarray(value, dtype=float) * s
                for name, value in sample.items()
            }
            weighted["sign"] = s
            analysis.add(weighted)
            t_measure += time.perf_counter() - t0
        estimates: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        average_sign = 1.0
        if cfg.measurement_sweeps > 0:
            sign_bins = analysis._series["sign"].bin_means(include_partial=True)
            average_sign = float(sign_bins.mean())
            for name, series in analysis._series.items():
                if name == "sign":
                    continue
                estimates[name] = jackknife_ratio(
                    series.bin_means(include_partial=True), sign_bins
                )
            estimates["sign"] = jackknife(sign_bins)
        spxx_mean = spxx_err = None
        if "spxx" in estimates:
            spxx_mean, spxx_err = estimates.pop("spxx")
        return DQMCResult(
            estimates=estimates,
            spxx_mean=spxx_mean,
            spxx_error=spxx_err,
            acceptance_rate=self.stats.acceptance_rate,
            average_sign=average_sign,
            greens_seconds=t_greens,
            measurement_seconds=t_measure,
            sweep_seconds=t_sweep,
            max_wrap_drift=self.max_wrap_drift,
            sweeps=cfg.warmup_sweeps + cfg.measurement_sweeps,
        )
