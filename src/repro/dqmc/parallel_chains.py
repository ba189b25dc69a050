"""Parallel DQMC: independent Markov chains over SimMPI ranks.

The paper's conclusion lists "the hybrid massive parallelization of the
full DQMC simulation" as future work.  The coarsest (and in practice
most effective) layer of that parallelisation is *chain parallelism*:
run ``R`` statistically independent Markov chains — different seeds,
same physics — one per MPI rank, and pool their measurement bins.
Error bars shrink like ``1/sqrt(R)`` with zero communication during
sampling, and disagreement *between* chains is itself the standard
convergence diagnostic (Gelman–Rubin ``R-hat``).

:func:`run_parallel_chains` executes this on the SimMPI runtime
(threads inside each rank still accelerate the per-chain FSI and
measurements — the full hybrid stack), gathers the per-chain bin means
to the root, and returns pooled estimates plus per-observable ``R-hat``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hubbard.matrix import HubbardModel
from ..transport import BaseCommunicator as Communicator
from ..transport import SimMPI
from .engine import DQMC, DQMCConfig
from .stats import jackknife, jackknife_ratio

__all__ = ["ChainResult", "run_parallel_chains", "gelman_rubin"]


def gelman_rubin(chain_means: np.ndarray) -> float:
    """The Gelman–Rubin ``R-hat`` over per-chain sample arrays.

    ``chain_means`` has shape ``(R, n)`` — ``n`` bin means from each of
    ``R`` chains.  Values near 1 indicate the chains sample the same
    distribution; ``> ~1.1`` flags unconverged warmup.
    """
    chain_means = np.asarray(chain_means, dtype=float)
    R, n = chain_means.shape
    if R < 2 or n < 2:
        raise ValueError("need at least 2 chains with 2 bins each")
    per_chain_mean = chain_means.mean(axis=1)
    grand = per_chain_mean.mean()
    B = n * np.sum((per_chain_mean - grand) ** 2) / (R - 1)
    W = np.mean(np.var(chain_means, axis=1, ddof=1))
    if W == 0.0:
        return 1.0
    var_plus = (n - 1) / n * W + B / n
    return float(np.sqrt(var_plus / W))


@dataclass
class ChainResult:
    """Pooled estimates from ``R`` independent chains."""

    estimates: dict[str, tuple[np.ndarray, np.ndarray]]
    r_hat: dict[str, float]
    n_chains: int
    bins_per_chain: int
    acceptance_rates: list[float]

    def observable(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        return self.estimates[name]


def _chain_body(
    comm: Communicator, model: HubbardModel, base_config: DQMCConfig
) -> dict:
    """One rank: run a chain with a rank-derived seed, return bin means."""
    cfg_dict = {**base_config.__dict__}
    base_seed = cfg_dict.pop("seed") or 0
    cfg = DQMCConfig(**cfg_dict, seed=base_seed + 7919 * comm.rank)
    sim = DQMC(model, cfg)
    # Re-run the engine's measurement loop but keep the raw bins: use
    # the public API — run() — and recover bins from a local analysis.
    from .stats import BinningAnalysis

    analysis = BinningAnalysis(bin_size=cfg.bin_size)
    for _ in range(cfg.warmup_sweeps):
        sim.sweep()
    for it in range(cfg.measurement_sweeps):
        sim.sweep()
        greens = sim.compute_greens()
        if it % cfg.sign_resync_every == 0:
            sim.resync_sign()
        s = sim.config_sign if sim.config_sign is not None else 1.0
        sample = sim.measure(greens)
        weighted = {
            k: np.asarray(v, dtype=float) * s for k, v in sample.items()
        }
        weighted["sign"] = s
        analysis.add(weighted)
    bins = {
        name: series.bin_means(include_partial=True)
        for name, series in analysis._series.items()
    }
    payload = {
        "bins": bins,
        "acceptance": sim.stats.acceptance_rate,
    }
    gathered = comm.gather(payload, root=0)
    return gathered if comm.rank == 0 else payload


def run_parallel_chains(
    model: HubbardModel,
    config: DQMCConfig,
    n_chains: int,
) -> ChainResult:
    """Run ``n_chains`` independent DQMC chains on SimMPI ranks.

    Each rank derives its seed from ``config.seed`` plus its rank, runs
    warmup + measurement locally (with ``config.num_threads`` OpenMP-
    style threads inside the rank), and the root pools the bins:
    jackknife over the union for the estimates, Gelman–Rubin across
    chains for convergence.
    """
    if n_chains < 2:
        raise ValueError(f"need >= 2 chains, got {n_chains}")
    world = SimMPI(n_chains)
    results = world.run(_chain_body, model, config)
    gathered = results[0]
    names = sorted(gathered[0]["bins"])
    estimates: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    r_hat: dict[str, float] = {}
    bins_per_chain = min(len(g["bins"][names[0]]) for g in gathered)
    sign_pooled = np.concatenate(
        [np.asarray(g["bins"]["sign"][:bins_per_chain]) for g in gathered]
    )
    for name in names:
        stacked = np.stack(
            [np.asarray(g["bins"][name][:bins_per_chain]) for g in gathered]
        )
        pooled = stacked.reshape(-1, *stacked.shape[2:])
        if name == "sign":
            estimates[name] = jackknife(pooled)
        else:
            # Sign-reweighted ratio estimator, pooled across chains
            # (reduces to the plain mean when the sign is uniformly 1).
            estimates[name] = jackknife_ratio(pooled, sign_pooled)
        if stacked.ndim == 2 and bins_per_chain >= 2:
            r_hat[name] = gelman_rubin(stacked)
    return ChainResult(
        estimates=estimates,
        r_hat=r_hat,
        n_chains=n_chains,
        bins_per_chain=bins_per_chain,
        acceptance_rates=[g["acceptance"] for g in gathered],
    )
