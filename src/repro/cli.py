"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``validate`` — the Sec. V-A correctness check at configurable scale;
* ``dqmc`` — run a small DQMC simulation and print the observables;
* ``fsi`` — time FSI vs the baselines on one matrix;
* ``tune`` — pick the best hybrid (ranks x threads) configuration for a
  problem size on the Edison model;
* ``tridiag`` — exercise the block tridiagonal extension (selected
  inversion vs dense oracle at chosen size);
* ``trace`` — compare exact vs Hutchinson trace estimation;
* ``serve`` — run the Green's-function service under a synthetic load
  stream, printing periodic metric reports;
* ``submit`` — submit one job to a fresh service instance (twice, to
  demonstrate the cache) and print the result summary;
* ``experiments`` — regenerate every paper table/figure (delegates to
  the ``benchmarks/exp_*`` scripts' library entry points).

Every command returns a non-zero exit code when its internal
validation fails, so shell pipelines and CI can gate on correctness.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro import Pattern, build_hubbard_matrix, fsi
    from repro.core.validate import validate_selected

    M, model, _ = build_hubbard_matrix(
        args.nx, args.nx, L=args.slices, U=args.U, beta=args.beta, rng=args.seed
    )
    res = fsi(M, args.c, pattern=Pattern.COLUMNS, rng=args.seed)
    report = validate_selected(M, res.selected, oracle=args.oracle)
    print(
        f"(N, L) = ({M.N}, {M.L}), c = {args.c}, q = {res.selection.q}:"
        f" {report}"
    )
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_dqmc(args: argparse.Namespace) -> int:
    from repro import DQMC, DQMCConfig, HubbardModel, RectangularLattice

    model = HubbardModel(
        RectangularLattice(args.nx, args.nx),
        L=args.slices,
        U=args.U,
        beta=args.beta,
    )
    sim = DQMC(
        model,
        DQMCConfig(
            warmup_sweeps=args.warmup,
            measurement_sweeps=args.measure,
            c=args.c,
            seed=args.seed,
            delay=args.delay,
        ),
    )
    t0 = time.perf_counter()
    res = sim.run()
    dt = time.perf_counter() - t0
    print(
        f"{args.nx}x{args.nx} lattice, L={args.slices}, U={args.U},"
        f" beta={args.beta}: {res.sweeps} sweeps in {dt:.1f}s,"
        f" acceptance {res.acceptance_rate:.3f}"
    )
    ok = np.isfinite(res.acceptance_rate) and 0.0 <= res.acceptance_rate <= 1.0
    for name in ("density", "double_occupancy", "kinetic_energy", "local_moment"):
        mean, err = res.observable(name)
        print(f"  {name:18s} = {float(mean):+.4f} +- {float(err):.4f}")
        if not (np.isfinite(float(mean)) and np.isfinite(float(err))):
            ok = False
    if not ok:
        print("FAIL: non-finite observables or invalid acceptance rate",
              file=sys.stderr)
        return 1
    return 0


def _cmd_fsi(args: argparse.Namespace) -> int:
    from repro.bench.harness import run_explicit_baseline, run_fsi, run_lu_baseline
    from repro.core.patterns import Pattern, Selection
    from repro import build_hubbard_matrix

    M, _, _ = build_hubbard_matrix(
        args.nx, args.nx, L=args.slices, U=args.U, beta=args.beta, rng=args.seed
    )
    f = run_fsi(M, args.c, Pattern.COLUMNS, q=1,
                repeats=args.repeats, warmup=args.warmup)
    e = run_explicit_baseline(
        M,
        [args.c * i - 1 for i in range(1, M.L // args.c + 1)],
        repeats=args.repeats,
        warmup=args.warmup,
    )
    l = run_lu_baseline(M, Selection(Pattern.COLUMNS, L=M.L, c=args.c, q=1),
                        repeats=args.repeats, warmup=args.warmup)
    print(f"(N, L, c) = ({M.N}, {M.L}, {args.c}), b block columns"
          f" (min of {args.repeats}):")
    for run in (f, e, l):
        print(
            f"  {run.label:9s} {run.seconds * 1e3:9.2f} ms"
            f" (median {run.seconds_median * 1e3:9.2f} ms)"
            f"  {run.flops:.3e} flops  {run.gflops:6.2f} Gflop/s"
        )
    print(f"  FSI speedup: {e.seconds / f.seconds:.1f}x vs explicit,"
          f" {l.seconds / f.seconds:.1f}x vs dense LU")
    # Internal validation: FSI and the explicit form computed the same
    # block columns — they must agree to numerical precision.
    worst = 0.0
    for kl, ref in e.result.items():
        diff = float(np.abs(f.result.selected[kl] - ref).max())
        scale = float(np.abs(ref).max()) or 1.0
        worst = max(worst, diff / scale)
    print(f"  max relative |FSI - explicit| = {worst:.3e}")
    if not (worst < 1e-8):
        print("FAIL: FSI disagrees with the explicit-form oracle",
              file=sys.stderr)
        return 1
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.perf.tuner import tune_hybrid

    result = tune_hybrid(args.N, args.slices, args.c, args.matrices, nodes=args.nodes)
    print(
        f"N={args.N}, L={args.slices}, c={args.c}, {args.matrices} matrices"
        f" on {args.nodes} Edison nodes:"
    )
    for config, mem, rate in result.summary_rows():
        print(f"  {config:>9s}  {mem:6.2f} GB/rank  {rate}")
    if result.best is None:
        print("no feasible configuration!")
        return 1
    b = result.best
    print(f"best: {b.n_ranks}x{b.threads_per_rank} at {b.tflops:.1f} Tflop/s")
    return 0


def _cmd_tridiag(args: argparse.Namespace) -> int:
    import time as _time

    import numpy as np

    from repro.core.patterns import Pattern
    from repro.tridiag import fsi_tridiagonal, laplacian_chain, rgf_diagonal

    J = laplacian_chain(args.slices, args.N)
    t0 = _time.perf_counter()
    sel = fsi_tridiagonal(J, args.c, pattern=Pattern.FULL_DIAGONAL, q=0)
    t_fsi = _time.perf_counter() - t0
    t0 = _time.perf_counter()
    diag = rgf_diagonal(J)
    t_rgf = _time.perf_counter() - t0
    err = max(
        float(np.abs(sel[(i, i)] - diag[i - 1]).max())
        for i in range(1, J.L + 1)
    )
    print(
        f"block tridiagonal Laplacian chain (N, L, c) ="
        f" ({args.N}, {args.slices}, {args.c})"
    )
    print(f"  FSI pipeline : {t_fsi * 1e3:8.2f} ms")
    print(f"  RGF sweep    : {t_rgf * 1e3:8.2f} ms")
    print(f"  max |FSI - RGF| over the diagonal: {err:.3e}")
    if not (err < 1e-8):
        print("FAIL: tridiagonal FSI disagrees with the RGF oracle",
              file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import build_hubbard_matrix
    from repro.apps.trace import exact_trace, hutchinson_trace
    from repro.core.solve import PCyclicSolver

    M, _, _ = build_hubbard_matrix(
        args.nx, args.nx, L=args.slices, U=args.U, beta=args.beta, rng=args.seed
    )
    exact = exact_trace(M, c=args.c)
    print(f"tr(G) on (N, L) = ({M.N}, {M.L}): exact = {exact:.6f}")
    solver = PCyclicSolver(M)
    for n in (8, 32, 128):
        r = hutchinson_trace(M, n_probes=n, rng=args.seed + 1, solver=solver)
        print(
            f"  Hutchinson n={n:4d}: {r.estimate:12.6f}"
            f" +- {r.stderr:8.4f}  (|err| {r.error_vs(exact):8.4f})"
        )
    return 0


def _telemetry_wanted(args: argparse.Namespace) -> bool:
    """Any tracing/metrics flag turns the telemetry subsystem on."""
    return (
        getattr(args, "trace_out", None) is not None
        or getattr(args, "metrics_port", None) is not None
        or getattr(args, "metrics_file", None) is not None
    )


def _finish_telemetry(args: argparse.Namespace, *registries) -> None:
    """Flush the trace/metrics outputs the flags asked for."""
    from repro import telemetry

    trace_out = getattr(args, "trace_out", None)
    if trace_out is not None:
        n = telemetry.write_chrome_trace(trace_out, telemetry.collector())
        print(f"wrote {n} spans to {trace_out}")
    metrics_file = getattr(args, "metrics_file", None)
    if metrics_file is not None:
        with open(metrics_file, "w") as fh:
            fh.write(telemetry.prometheus_text(*registries))
        print(f"wrote metrics to {metrics_file}")


def _resolve_guards(args: argparse.Namespace):
    """Service guards: on by default, ``--no-guards`` turns them off."""
    if getattr(args, "no_guards", False):
        return None
    from repro.resilience import GuardConfig

    return GuardConfig()


def _resolve_chaos_plan(args: argparse.Namespace):
    """Load the ``--chaos-plan`` JSON file (fire drills), if given."""
    path = getattr(args, "chaos_plan", None)
    if path is None:
        return None
    from repro.resilience import FaultPlan

    plan = FaultPlan.load(path)
    print(f"chaos plan active: seed={plan.seed}, {len(plan.rules)} rule(s)")
    return plan


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro import telemetry
    from repro.bench.workloads import (
        Workload,
        arrival_times,
        make_job_stream,
        run_job_stream,
    )
    from repro.core.patterns import Pattern
    from repro.service import BackpressurePolicy, GreensService, ServiceConfig

    if _telemetry_wanted(args):
        telemetry.configure(sample_rate=args.trace_sample)

    w = Workload(
        "serve", nx=args.nx, ny=args.nx, L=args.slices, c=args.c,
        U=args.U, beta=args.beta,
    )
    jobs = make_job_stream(
        w,
        args.jobs,
        duplicate_fraction=args.duplicates,
        pattern=Pattern(args.pattern),
        seed=args.seed,
    )
    arrivals = arrival_times(
        len(jobs), kind=args.arrival, rate=args.rate,
        burst_size=args.burst_size, seed=args.seed,
    )
    config = ServiceConfig(
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        backpressure=BackpressurePolicy(args.backpressure),
        cache_bytes=args.cache_mb * 1024 * 1024,
        job_timeout=args.job_timeout,
        guards=_resolve_guards(args),
        chaos_plan=_resolve_chaos_plan(args),
    )
    print(
        f"serving {len(jobs)} jobs ({args.duplicates * 100:.0f}% duplicates,"
        f" {args.arrival} arrivals) on {config.workers} workers..."
    )
    service = GreensService(config)
    metrics_server = None
    if args.metrics_port is not None:
        metrics_server = telemetry.MetricsServer(
            (telemetry.registry(), service.metrics.registry),
            port=args.metrics_port,
            health=service.health,
        )
        port = metrics_server.start()
        print(f"metrics on http://127.0.0.1:{port}/metrics"
              f" (health on /healthz)")
    stop = threading.Event()

    def reporter() -> None:
        while not stop.wait(args.report_every):
            print(service.report())

    thread = threading.Thread(target=reporter, daemon=True)
    thread.start()
    try:
        report = run_job_stream(
            service, jobs, arrivals=arrivals, time_scale=args.time_scale
        )
    finally:
        stop.set()
        thread.join()
        service.shutdown(drain=True)
        if metrics_server is not None:
            metrics_server.stop()
    print(service.report())
    print(report.summary())
    _finish_telemetry(args, telemetry.registry(), service.metrics.registry)
    if report.failed and not args.allow_failures:
        print(f"FAIL: {report.failed} jobs failed", file=sys.stderr)
        return 1
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.core.patterns import Pattern
    from repro.hubbard.hs_field import HSField
    from repro.service import (
        GreensJob,
        GreensService,
        ModelSpec,
        ServiceConfig,
        ServiceError,
    )

    if _telemetry_wanted(args):
        telemetry.configure(sample_rate=args.trace_sample)

    spectral = None
    if args.n_omega > 0:
        if args.flips > 0:
            print(
                "FAIL: --flips and --n-omega are mutually exclusive"
                " (spectral jobs have no delta path)",
                file=sys.stderr,
            )
            return 2
        from repro.spectral import SpectralSpec

        spectral = SpectralSpec.linear(
            args.omega_min, args.omega_max, args.n_omega, args.eta
        )

    spec = ModelSpec(
        nx=args.nx, ny=args.nx, L=args.slices, U=args.U, beta=args.beta
    )
    field = HSField.random(spec.L, spec.N, np.random.default_rng(args.seed))
    job = GreensJob.from_field(
        spec, field, c=args.c, pattern=Pattern(args.pattern), q=args.q,
        spectral=spectral,
    )
    print(f"job {job!r}")
    config = ServiceConfig(
        workers=1,
        guards=_resolve_guards(args),
        chaos_plan=_resolve_chaos_plan(args),
    )
    with GreensService(config) as svc:
        try:
            first = svc.submit(job).result(timeout=args.timeout)
            again = svc.submit(job)
            second = again.result(timeout=args.timeout)
        except ServiceError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        norm = sum(float(np.abs(b).sum()) for b in first.blocks.values())
        print(
            f"  {len(first.blocks)} blocks, {first.nbytes} bytes,"
            f" {first.flops:.3e} flops in {first.exec_seconds * 1e3:.2f} ms"
        )
        print(f"  sum |G| over selection = {norm:.6f}")
        print(
            f"  resubmit: cache_hit={again.cache_hit}"
            f" (hit rate {svc.stats()['cache']['hit_rate'] * 100:.0f}%)"
        )
        if spectral is not None:
            # A fanned-out spectral parent is stitched, not cached; its
            # chunks are the cache unit, so the resubmission must have
            # produced at least one chunk hit instead.
            if svc.stats()["cache"]["hits"] < 1:
                print(
                    "FAIL: spectral resubmission hit no cached chunk",
                    file=sys.stderr,
                )
                return 1
        elif not again.cache_hit:
            print("FAIL: resubmission did not hit the cache", file=sys.stderr)
            return 1
        if second.fingerprint != first.fingerprint:
            print("FAIL: resubmission changed fingerprint", file=sys.stderr)
            return 1
        if spectral is not None:
            from repro.resilience.guards import guarded_inv
            from repro.spectral import density_of_states, spectral_function

            grid = spectral.grid()
            print(f"  rung={first.rung} over omega in"
                  f" [{grid.omegas[0]:+.2f}, {grid.omegas[-1]:+.2f}],"
                  f" eta={grid.etas[0]:g}")
            diag = sorted(kl for kl in first.blocks if kl[0] == kl[1])
            if diag:
                A = spectral_function(first.blocks[diag[0]])
                dos = density_of_states(A)
                k = diag[0][0]
                print(f"  DOS of time block ({k},{k}):")
                for j in range(grid.n):
                    print(f"    omega={grid.omegas[j]:+7.3f}"
                          f"  A={dos[j]: .6f}")
            # Dense-oracle self-check: on CLI-sized problems the full
            # resolvent is directly computable, so verify the service's
            # answer before reporting success.
            dense = spec.build_model().build_matrix(
                field, spec.sigma
            ).to_dense()
            eye = np.eye(dense.shape[0])
            N = spec.N
            worst = 0.0
            for j in (0, grid.n // 2, grid.n - 1):
                ref = guarded_inv(grid.z[j] * eye - dense)
                scale = float(np.abs(ref).max()) or 1.0
                for (k, l), blk in first.blocks.items():
                    refb = ref[(k - 1) * N:k * N, (l - 1) * N:l * N]
                    worst = max(
                        worst, float(np.abs(blk[j] - refb).max()) / scale
                    )
            print(f"  dense-oracle check over 3 shifts: max err {worst:.3e}")
            if worst > 1e-8:
                print(
                    "FAIL: spectral blocks disagree with the dense"
                    " resolvent oracle",
                    file=sys.stderr,
                )
                return 1
        if args.flips > 0:
            from repro.core.fsi import fsi

            rng = np.random.default_rng(args.seed + 1)
            flipped = field.copy()
            positions: set[tuple[int, int]] = set()
            while len(positions) < args.flips:
                positions.add(
                    (int(rng.integers(spec.L)), int(rng.integers(spec.N)))
                )
            for sl, site in positions:
                flipped.flip(sl, site)
            base_fp = args.base or job.fingerprint
            delta_job = GreensJob.from_field(
                spec, flipped, c=args.c, pattern=Pattern(args.pattern),
                q=args.q,
            ).with_base(base_fp)
            ticket = svc.submit(delta_job)
            try:
                delta = ticket.result(timeout=args.timeout)
            except ServiceError as exc:
                print(f"FAIL: {exc}", file=sys.stderr)
                return 1
            speedup = first.exec_seconds / max(delta.exec_seconds, 1e-12)
            print(
                f"  {args.flips}-flip resubmit with --base"
                f" {base_fp[:12]}: rung={delta.rung}"
                f" delta_hit={ticket.delta_hit}"
                f" in {delta.exec_seconds * 1e3:.2f} ms"
                f" ({speedup:.1f}x vs full solve)"
            )
            pc = spec.build_model().build_matrix(flipped, spec.sigma)
            ref = fsi(pc, args.c, pattern=Pattern(args.pattern), q=args.q)
            worst = 0.0
            for kl, blk in delta.blocks.items():
                refb = ref.selected[kl]
                scale = float(np.linalg.norm(refb)) or 1.0
                worst = max(
                    worst, float(np.linalg.norm(blk - refb)) / scale
                )
            print(f"  max relative |delta - direct| = {worst:.3e}")
            if worst > 1e-8:
                print(
                    "FAIL: delta-served result disagrees with a fresh"
                    " direct solve",
                    file=sys.stderr,
                )
                return 1
        _finish_telemetry(args, telemetry.registry(), svc.metrics.registry)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    import pathlib

    bench = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
    if not bench.is_dir():
        print(f"benchmarks directory not found at {bench}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(bench))
    import exp_t1_patterns
    import exp_t2_complexity
    import exp_f8_single_node
    import exp_f9_hybrid
    import exp_f10_profile
    import exp_f11_dqmc

    exp_t1_patterns.run().print()
    exp_t2_complexity.formula_table().print()
    exp_f8_single_node.fig8_top().print()
    exp_f8_single_node.fig8_bottom().print()
    exp_f9_hybrid.modeled_sweep().print()
    exp_f10_profile.modeled_profile().print()
    exp_f11_dqmc.modeled_runtime().print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="FSI selected inversion for DQMC Green's functions",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="Sec. V-A correctness check")
    v.add_argument("--nx", type=int, default=6)
    v.add_argument("--slices", type=int, default=32, dest="slices")
    v.add_argument("--c", type=int, default=8)
    v.add_argument("--U", type=float, default=2.0)
    v.add_argument("--beta", type=float, default=1.0)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--oracle", choices=("dense", "explicit"), default="dense")
    v.set_defaults(func=_cmd_validate)

    d = sub.add_parser("dqmc", help="run a DQMC simulation")
    d.add_argument("--nx", type=int, default=4)
    d.add_argument("--slices", type=int, default=16)
    d.add_argument("--c", type=int, default=4)
    d.add_argument("--U", type=float, default=4.0)
    d.add_argument("--beta", type=float, default=2.0)
    d.add_argument("--warmup", type=int, default=5)
    d.add_argument("--measure", type=int, default=10)
    d.add_argument("--delay", type=int, default=1)
    d.add_argument("--seed", type=int, default=0)
    d.set_defaults(func=_cmd_dqmc)

    f = sub.add_parser("fsi", help="time FSI vs baselines")
    f.add_argument("--nx", type=int, default=6)
    f.add_argument("--slices", type=int, default=40)
    f.add_argument("--c", type=int, default=8)
    f.add_argument("--U", type=float, default=2.0)
    f.add_argument("--beta", type=float, default=1.0)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--repeats", type=int, default=3,
                   help="timing repeats (reports min/median)")
    f.add_argument("--warmup", type=int, default=1,
                   help="discarded warmup runs before timing")
    f.set_defaults(func=_cmd_fsi)

    t = sub.add_parser("tune", help="pick the best hybrid configuration")
    t.add_argument("--N", type=int, default=576)
    t.add_argument("--slices", type=int, default=100)
    t.add_argument("--c", type=int, default=10)
    t.add_argument("--matrices", type=int, default=2400)
    t.add_argument("--nodes", type=int, default=100)
    t.set_defaults(func=_cmd_tune)

    td = sub.add_parser("tridiag", help="block tridiagonal FSI extension")
    td.add_argument("--N", type=int, default=12)
    td.add_argument("--slices", type=int, default=32)
    td.add_argument("--c", type=int, default=8)
    td.set_defaults(func=_cmd_tridiag)

    tr = sub.add_parser("trace", help="exact vs stochastic trace of G")
    tr.add_argument("--nx", type=int, default=5)
    tr.add_argument("--slices", type=int, default=24)
    tr.add_argument("--c", type=int, default=4)
    tr.add_argument("--U", type=float, default=2.0)
    tr.add_argument("--beta", type=float, default=1.0)
    tr.add_argument("--seed", type=int, default=0)
    tr.set_defaults(func=_cmd_trace)

    from repro.core.patterns import Pattern
    from repro.service import BackpressurePolicy, ServiceConfig

    patterns = [pat.value for pat in Pattern]

    s = sub.add_parser("serve", help="run the Green's-function service"
                                     " under synthetic load")
    s.add_argument("--nx", type=int, default=3)
    s.add_argument("--slices", type=int, default=8)
    s.add_argument("--c", type=int, default=4)
    s.add_argument("--U", type=float, default=2.0)
    s.add_argument("--beta", type=float, default=1.0)
    s.add_argument("--pattern", choices=patterns, default="diagonal")
    s.add_argument("--jobs", type=int, default=60)
    s.add_argument("--duplicates", type=float, default=0.3,
                   help="fraction of the stream that repeats earlier jobs")
    s.add_argument("--workers", type=int, default=2)
    s.add_argument("--queue-capacity", type=int, default=256)
    s.add_argument("--backpressure",
                   choices=[pol.value for pol in BackpressurePolicy],
                   default="block")
    s.add_argument("--cache-mb", type=int,
                   default=ServiceConfig.cache_bytes // (1024 * 1024),
                   help="result-cache byte budget in MiB (default: %(default)s)")
    s.add_argument("--job-timeout", type=float, default=None)
    s.add_argument("--arrival", choices=("poisson", "burst", "closed"),
                   default="poisson")
    s.add_argument("--rate", type=float, default=200.0,
                   help="mean arrival rate (requests/second)")
    s.add_argument("--burst-size", type=int, default=8)
    s.add_argument("--time-scale", type=float, default=1.0,
                   help="0 submits the whole stream as one burst")
    s.add_argument("--report-every", type=float, default=2.0)
    s.add_argument("--allow-failures", action="store_true")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trace-out", default=None,
                   help="write a Chrome trace-event JSON of all spans here")
    s.add_argument("--trace-sample", type=float, default=1.0,
                   help="head-based sampling rate for traces (0..1)")
    s.add_argument("--metrics-port", type=int, default=None,
                   help="serve Prometheus text on this port (0 = ephemeral);"
                        " also exposes /healthz")
    s.add_argument("--metrics-file", default=None,
                   help="write a final Prometheus text snapshot here")
    s.add_argument("--chaos-plan", default=None,
                   help="JSON FaultPlan file: inject deterministic faults"
                        " (fire drill)")
    s.add_argument("--no-guards", action="store_true",
                   help="disable numerical health guards / fallback ladder")
    s.set_defaults(func=_cmd_serve)

    sb = sub.add_parser("submit", help="submit one job to a fresh service")
    sb.add_argument("--nx", type=int, default=3)
    sb.add_argument("--slices", type=int, default=8)
    sb.add_argument("--c", type=int, default=4)
    sb.add_argument("--U", type=float, default=2.0)
    sb.add_argument("--beta", type=float, default=1.0)
    sb.add_argument("--pattern", choices=patterns, default="columns")
    sb.add_argument("--q", type=int, default=0)
    sb.add_argument("--seed", type=int, default=0)
    sb.add_argument("--timeout", type=float, default=120.0)
    sb.add_argument("--flips", type=int, default=0,
                    help="after the base solve, resubmit with this many"
                         " random HS flips and a --base hint so the"
                         " service serves a Sherman-Morrison delta")
    sb.add_argument("--base", default=None,
                    help="explicit base fingerprint for the --flips"
                         " resubmission (defaults to the first job's)")
    sb.add_argument("--n-omega", type=int, default=0,
                    help="request the resolvent G(omega + i eta) on this"
                         " many grid points instead of the equal-time"
                         " Green's function (0 = equal-time)")
    sb.add_argument("--omega-min", type=float, default=-4.0,
                    help="lower edge of the omega grid")
    sb.add_argument("--omega-max", type=float, default=4.0,
                    help="upper edge of the omega grid")
    sb.add_argument("--eta", type=float, default=0.1,
                    help="broadening: the constant imaginary part of the"
                         " shifts")
    sb.add_argument("--trace-out", default=None,
                    help="write a Chrome trace-event JSON of all spans here")
    sb.add_argument("--trace-sample", type=float, default=1.0,
                    help="head-based sampling rate for traces (0..1)")
    sb.add_argument("--metrics-file", default=None,
                    help="write a final Prometheus text snapshot here")
    sb.add_argument("--chaos-plan", default=None,
                    help="JSON FaultPlan file: inject deterministic faults"
                         " (fire drill)")
    sb.add_argument("--no-guards", action="store_true",
                    help="disable numerical health guards / fallback ladder")
    sb.set_defaults(func=_cmd_submit)

    e = sub.add_parser("experiments", help="regenerate paper tables/figures")
    e.set_defaults(func=_cmd_experiments)

    # Imported lazily-by-module (not inside main) so `repro lint --help`
    # is discoverable; the analysis package itself imports nothing heavy.
    from .analysis.cli import add_lint_parser, run_lint

    lint = add_lint_parser(sub)
    lint.set_defaults(func=run_lint)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # Bad parameter combinations (c not dividing L, q out of range,
        # duplicate fraction outside [0, 1), ...) are user errors, not
        # crashes: report them cleanly instead of with a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
