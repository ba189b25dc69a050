"""The telemetry subsystem: spans, metrics, exporters, propagation.

Covers the acceptance scenarios of :mod:`repro.telemetry`:

* span context propagation across thread fan-out (``parallel_for``)
  and SimMPI rank threads — one trace id end to end;
* cross-process propagation: ``inject`` → carrier → ``activate_remote``
  round-trips the scheduler's dispatch context into a worker;
* head-based sampling is all-or-nothing per trace;
* the metric registry's get-or-create semantics and label handling;
* torn-read safety: concurrent ``Histogram.observe`` vs ``snapshot``;
* exporters: Chrome trace events, Prometheus text, the HTTP endpoint;
* the end-to-end service round trip — one ``GreensService`` request
  produces a single stitched trace containing scheduler, worker-process
  and CLS/BSOFI/WRP stage spans.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro import telemetry
from repro.core.fsi import fsi
from repro.core.patterns import Pattern
from repro.hubbard.hs_field import HSField
from repro.parallel.openmp import parallel_for
from repro.transport import SimMPI
from repro.telemetry import FlopTracer, record_flops
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NULL_SPAN,
    SpanContext,
    TraceCollector,
    Tracer,
    chrome_trace_events,
    current_context,
    prometheus_text,
    spans_to_jsonl,
    use_context,
)
from repro.telemetry.exporters import MetricsServer


def make_hubbard_pc():
    from repro.hubbard.lattice import RectangularLattice
    from repro.hubbard.matrix import HubbardModel

    m = HubbardModel(RectangularLattice(2, 2), L=8, U=2.0, beta=1.0)
    return m.build_matrix(HSField.random(8, 4, np.random.default_rng(0)), +1)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts from (and leaves behind) pristine global state."""
    telemetry.reset()
    yield
    telemetry.reset()


# ----------------------------------------------------------------------
# context + spans
# ----------------------------------------------------------------------

class TestSpanContext:
    def test_dict_round_trip(self):
        ctx = SpanContext("a" * 32, "b" * 16, sampled=False)
        again = SpanContext.from_dict(ctx.to_dict())
        assert again == ctx

    def test_no_ambient_context_by_default(self):
        assert current_context() is None

    def test_use_context_nests_and_restores(self):
        a = SpanContext("a" * 32, "1" * 16)
        b = SpanContext("a" * 32, "2" * 16)
        with use_context(a):
            assert current_context() is a
            with use_context(b):
                assert current_context() is b
            assert current_context() is a
        assert current_context() is None


class TestTracer:
    def test_child_shares_trace_id(self):
        tr = Tracer(TraceCollector())
        with tr.span("parent") as parent:
            with tr.span("child") as child:
                assert child.context.trace_id == parent.context.trace_id
                assert child.parent_id == parent.context.span_id

    def test_parent_none_forces_new_trace(self):
        tr = Tracer(TraceCollector())
        with tr.span("a") as a:
            root = tr.start_span("b", parent=None)
            assert root.context.trace_id != a.context.trace_id
            assert root.parent_id is None
            root.end()

    def test_records_land_in_collector(self):
        coll = TraceCollector()
        tr = Tracer(coll)
        with tr.span("work", stage="cls"):
            pass
        (rec,) = coll.snapshot()
        assert rec["name"] == "work"
        assert rec["attributes"] == {"stage": "cls"}
        assert rec["end_time"] >= rec["start_time"]

    def test_sampling_is_all_or_nothing(self):
        coll = TraceCollector()
        tr = Tracer(coll, sample_rate=0.5, seed=7)
        for _ in range(50):
            with tr.span("root"):
                with tr.span("child"):
                    pass
        traces = coll.traces()
        assert traces  # seed 7 samples at least one of 50 at rate 0.5
        for records in traces.values():
            assert {r["name"] for r in records} == {"root", "child"}

    def test_rate_zero_records_nothing(self):
        coll = TraceCollector()
        tr = Tracer(coll, sample_rate=0.0)
        with tr.span("root"):
            with tr.span("child"):
                pass
        assert len(coll) == 0

    def test_end_is_idempotent(self):
        coll = TraceCollector()
        sp = Tracer(coll).start_span("once")
        sp.end()
        sp.end()
        assert len(coll) == 1

    def test_collector_bounded(self):
        coll = TraceCollector(capacity=3)
        for i in range(5):
            coll.add({"trace_id": "t", "n": i})
        assert len(coll) == 3
        assert coll.dropped == 2


class TestRuntime:
    def test_disabled_span_is_shared_null(self):
        assert telemetry.span("anything") is NULL_SPAN
        assert telemetry.start_span("anything") is NULL_SPAN
        assert telemetry.inject() is None

    def test_null_span_accepts_full_span_api(self):
        with NULL_SPAN as sp:
            sp.set_attribute("k", 1)
            sp.end()
        assert sp.context is None

    def test_configure_enables_and_reset_disables(self):
        telemetry.configure(sample_rate=1.0)
        assert telemetry.enabled()
        with telemetry.span("on"):
            pass
        assert len(telemetry.collector()) == 1
        telemetry.reset()
        assert not telemetry.enabled()
        assert len(telemetry.collector()) == 0

    def test_inject_activate_round_trip(self):
        telemetry.configure()
        with telemetry.span("origin") as origin:
            carrier = telemetry.inject(origin.context)
        with telemetry.activate_remote(carrier) as local:
            with telemetry.span("remote"):
                pass
            records = local.drain()
        (rec,) = [r for r in records if r["name"] == "remote"]
        assert rec["trace_id"] == origin.context.trace_id
        assert rec["parent_id"] == origin.context.span_id

    def test_activate_remote_none_carrier_is_noop(self):
        with telemetry.activate_remote(None) as local:
            assert local is None
            assert telemetry.span("x") is NULL_SPAN

    def test_activate_remote_unsampled_is_noop(self):
        carrier = {"trace_id": "t" * 32, "span_id": "s" * 16, "sampled": False}
        with telemetry.activate_remote(carrier) as local:
            assert local is None

    def test_activate_remote_restores_prior_state(self):
        telemetry.configure()
        global_collector = telemetry.collector()
        carrier = {"trace_id": "t" * 32, "span_id": "s" * 16, "sampled": True}
        with telemetry.activate_remote(carrier):
            assert telemetry.collector() is not global_collector
        assert telemetry.collector() is global_collector
        assert telemetry.enabled()


# ----------------------------------------------------------------------
# propagation through the parallel layers
# ----------------------------------------------------------------------

class TestPropagation:
    def test_parallel_for_inherits_ambient_context(self):
        telemetry.configure()
        with telemetry.span("outer") as outer:

            def body(i):
                with telemetry.span("iter", i=i):
                    pass

            parallel_for(body, 8, num_threads=4)
        records = telemetry.collector().snapshot()
        iters = [r for r in records if r["name"] == "iter"]
        assert len(iters) == 8
        for r in iters:
            assert r["trace_id"] == outer.context.trace_id
            assert r["parent_id"] == outer.context.span_id

    def test_simmpi_ranks_share_trace(self):
        telemetry.configure()

        def main(comm):
            comm.barrier()
            return comm.rank

        with telemetry.span("driver") as driver:
            SimMPI(4).run(main)
        records = telemetry.collector().snapshot()
        ranks = [r for r in records if r["name"] == "simmpi.rank"]
        assert len(ranks) == 4
        assert {r["attributes"]["rank"] for r in ranks} == {0, 1, 2, 3}
        assert {r["trace_id"] for r in ranks} == {driver.context.trace_id}

    def test_fsi_emits_stage_spans_under_one_trace(self):
        telemetry.configure()
        model = pytest.importorskip("repro.hubbard.matrix").HubbardModel
        from repro.hubbard.lattice import RectangularLattice

        m = model(RectangularLattice(2, 2), L=8, U=2.0, beta=1.0)
        field = HSField.random(8, 4, np.random.default_rng(0))
        pc = m.build_matrix(field, +1)
        fsi(pc, 4, pattern=Pattern.DIAGONAL)
        traces = telemetry.collector().traces()
        assert len(traces) == 1
        names = {r["name"] for r in next(iter(traces.values()))}
        assert {"fsi", "cls", "cls.reduce", "bsofi", "wrp"} <= names

    def test_disabled_fsi_records_nothing(self):
        from repro.hubbard.lattice import RectangularLattice
        from repro.hubbard.matrix import HubbardModel

        m = HubbardModel(RectangularLattice(2, 2), L=8, U=2.0, beta=1.0)
        field = HSField.random(8, 4, np.random.default_rng(0))
        pc = m.build_matrix(field, +1)
        fsi(pc, 4)
        assert len(telemetry.collector()) == 0


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

class TestMetricRegistry:
    def test_get_or_create_returns_same_family(self):
        r = MetricRegistry()
        a = r.counter("repro_x_total", "help")
        b = r.counter("repro_x_total")
        assert a is b

    def test_kind_mismatch_raises(self):
        r = MetricRegistry()
        r.counter("repro_x_total")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("repro_x_total")

    def test_label_mismatch_raises(self):
        r = MetricRegistry()
        r.counter("repro_x_total", labels=("stage",))
        with pytest.raises(ValueError, match="labels"):
            r.counter("repro_x_total", labels=("op",))

    def test_labeled_children_are_get_or_create(self):
        r = MetricRegistry()
        fam = r.counter("repro_x_total", labels=("stage",))
        fam.labels(stage="cls").inc(3)
        fam.labels(stage="cls").inc(4)
        fam.labels(stage="wrp").inc(1)
        assert fam.labels(stage="cls").value == 7
        assert dict(
            (values, child.value) for values, child in fam.samples()
        ) == {("cls",): 7, ("wrp",): 1}

    def test_wrong_label_names_raise(self):
        r = MetricRegistry()
        fam = r.counter("repro_x_total", labels=("stage",))
        with pytest.raises(ValueError, match="expects labels"):
            fam.labels(op="send")

    def test_labelless_family_delegates(self):
        r = MetricRegistry()
        c = r.counter("repro_plain_total")
        c.inc()
        c.inc(2)
        assert c.value == 3
        h = r.histogram("repro_lat_seconds")
        h.observe(1.0)
        h.observe(3.0)
        assert h.mean == 2.0
        assert h.snapshot()["count"] == 2.0

    def test_labelled_family_rejects_bare_use(self):
        r = MetricRegistry()
        fam = r.counter("repro_x_total", labels=("stage",))
        with pytest.raises(ValueError, match="use .labels"):
            fam.inc()

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter().inc(-1)

    def test_callback_gauge_reads_live_and_rejects_set(self):
        depth = [5]
        g = Gauge(callback=lambda: depth[0])
        assert g.value == 5.0
        depth[0] = 9
        assert g.value == 9.0
        with pytest.raises(RuntimeError):
            g.set(1.0)


class TestHistogramConcurrency:
    def test_concurrent_observe_and_snapshot_never_torn(self):
        """Snapshots taken during a storm of observes must be internally
        consistent: percentiles bounded by min/max, mean = sum/count."""
        h = Histogram(capacity=512)
        stop = threading.Event()
        errors: list[str] = []

        def writer(offset):
            i = 0
            while not stop.is_set():
                h.observe(float(offset + i % 100))
                i += 1

        def reader():
            while not stop.is_set():
                s = h.snapshot()
                if s["count"] == 0:
                    continue
                if not (s["min"] <= s["p50"] <= s["p95"] <= s["p99"] <= s["max"]):
                    errors.append(f"torn percentiles: {s}")
                if not (s["min"] <= s["mean"] <= s["max"]):
                    errors.append(f"torn mean: {s}")

        threads = [threading.Thread(target=writer, args=(k,)) for k in range(3)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        timer = threading.Timer(0.3, stop.set)
        timer.start()
        for t in threads:
            t.join()
        timer.cancel()
        assert not errors, errors[:3]

    def test_ring_keeps_recent_window(self):
        h = Histogram(capacity=4)
        for v in (1.0, 2.0, 3.0, 4.0, 100.0):
            h.observe(v)
        assert h.count == 5  # exact running count over all observations
        assert h.max == 100.0
        assert h.percentile(100.0) == 100.0  # 100 is inside the window


class TestFlopTracerRegistry:
    def test_stage_flops_flushed_when_enabled(self):
        telemetry.configure()
        with FlopTracer() as tr:
            with telemetry.stage("cls"):
                record_flops(123.0)
        fam = telemetry.registry().get("repro_stage_flops_total")
        assert fam is not None
        assert fam.labels(stage="cls").value == 123.0
        assert tr.flops("cls") == 123.0

    def test_reentered_tracer_exports_each_second_once(self):
        """Each stage exports once, at its exit: a tracer entered three
        times reads exactly the stage time the registry exports."""
        import time

        telemetry.configure()
        tr = FlopTracer()
        for _ in range(3):
            with tr, telemetry.stage("cls"):
                record_flops(10.0)
                time.sleep(0.01)
        fam = telemetry.registry().get("repro_stage_seconds_total")
        assert fam.labels(stage="cls").value == pytest.approx(
            tr.elapsed("cls"), rel=1e-9
        )
        flops = telemetry.registry().get("repro_stage_flops_total")
        assert flops.labels(stage="cls").value == 30.0

    def test_stage_without_flops_exports_seconds(self):
        """DIAGONAL WRP is a copy (zero flops); its time still exports."""
        telemetry.configure()
        pc = make_hubbard_pc()
        with FlopTracer() as tr:
            fsi(pc, 4, Pattern.DIAGONAL, q=0)
        assert tr.flops("wrp") == 0.0 and tr.elapsed("wrp") > 0.0
        fam = telemetry.registry().get("repro_stage_seconds_total")
        exported = {key: child.value for key, child in fam.samples()}
        assert exported[("wrp",)] == pytest.approx(tr.elapsed("wrp"))

    def test_no_registry_writes_when_disabled(self):
        with FlopTracer() as tr:
            with telemetry.stage("cls"):
                record_flops(123.0)
        assert telemetry.registry().get("repro_stage_flops_total") is None
        assert tr.flops("cls") == 123.0  # tracer accounting unaffected


class TestStage:
    def test_stage_is_span_without_a_tracer(self):
        assert telemetry.stage("cls") is NULL_SPAN
        telemetry.configure()
        with telemetry.stage("cls", n=3):
            record_flops(4.0, 8.0)
        (record,) = telemetry.collector().snapshot()
        assert record["name"] == "cls"
        assert record["attributes"] == {"n": 3, "flops": 4.0, "bytes": 8.0}

    def test_stage_opens_span_and_credits_every_tracer(self):
        """One stage record: nested tracers agree on the stage, and the
        registry exports its flops once."""
        telemetry.configure()
        with FlopTracer() as outer, FlopTracer() as inner:
            with telemetry.stage("bsofi"):
                record_flops(5.0)
        for tr in (outer, inner):
            assert tr.flops("bsofi") == 5.0 and tr.elapsed("bsofi") > 0
            assert tr.stages == ("bsofi",)
        assert [r["name"] for r in telemetry.collector().snapshot()] == [
            "bsofi"
        ]
        fam = telemetry.registry().get("repro_stage_flops_total")
        assert {key: child.value for key, child in fam.samples()} == {
            ("bsofi",): 5.0
        }

    def test_capture_thread_carries_tracers_stage_and_context(self):
        telemetry.configure()
        seen = {}
        with FlopTracer() as tr, telemetry.stage("wrp"):
            adopt = telemetry.capture_thread()

            def worker():
                with adopt():
                    record_flops(7.0)
                    seen["ctx"] = current_context()

            t = threading.Thread(target=worker)
            t.start()
            t.join()
            here = current_context()
        assert tr.flops("wrp") == 7.0
        assert seen["ctx"] == here

    @pytest.mark.parametrize("pattern", [Pattern.DIAGONAL, Pattern.COLUMNS])
    def test_stage_spans_carry_the_tracer_flops(self, pattern):
        telemetry.configure()
        with FlopTracer() as tr:
            fsi(make_hubbard_pc(), 4, pattern, q=1)
        spans = {
            r["name"]: r["attributes"]
            for r in telemetry.collector().snapshot()
            if "flops" in r["attributes"]
        }
        assert set(spans) == set(tr.stages) >= {"cls", "bsofi", "wrp"}
        for name, attributes in spans.items():
            assert attributes["flops"] == tr.flops(name)
            assert attributes["bytes"] == tr.mem_bytes(name)

    def test_cls_given_num_threads_credits_exactly_the_cls_count(self):
        from repro.core.cls import cls, cls_flops

        pc = make_hubbard_pc()
        with FlopTracer() as tr, telemetry.stage("cls"):
            reduced = cls(pc, 4, 1, num_threads=4)
        assert tr.stages == ("cls",)
        assert tr.flops("cls") == cls_flops(pc.L, pc.N, 4)
        np.testing.assert_array_equal(reduced.B, cls(pc, 4, 1).B)

    def test_sweep_shift_stages_reach_the_forking_tracer(self):
        """A sweep's shift stages reach the caller's tracer, and the
        ignored ``num_threads`` changes no count."""
        from repro.spectral.grid import OmegaGrid
        from repro.spectral.resolvent import ResolventFactor

        pc = make_hubbard_pc()
        grid = OmegaGrid.linear(-2.0, 2.0, 4, eta=0.3)
        with FlopTracer() as serial:
            ResolventFactor(pc, 4).sweep(grid, num_threads=1)
        with FlopTracer() as team:
            ResolventFactor(pc, 4).sweep(grid, num_threads=2)
        assert team.flops("bsofi") > 0
        assert team.summary().keys() == serial.summary().keys()
        for name in serial.stages:
            assert team.flops(name) == serial.flops(name)


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------

def _sample_records():
    coll = TraceCollector()
    tr = Tracer(coll)
    with tr.span("root", stage="fsi"):
        with tr.span("leaf"):
            pass
    return coll.snapshot()


class TestExporters:
    def test_chrome_events_structure(self):
        events = chrome_trace_events(_sample_records())
        slices = [e for e in events if e["ph"] == "X"]
        metas = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in slices} == {"root", "leaf"}
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in slices)
        assert len({e["args"]["trace_id"] for e in slices}) == 1
        assert metas and metas[0]["name"] == "thread_name"

    def test_chrome_trace_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        n = telemetry.write_chrome_trace(str(path), _sample_records())
        assert n == 2
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"
        assert len([e for e in data["traceEvents"] if e["ph"] == "X"]) == 2

    def test_jsonl_one_object_per_span(self, tmp_path):
        records = _sample_records()
        lines = spans_to_jsonl(records).splitlines()
        assert len(lines) == len(records)
        parsed = [json.loads(line) for line in lines]
        assert {p["name"] for p in parsed} == {"root", "leaf"}
        path = tmp_path / "spans.jsonl"
        telemetry.write_jsonl(str(path), records)
        telemetry.write_jsonl(str(path), records)  # append mode
        assert len(path.read_text().splitlines()) == 2 * len(records)

    def test_prometheus_text_renders_all_kinds(self):
        r = MetricRegistry()
        r.counter("repro_jobs_total", "jobs").inc(4)
        r.gauge("repro_depth", "queue depth", callback=lambda: 7)
        h = r.histogram("repro_lat_seconds", "latency")
        for v in (0.1, 0.2, 0.3):
            h.observe(v)
        fam = r.counter("repro_stage_flops_total", labels=("stage",))
        fam.labels(stage="cls").inc(10)
        text = prometheus_text(r)
        assert "# TYPE repro_jobs_total counter" in text
        assert "repro_jobs_total 4" in text
        assert "repro_depth 7" in text
        assert "# TYPE repro_lat_seconds summary" in text
        assert 'repro_lat_seconds{quantile="0.5"} 0.2' in text
        assert "repro_lat_seconds_count 3" in text
        assert 'repro_stage_flops_total{stage="cls"} 10' in text

    def test_prometheus_untouched_metric_exposes_zero(self):
        r = MetricRegistry()
        r.counter("repro_never_touched_total", "declared only")
        assert "repro_never_touched_total 0" in prometheus_text(r)

    def test_prometheus_later_registry_wins(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.counter("repro_x_total").inc(1)
        b.counter("repro_x_total").inc(5)
        assert "repro_x_total 5" in prometheus_text(a, b)

    def test_metrics_server_scrape(self):
        r = MetricRegistry()
        r.counter("repro_scraped_total", "via http").inc(2)
        server = MetricsServer((r,), port=0)
        try:
            port = server.start()
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=5
            ) as resp:
                body = resp.read().decode()
                assert resp.status == 200
            assert "repro_scraped_total 2" in body
        finally:
            server.stop()


# ----------------------------------------------------------------------
# end-to-end: one service request, one stitched trace
# ----------------------------------------------------------------------

class TestServiceRoundTrip:
    def test_request_stitches_one_trace_across_processes(self):
        from repro.service import (
            GreensJob,
            GreensService,
            ModelSpec,
            ServiceConfig,
        )

        telemetry.configure(sample_rate=1.0)
        spec = ModelSpec(nx=2, ny=2, L=8)
        field = HSField.random(spec.L, spec.N, np.random.default_rng(3))
        job = GreensJob.from_field(spec, field, c=4, q=0)
        with GreensService(ServiceConfig(workers=1)) as svc:
            ticket = svc.submit(job)
            ticket.result(timeout=120.0)
            prom = prometheus_text(
                telemetry.registry(), svc.metrics.registry
            )

        traces = telemetry.collector().traces()
        stitched = [
            records
            for records in traces.values()
            if {r["name"] for r in records}
            >= {"service.request", "service.dispatch", "worker.job",
                "fsi", "cls", "bsofi", "wrp"}
        ]
        assert len(stitched) == 1, sorted(traces)
        records = stitched[0]
        # worker spans really come from another process
        assert len({r["pid"] for r in records}) >= 2
        # metrics from both registries in one exposition
        assert "repro_queue_depth" in prom
        assert "repro_cache_hit_rate" in prom
        assert 'repro_stage_flops_total{stage="cls"}' in prom
        assert "repro_jobs_submitted_total 1" in prom

    def test_cache_hit_records_request_span_only(self):
        from repro.service import (
            GreensJob,
            GreensService,
            ModelSpec,
            ServiceConfig,
        )

        telemetry.configure(sample_rate=1.0)
        spec = ModelSpec(nx=2, ny=2, L=8)
        field = HSField.random(spec.L, spec.N, np.random.default_rng(4))
        job = GreensJob.from_field(spec, field, c=4, q=0)
        with GreensService(ServiceConfig(workers=1)) as svc:
            svc.submit(job).result(timeout=120.0)
            first_traces = len(telemetry.collector().traces())
            hit = svc.submit(job)
            hit.result(timeout=120.0)
            assert hit.cache_hit
        traces = telemetry.collector().traces()
        assert len(traces) == first_traces + 1
        hit_trace = max(
            traces.values(), key=lambda rs: min(r["start_time"] for r in rs)
        )
        names = {r["name"] for r in hit_trace}
        assert names == {"service.request"}
        (req,) = hit_trace
        assert req["attributes"]["cache_hit"] is True
