"""The invariant linter itself: engine, rules, baseline, CLI.

Every rule gets at least one *firing* fixture and one *clean* fixture
(including the deliberately-excluded near-misses: ``dict.get`` under a
lock, ``" ".join``, dynamic metric names, ``np.histogram``).  The
engine-level contracts — suppressions must carry reasons, unused
suppressions are findings, baselines round-trip and expire — are
covered separately, as is the CLI surface (``repro lint`` exit codes,
formats, ``--rule`` filtering).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis import (
    Baseline,
    ENGINE_RULE_ID,
    Finding,
    analyze_file,
    analyze_paths,
    default_rules,
    finding_key,
    rule_classes,
)
from repro.analysis.rules import (
    GuardedSolversOnly,
    MetricNameContract,
    MonotonicClocks,
    NoBlockingUnderLock,
    NoReexportShims,
    NoSilentExcept,
    PicklableExceptions,
    SharedMemoryLifecycle,
    SpanPropagation,
)

REPO = Path(__file__).resolve().parent.parent


def lint(tmp_path: Path, relpath: str, code: str, rules=None) -> list[Finding]:
    """Write ``code`` at ``relpath`` under a scratch tree and lint it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(code)
    return analyze_file(
        target,
        rules if rules is not None else default_rules(),
        display_path=relpath,
    )


def rule_ids(findings) -> list[str]:
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# RPR001 picklable exceptions
# ----------------------------------------------------------------------

class TestRPR001:
    def test_fires_on_multiarg_exception_without_reduce(self, tmp_path):
        findings = lint(tmp_path, "transport/errs.py", (
            "class ShardError(RuntimeError):\n"
            "    def __init__(self, shard, cause):\n"
            "        super().__init__(f'{shard}: {cause}')\n"
        ), [PicklableExceptions()])
        assert rule_ids(findings) == ["RPR001"]

    def test_clean_with_reduce(self, tmp_path):
        findings = lint(tmp_path, "transport/errs.py", (
            "class ShardError(RuntimeError):\n"
            "    def __init__(self, shard, cause):\n"
            "        super().__init__(f'{shard}: {cause}')\n"
            "        self.shard, self.cause = shard, cause\n"
            "    def __reduce__(self):\n"
            "        return (type(self), (self.shard, self.cause))\n"
        ), [PicklableExceptions()])
        assert findings == []

    def test_clean_single_arg_and_out_of_scope(self, tmp_path):
        code = (
            "class SimpleError(RuntimeError):\n"
            "    def __init__(self, message):\n"
            "        super().__init__(message)\n"
        )
        assert lint(tmp_path, "transport/errs.py", code,
                    [PicklableExceptions()]) == []
        multi = (
            "class RichError(RuntimeError):\n"
            "    def __init__(self, a, b):\n"
            "        super().__init__(a)\n"
        )
        # service/errors.py is outside the transported-exception scope.
        assert lint(tmp_path, "service/errors.py", multi,
                    [PicklableExceptions()]) == []


# ----------------------------------------------------------------------
# RPR002 monotonic clocks
# ----------------------------------------------------------------------

class TestRPR002:
    def test_fires_on_wall_clock(self, tmp_path):
        findings = lint(tmp_path, "service/thing.py", (
            "import time\n"
            "def elapsed(t0):\n"
            "    return time.time() - t0\n"
        ), [MonotonicClocks()])
        assert rule_ids(findings) == ["RPR002"]

    def test_fires_on_bare_imported_time(self, tmp_path):
        findings = lint(tmp_path, "bench/thing.py", (
            "from time import time\n"
            "start = time()\n"
        ), [MonotonicClocks()])
        assert rule_ids(findings) == ["RPR002"]

    def test_clean_monotonic(self, tmp_path):
        findings = lint(tmp_path, "service/thing.py", (
            "import time\n"
            "def elapsed(t0):\n"
            "    return time.perf_counter() - t0\n"
        ), [MonotonicClocks()])
        assert findings == []

    def test_allowlisted_sites(self, tmp_path):
        spans = lint(tmp_path, "telemetry/spans.py", (
            "import time\n"
            "stamp = time.time()\n"
        ), [MonotonicClocks()])
        assert spans == []
        metrics_ok = lint(tmp_path, "service/metrics.py", (
            "import time\n"
            "class ServiceMetrics:\n"
            "    def __init__(self):\n"
            "        self.started_at_epoch = time.time()\n"
        ), [MonotonicClocks()])
        assert metrics_ok == []
        # ...but only inside __init__: elsewhere in the same file fires.
        metrics_bad = lint(tmp_path, "service/metrics.py", (
            "import time\n"
            "class ServiceMetrics:\n"
            "    def stats(self):\n"
            "        return time.time()\n"
        ), [MonotonicClocks()])
        assert rule_ids(metrics_bad) == ["RPR002"]


# ----------------------------------------------------------------------
# RPR003 blocking under lock
# ----------------------------------------------------------------------

class TestRPR003:
    def test_fires_on_sleep_under_lock(self, tmp_path):
        findings = lint(tmp_path, "transport/x.py", (
            "import threading, time\n"
            "lock = threading.Lock()\n"
            "def f(conn):\n"
            "    with lock:\n"
            "        time.sleep(1)\n"
            "        data = conn.recv()\n"
            "    return data\n"
        ), [NoBlockingUnderLock()])
        assert rule_ids(findings) == ["RPR003", "RPR003"]

    def test_fires_on_queue_get_and_future_result(self, tmp_path):
        findings = lint(tmp_path, "service/x.py", (
            "def f(self):\n"
            "    with self._lock:\n"
            "        item = self.queue.get(timeout=5)\n"
            "        out = future.result()\n"
        ), [NoBlockingUnderLock()])
        assert rule_ids(findings) == ["RPR003", "RPR003"]

    def test_clean_outside_lock_and_near_misses(self, tmp_path):
        findings = lint(tmp_path, "transport/x.py", (
            "def f(self, d, parts):\n"
            "    with self._lock:\n"
            "        v = d.get('key')\n"          # dict.get: fine
            "        s = ' '.join(parts)\n"        # str join: fine
            "        def later():\n"
            "            time.sleep(1)\n"          # deferred: fine
            "        return v, s, later\n"
        ), [NoBlockingUnderLock()])
        assert findings == []

    def test_clean_blocking_after_release(self, tmp_path):
        findings = lint(tmp_path, "transport/x.py", (
            "def f(self, conn):\n"
            "    with self._lock:\n"
            "        state = self._state\n"
            "    return conn.recv()\n"
        ), [NoBlockingUnderLock()])
        assert findings == []


# ----------------------------------------------------------------------
# RPR004 guarded solvers
# ----------------------------------------------------------------------

class TestRPR004:
    def test_fires_outside_core(self, tmp_path):
        findings = lint(tmp_path, "dqmc/fit.py", (
            "import numpy as np\n"
            "def f(A, b):\n"
            "    return np.linalg.solve(A, b), np.linalg.inv(A)\n"
        ), [GuardedSolversOnly()])
        assert rule_ids(findings) == ["RPR004", "RPR004"]

    def test_clean_in_core_and_guarded(self, tmp_path):
        raw = (
            "import numpy as np\n"
            "def f(A, b):\n"
            "    return np.linalg.solve(A, b)\n"
        )
        assert lint(tmp_path, "core/bsofi.py", raw,
                    [GuardedSolversOnly()]) == []
        guarded = (
            "from repro.resilience.guards import guarded_solve\n"
            "def f(A, b):\n"
            "    return guarded_solve(A, b, site='fit')\n"
        )
        assert lint(tmp_path, "dqmc/fit.py", guarded,
                    [GuardedSolversOnly()]) == []


# ----------------------------------------------------------------------
# RPR005 metric names
# ----------------------------------------------------------------------

class TestRPR005:
    def test_fires_on_bad_name_and_double_registration(self, tmp_path):
        findings = lint(tmp_path, "service/m.py", (
            "c1 = registry.counter('jobs_total', 'no prefix')\n"
            "c2 = registry.counter('repro_jobs_total', 'ok')\n"
            "c3 = registry.counter('repro_jobs_total', 'again')\n"
        ), [MetricNameContract()])
        assert rule_ids(findings) == ["RPR005", "RPR005"]
        assert "must match" in findings[0].message
        assert "already registered" in findings[1].message

    def test_clean_names_and_near_misses(self, tmp_path):
        findings = lint(tmp_path, "service/m.py", (
            "import numpy as np\n"
            "c = registry.counter('repro_jobs_total', 'ok', labels=('a',))\n"
            "h = registry.histogram('repro_latency_seconds', 'ok')\n"
            "def helper(name):\n"
            "    return registry.counter(name, 'dynamic')\n"  # non-literal
            "hist, edges = np.histogram([1.0], bins=4)\n"      # not a metric
        ), [MetricNameContract()])
        assert findings == []


# ----------------------------------------------------------------------
# RPR006 span propagation
# ----------------------------------------------------------------------

class TestRPR006:
    def test_fires_on_unpropagated_spawn(self, tmp_path):
        findings = lint(tmp_path, "service/pool.py", (
            "import threading\n"
            "def start(fn):\n"
            "    t = threading.Thread(target=fn, daemon=True)\n"
            "    t.start()\n"
        ), [SpanPropagation()])
        assert rule_ids(findings) == ["RPR006"]

    def test_clean_with_propagation_vocabulary(self, tmp_path):
        findings = lint(tmp_path, "service/pool.py", (
            "import threading\n"
            "from repro.telemetry import runtime as _telemetry\n"
            "def start(fn):\n"
            "    carrier = _telemetry.inject()\n"
            "    t = threading.Thread(target=fn, args=(carrier,), daemon=True)\n"
            "    t.start()\n"
        ), [SpanPropagation()])
        assert findings == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        findings = lint(tmp_path, "bench/pool.py", (
            "import threading\n"
            "t = threading.Thread(target=print)\n"
        ), [SpanPropagation()])
        assert findings == []


# ----------------------------------------------------------------------
# RPR007 shared-memory lifecycle
# ----------------------------------------------------------------------

class TestRPR007:
    def test_fires_without_teardown(self, tmp_path):
        findings = lint(tmp_path, "transport/shm.py", (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def ship(buf):\n"
            "    shm = SharedMemory(create=True, size=buf.nbytes)\n"
            "    return shm.name\n"
        ), [SharedMemoryLifecycle()])
        assert rule_ids(findings) == ["RPR007"]

    def test_clean_with_finally_close(self, tmp_path):
        findings = lint(tmp_path, "transport/shm.py", (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def ship(buf):\n"
            "    shm = SharedMemory(create=True, size=buf.nbytes)\n"
            "    try:\n"
            "        return shm.name\n"
            "    finally:\n"
            "        shm.close()\n"
        ), [SharedMemoryLifecycle()])
        assert findings == []

    def test_clean_attach_to_existing(self, tmp_path):
        findings = lint(tmp_path, "transport/shm.py", (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def read(name):\n"
            "    shm = SharedMemory(name=name)\n"
            "    return bytes(shm.buf)\n"
        ), [SharedMemoryLifecycle()])
        assert findings == []


# ----------------------------------------------------------------------
# RPR008 silent broad excepts
# ----------------------------------------------------------------------

class TestRPR008:
    def test_fires_on_silent_swallow(self, tmp_path):
        findings = lint(tmp_path, "transport/x.py", (
            "def f():\n"
            "    try:\n"
            "        go()\n"
            "    except Exception:\n"
            "        pass\n"
        ), [NoSilentExcept()])
        assert rule_ids(findings) == ["RPR008"]

    def test_fires_on_bare_except_and_tuple(self, tmp_path):
        findings = lint(tmp_path, "service/x.py", (
            "def f():\n"
            "    try:\n"
            "        go()\n"
            "    except (ValueError, Exception):\n"
            "        failed = True\n"
            "    try:\n"
            "        go()\n"
            "    except:\n"
            "        failed = True\n"
        ), [NoSilentExcept()])
        assert rule_ids(findings) == ["RPR008", "RPR008"]

    def test_clean_reraise_convert_record_narrow(self, tmp_path):
        findings = lint(tmp_path, "service/x.py", (
            "def a():\n"
            "    try:\n"
            "        go()\n"
            "    except Exception as exc:\n"
            "        raise JobFailedError('x', exc) from exc\n"
            "def b():\n"
            "    try:\n"
            "        go()\n"
            "    except Exception as exc:\n"
            "        out = RuntimeError(str(exc))\n"
            "def c(span):\n"
            "    try:\n"
            "        go()\n"
            "    except Exception as exc:\n"
            "        span.set_attribute('error', repr(exc))\n"
            "def d():\n"
            "    try:\n"
            "        go()\n"
            "    except (OSError, ValueError):\n"
            "        pass\n"
        ), [NoSilentExcept()])
        assert findings == []

    def test_out_of_scope_layer_ignored(self, tmp_path):
        findings = lint(tmp_path, "dqmc/x.py", (
            "def f():\n"
            "    try:\n"
            "        go()\n"
            "    except Exception:\n"
            "        pass\n"
        ), [NoSilentExcept()])
        assert findings == []


# ----------------------------------------------------------------------
# RPR009 re-export shims
# ----------------------------------------------------------------------

class TestRPR009:
    def test_fires_on_reexport_shim(self, tmp_path):
        findings = lint(tmp_path, "compat/old_path.py", (
            '"""Compatibility re-export."""\n'
            "from __future__ import annotations\n"
            "from repro.telemetry.flops import FlopTracer  # noqa: F401\n"
            "from ..transport.base import _fold  # noqa: F401\n"
            "__all__ = ['FlopTracer']\n"
        ), [NoReexportShims()])
        assert rule_ids(findings) == ["RPR009"]
        assert findings[0].line == 3

    def test_clean_package_init_and_modules_with_code(self, tmp_path):
        shim = "from .flops import FlopTracer  # noqa: F401\n"
        assert lint(tmp_path, "telemetry/__init__.py", shim,
                    [NoReexportShims()]) == []
        assert lint(tmp_path, "core/x.py", (
            shim + "def f():\n    return FlopTracer()\n"
        ), [NoReexportShims()]) == []
        assert lint(tmp_path, "core/empty.py", '"""Nothing yet."""\n',
                    [NoReexportShims()]) == []

    def test_src_tree_has_no_shims(self):
        findings = analyze_paths([str(REPO / "src")], [NoReexportShims()])
        assert [f for f in findings if f.rule == "RPR009"] == []


# ----------------------------------------------------------------------
# engine: suppressions
# ----------------------------------------------------------------------

class TestSuppressions:
    CODE = (
        "import time\n"
        "t = time.time()  # repro: ignore[RPR002]: epoch stamp for the log line\n"
    )

    def test_suppression_with_reason_applies(self, tmp_path):
        findings = lint(tmp_path, "service/x.py", self.CODE,
                        [MonotonicClocks()])
        assert len(findings) == 1
        assert findings[0].suppressed and not findings[0].active

    def test_own_line_suppression_covers_next_code_line(self, tmp_path):
        findings = lint(tmp_path, "service/x.py", (
            "import time\n"
            "# repro: ignore[RPR002]: epoch stamp for the log line\n"
            "t = time.time()\n"
        ), [MonotonicClocks()])
        assert [f.active for f in findings] == [False]

    def test_reason_is_mandatory(self, tmp_path):
        findings = lint(tmp_path, "service/x.py", (
            "import time\n"
            "t = time.time()  # repro: ignore[RPR002]\n"
        ), [MonotonicClocks()])
        ids = rule_ids(findings)
        assert ENGINE_RULE_ID in ids       # the reasonless suppression
        assert "RPR002" in ids             # ...does not suppress
        assert all(f.active for f in findings)

    def test_unused_suppression_is_a_finding(self, tmp_path):
        findings = lint(tmp_path, "service/x.py", (
            "import time\n"
            "t = time.monotonic()  # repro: ignore[RPR002]: stale comment\n"
        ), [MonotonicClocks()])
        assert rule_ids(findings) == [ENGINE_RULE_ID]
        assert "unused suppression" in findings[0].message

    def test_syntax_error_is_engine_finding(self, tmp_path):
        findings = lint(tmp_path, "service/x.py", "def broken(:\n")
        assert rule_ids(findings) == [ENGINE_RULE_ID]
        assert "syntax error" in findings[0].message


# ----------------------------------------------------------------------
# baseline round-trip
# ----------------------------------------------------------------------

class TestBaseline:
    def _findings(self, tmp_path) -> list[Finding]:
        return lint(tmp_path, "service/x.py", (
            "import time\n"
            "a = time.time()\n"
            "b = time.time()\n"
        ), [MonotonicClocks()])

    def test_round_trip_neutralises_known_findings(self, tmp_path):
        findings = self._findings(tmp_path)
        assert len(findings) == 2
        bl = Baseline.from_findings(findings, note="grandfathered")
        path = tmp_path / "baseline.json"
        bl.save(path)
        loaded = Baseline.load(path)
        assert len(loaded) == 2
        marked, stale = loaded.apply(findings)
        assert all(f.baselined for f in marked)
        assert not any(f.active for f in marked)
        assert stale == []

    def test_multiset_matching_one_entry_per_instance(self, tmp_path):
        findings = self._findings(tmp_path)
        # Identical snippets on two lines -> identical keys; one entry
        # must cover exactly one instance.
        same = lint(tmp_path, "service/y.py", (
            "import time\n"
            "a = time.time()\n"
            "a = time.time()\n"
        ), [MonotonicClocks()])
        assert finding_key(same[0]) == finding_key(same[1])
        one = Baseline(Baseline.from_findings(same).entries[:1])
        marked, _ = one.apply(same)
        assert [f.baselined for f in marked] == [True, False]
        del findings

    def test_stale_entries_reported_not_fatal(self, tmp_path):
        findings = self._findings(tmp_path)
        bl = Baseline.from_findings(findings)
        clean = lint(tmp_path, "service/x.py", "import time\n",
                     [MonotonicClocks()])
        marked, stale = bl.apply(clean)
        assert marked == []
        assert len(stale) == 2

    def test_line_shift_does_not_expire_entry(self, tmp_path):
        findings = self._findings(tmp_path)
        bl = Baseline.from_findings(findings)
        shifted = lint(tmp_path, "service/x.py", (
            "import time\n"
            "# a new comment shifts every line number\n"
            "a = time.time()\n"
            "b = time.time()\n"
        ), [MonotonicClocks()])
        marked, stale = bl.apply(shifted)
        assert not any(f.active for f in marked)
        assert stale == []


# ----------------------------------------------------------------------
# the repo itself is clean, and every rule is registered
# ----------------------------------------------------------------------

class TestRepoInvariants:
    def test_rule_registry_complete(self):
        ids = sorted(rule_classes())
        assert ids == [f"RPR00{i}" for i in range(1, 10)]
        for cls in rule_classes().values():
            assert cls.title and cls.invariant

    def test_src_tree_is_clean(self):
        findings = analyze_paths([str(REPO / "src")], default_rules())
        active = [f for f in findings if f.active]
        assert active == [], "\n".join(
            f"{f.location()}: {f.rule} {f.message}" for f in active
        )

    def test_committed_baseline_is_empty(self):
        bl = Baseline.load(REPO / "analysis-baseline.json")
        assert len(bl) == 0


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

def run_cli(*args: str, cwd: Path | None = None):
    env_src = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        cwd=str(cwd) if cwd else str(REPO),
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        proc = run_cli(str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_findings_exit_one_and_report(self, tmp_path):
        bad = tmp_path / "service" / "x.py"
        bad.parent.mkdir()
        bad.write_text("import time\nt = time.time()\n")
        proc = run_cli(str(tmp_path))
        assert proc.returncode == 1
        assert "RPR002" in proc.stdout

    def test_rule_filter_and_unknown_rule(self, tmp_path):
        bad = tmp_path / "service" / "x.py"
        bad.parent.mkdir()
        bad.write_text("import time\nt = time.time()\n")
        ok = run_cli(str(tmp_path), "--rule", "RPR004")
        assert ok.returncode == 0
        bad_rule = run_cli(str(tmp_path), "--rule", "RPR999")
        assert bad_rule.returncode == 2

    def test_json_and_github_formats(self, tmp_path):
        bad = tmp_path / "service" / "x.py"
        bad.parent.mkdir()
        bad.write_text("import time\nt = time.time()\n")
        js = run_cli(str(tmp_path), "--format", "json")
        payload = json.loads(js.stdout)
        assert payload["active_count"] == 1
        assert payload["findings"][0]["rule"] == "RPR002"
        gh = run_cli(str(tmp_path), "--format", "github")
        assert gh.stdout.startswith("::error file=")
        assert "title=RPR002" in gh.stdout

    def test_write_and_apply_baseline(self, tmp_path):
        bad = tmp_path / "service" / "x.py"
        bad.parent.mkdir()
        bad.write_text("import time\nt = time.time()\n")
        baseline = tmp_path / "bl.json"
        wrote = run_cli(str(tmp_path), "--write-baseline",
                        "--baseline", str(baseline))
        assert wrote.returncode == 0
        with_bl = run_cli(str(tmp_path), "--baseline", str(baseline))
        assert with_bl.returncode == 0
        assert "[baselined]" in with_bl.stdout
        missing = run_cli(str(tmp_path), "--baseline",
                          str(tmp_path / "nope.json"))
        assert missing.returncode == 2

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for i in range(1, 9):
            assert f"RPR00{i}" in proc.stdout

    def test_repo_gate_matches_ci_invocation(self):
        """The exact command CI runs must pass on the committed tree."""
        proc = run_cli("src", "--baseline", "--format", "github", "--check")
        assert proc.returncode == 0, proc.stdout + proc.stderr
