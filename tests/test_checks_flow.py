"""Tests for repro.checks.flow — the interprocedural analysis layer.

Fixture packages live under ``tests/fixtures/lint/flow/``:

* ``seeded_pkg`` — every flow rule fires at a planned location;
* ``clean_pkg`` — the sanctioned twin of each hazard, zero findings;
* ``resolution_pkg`` — call-graph resolution shapes (methods through
  inheritance, re-exports, decorators, unknown callees, cycles).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.checks import (
    RULES,
    Finding,
    InvariantViolation,
    filter_baseline,
    load_baseline,
    render_sarif,
    run_flow,
    run_lint,
    save_baseline,
    verify_column_contracts,
)
from repro.checks.core import LintError
from repro.checks.flow.cache import CACHE_FILENAME, load_summaries
from repro.checks.flow.callgraph import (
    CallGraph,
    extract_module,
    find_package_root,
)
from repro.checks.flow.taint import _propagate
from repro.cli import main as cli_main

FLOW_FIXTURES = Path(__file__).parent / "fixtures" / "lint" / "flow"
SEEDED = FLOW_FIXTURES / "seeded_pkg"
CLEAN = FLOW_FIXTURES / "clean_pkg"
RESOLUTION = FLOW_FIXTURES / "resolution_pkg"
SRC_TREE = Path(__file__).parent.parent / "src" / "repro"


def graph_for(package_root: Path) -> CallGraph:
    summaries, _stats = load_summaries(package_root, cache_dir=None)
    return CallGraph(summaries)


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


# ----------------------------------------------------------------------
# Call-graph construction and resolution
# ----------------------------------------------------------------------


class TestCallGraph:
    def test_package_root_discovery(self):
        assert find_package_root(SEEDED / "kernel" / "sweep.py") == SEEDED
        assert find_package_root(SEEDED) == SEEDED

    def test_non_package_rejected(self, tmp_path):
        loose = tmp_path / "loose.py"
        loose.write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(LintError, match="not inside a python package"):
            find_package_root(loose)

    def test_method_resolution_through_inheritance(self):
        graph = graph_for(RESOLUTION)
        edges = {c for c, _ in graph.edges["resolution_pkg.impl.Child.run"]}
        # self.shared() resolves to the *base* class method, self.own()
        # to the subclass's own.
        assert "resolution_pkg.impl.Base.shared" in edges
        assert "resolution_pkg.impl.Child.own" in edges

    def test_self_call_on_same_class(self):
        graph = graph_for(RESOLUTION)
        edges = {c for c, _ in graph.edges["resolution_pkg.impl.Base.template"]}
        assert edges == {"resolution_pkg.impl.Base.shared"}

    def test_locally_typed_receiver(self):
        graph = graph_for(RESOLUTION)
        edges = {c for c, _ in graph.edges["resolution_pkg.impl.use_local_type"]}
        assert "resolution_pkg.impl.Child.run" in edges

    def test_reexport_resolution(self):
        graph = graph_for(RESOLUTION)
        edges = {
            c for c, _ in graph.edges["resolution_pkg.facade.through_reexport"]
        }
        assert edges == {"resolution_pkg.impl.helper"}

    def test_decorated_function_is_a_plain_node(self):
        graph = graph_for(RESOLUTION)
        clock = graph.functions["resolution_pkg.impl.decorated_clock"]
        assert [s.kind for s in clock.sources] == ["wall-clock"]
        edges = {
            c for c, _ in graph.edges["resolution_pkg.impl.calls_decorated"]
        }
        assert edges == {"resolution_pkg.impl.decorated_clock"}

    def test_unknown_callee_recorded_not_resolved(self):
        graph = graph_for(RESOLUTION)
        unresolved = {
            t for t, _ in graph.unresolved["resolution_pkg.impl.calls_unknown"]
        }
        assert "mystery.fetch" in unresolved
        assert graph.edges["resolution_pkg.impl.calls_unknown"] == []

    def test_summary_round_trips_through_json(self):
        # The cache stores summaries as JSON; to_dict/from_dict must be
        # lossless for linking to behave identically on the warm path.
        summary = extract_module(SEEDED, SEEDED / "kernel" / "sweep.py")
        clone = type(summary).from_dict(
            json.loads(json.dumps(summary.to_dict()))
        )
        assert clone.to_dict() == summary.to_dict()


# ----------------------------------------------------------------------
# FLOW001 taint
# ----------------------------------------------------------------------


class TestTaint:
    def test_seeded_chain_reported_in_full(self):
        findings = by_rule(run_flow([SEEDED]).findings, "FLOW001")
        assert len(findings) == 1
        f = findings[0]
        assert f.path == "seeded_pkg/kernel/sweep.py"
        assert "`seeded_pkg.kernel.sweep.tick`" in f.message
        assert "time.time" in f.message
        # The chain walks sink -> intermediate -> source, every hop named.
        assert len(f.chain) == 3
        assert "sweep.tick" in f.chain[0]
        assert "helpers.jitter" in f.chain[1]
        assert "helpers.wall_now" in f.chain[2]
        assert "time.time" in f.chain[2]

    def test_sink_line_suppression_swallows_the_chain(self):
        findings = run_flow([SEEDED]).findings
        assert not any("tick_suppressed" in f.message for f in findings)

    def test_clean_package_is_silent(self):
        assert run_flow([CLEAN]).findings == []

    def test_unknown_callee_never_taints(self):
        graph = graph_for(RESOLUTION)
        taints = _propagate(graph)
        assert "resolution_pkg.impl.calls_unknown" not in taints

    def test_cycle_fixpoint_terminates_and_taints_both(self):
        graph = graph_for(RESOLUTION)
        taints = _propagate(graph)
        assert "resolution_pkg.impl.cycle_a" in taints
        assert "resolution_pkg.impl.cycle_b" in taints

    def test_taint_flows_through_reexport_chain(self):
        graph = graph_for(RESOLUTION)
        taints = _propagate(graph)
        # decorated_clock's wall-clock taints its caller.
        assert "resolution_pkg.impl.calls_decorated" in taints

    def test_chain_render_is_indented(self):
        f = by_rule(run_flow([SEEDED]).findings, "FLOW001")[0]
        lines = f.render().splitlines()
        assert lines[0].startswith("seeded_pkg/kernel/sweep.py:")
        assert all(line.startswith("    ") for line in lines[1:])


# ----------------------------------------------------------------------
# CON001 / CON002 column contracts
# ----------------------------------------------------------------------


class TestColumnContracts:
    def test_static_findings_on_seeded(self):
        findings = run_flow([SEEDED]).findings
        con1 = by_rule(findings, "CON001")
        con2 = by_rule(findings, "CON002")
        assert len(con1) == 2
        messages = " ".join(f.message for f in con1)
        assert "Pool.ages" in messages and "float64" in messages
        assert "Pool.counts" in messages and "ndim=2" in messages
        assert len(con2) == 1
        assert "Pool.extra" in con2[0].message

    def test_private_columns_exempt_from_con002(self):
        findings = run_flow([CLEAN]).findings
        assert by_rule(findings, "CON002") == []

    def test_runtime_verification_accepts_shipped_tables(self):
        from repro.kernel.columnar import COLUMN_CONTRACTS, MachinePagePool
        from repro.core.histograms import AgeBins

        pool = MachinePagePool(AgeBins((120, 300, 600)), scan_period=120)
        verify_column_contracts(pool, COLUMN_CONTRACTS)  # must not raise

    def test_runtime_verification_catches_dtype_drift(self):
        from repro.kernel.columnar import COLUMN_CONTRACTS, MachinePagePool
        from repro.core.histograms import AgeBins

        pool = MachinePagePool(AgeBins((120, 300, 600)), scan_period=120)
        pool.age_scans = pool.age_scans.astype(np.int64)
        with pytest.raises(InvariantViolation, match="age_scans"):
            verify_column_contracts(pool, COLUMN_CONTRACTS)

    def test_scan_all_hook_fires_on_drift(self, monkeypatch):
        # Through the actual hook, not a direct call — even an empty
        # pool (the used == 0 early return) must be verified.
        from repro.kernel.columnar import MachinePagePool
        from repro.core.histograms import AgeBins

        monkeypatch.setenv("REPRO_CHECKS", "1")
        pool = MachinePagePool(AgeBins((120, 300, 600)), scan_period=120)
        pool.age_scans = pool.age_scans.astype(np.int64)
        with pytest.raises(InvariantViolation, match="age_scans"):
            pool.scan_all([])

    def test_compiled_trace_construction_is_verified(self, monkeypatch):
        from repro.model.trace import CompiledTrace

        monkeypatch.setenv("REPRO_CHECKS", "1")
        with pytest.raises(InvariantViolation, match="cold_suffix_sums"):
            CompiledTrace(
                job_id="j",
                bins=None,
                cold_suffix_sums=np.zeros((0, 1), dtype=np.int32),
                promotion_suffix_sums=np.zeros((0, 1), dtype=np.int64),
                working_set_pages=np.zeros(0, dtype=np.int64),
                times=np.zeros(0, dtype=np.int64),
                resident_pages=np.zeros(0, dtype=np.int64),
                cpu_cores=np.zeros(0, dtype=np.float64),
            )

    def test_runtime_verification_reports_missing_columns(self):
        class Sparse:
            pass

        with pytest.raises(InvariantViolation, match="missing"):
            verify_column_contracts(
                Sparse(), {"Sparse.gone": {"dtype": "int64", "ndim": 1}}
            )


# ----------------------------------------------------------------------
# Cache behaviour
# ----------------------------------------------------------------------


class TestCache:
    def test_cold_then_warm(self, tmp_path):
        cache_dir = tmp_path / "cache"
        _s, cold = load_summaries(SEEDED, cache_dir=cache_dir)
        assert cold.extracted == cold.files > 0
        assert cold.wrote and (cache_dir / CACHE_FILENAME).exists()
        _s, warm = load_summaries(SEEDED, cache_dir=cache_dir)
        assert warm.hits == warm.files
        assert warm.extracted == 0 and not warm.wrote

    def test_staleness_only_reextracts_the_changed_file(self, tmp_path):
        # Copy the package so we can edit it.
        import shutil

        pkg = tmp_path / "seeded_pkg"
        shutil.copytree(SEEDED, pkg)
        cache_dir = tmp_path / "cache"
        _s, cold = load_summaries(pkg, cache_dir=cache_dir)
        target = pkg / "util" / "helpers.py"
        target.write_text(
            target.read_text(encoding="utf-8") + "\n\nX = 1\n",
            encoding="utf-8",
        )
        _s, stale = load_summaries(pkg, cache_dir=cache_dir)
        assert stale.extracted == 1
        assert stale.hits == cold.files - 1

    def test_deleted_files_drop_out(self, tmp_path):
        import shutil

        pkg = tmp_path / "seeded_pkg"
        shutil.copytree(SEEDED, pkg)
        cache_dir = tmp_path / "cache"
        load_summaries(pkg, cache_dir=cache_dir)
        (pkg / "util" / "helpers.py").unlink()
        summaries, _stats = load_summaries(pkg, cache_dir=cache_dir)
        modules = {s.module for s in summaries}
        assert "seeded_pkg.util.helpers" not in modules
        # And the cache file itself no longer resurrects it.
        document = json.loads(
            (cache_dir / CACHE_FILENAME).read_text(encoding="utf-8")
        )
        assert "seeded_pkg/util/helpers.py" not in document["files"]

    def test_parse_failure_reported_not_fatal(self, tmp_path):
        import shutil

        pkg = tmp_path / "seeded_pkg"
        shutil.copytree(SEEDED, pkg)
        (pkg / "broken.py").write_text("def nope(:\n", encoding="utf-8")
        result = run_flow([pkg])
        parse = [f for f in result.findings if f.rule == "PARSE"]
        assert len(parse) == 1 and "broken.py" in parse[0].path
        # The rest of the package still analyzed: seeded findings intact.
        assert by_rule(result.findings, "FLOW001")


# ----------------------------------------------------------------------
# Reporters: SARIF + multi-line baseline regression
# ----------------------------------------------------------------------


class TestReporters:
    def _flow_finding(self) -> Finding:
        return by_rule(run_flow([SEEDED]).findings, "FLOW001")[0]

    def test_sarif_document_shape(self):
        f = self._flow_finding()
        document = json.loads(render_sarif([f]))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"FLOW001", "CON001", "CON002"} <= rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "FLOW001"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == f.path
        assert location["region"]["startLine"] == f.line
        # The chain rides along in the message text.
        assert "wall_now" in result["message"]["text"]

    def test_sarif_empty_is_valid(self):
        document = json.loads(render_sarif([]))
        assert document["runs"][0]["results"] == []

    def test_baseline_key_ignores_chain_line_numbers(self):
        # Multi-line diagnostics must baseline on (path, rule, message)
        # alone: chains embed line numbers that drift on every edit.
        f = self._flow_finding()
        assert f.chain and str(f.line) not in f.baseline_key()
        shifted = Finding(
            path=f.path,
            line=f.line + 40,
            col=f.col,
            rule=f.rule,
            message=f.message,
            chain=("totally", "different", "chain"),
        )
        assert shifted.baseline_key() == f.baseline_key()

    def test_baseline_round_trip_with_flow_findings(self, tmp_path):
        findings = run_flow([SEEDED]).findings
        baseline_file = tmp_path / "baseline.json"
        save_baseline(findings, baseline_file)
        assert filter_baseline(findings, load_baseline(baseline_file)) == []

    def test_baseline_accepts_reason_objects(self, tmp_path):
        f = self._flow_finding()
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(
            json.dumps(
                {
                    "version": 1,
                    "suppressed": [
                        {"key": f.baseline_key(), "reason": "accepted: test"}
                    ],
                }
            ),
            encoding="utf-8",
        )
        assert f.baseline_key() in load_baseline(baseline_file)

    def test_baseline_rejects_garbage_entries(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(
            json.dumps({"version": 1, "suppressed": [42]}), encoding="utf-8"
        )
        with pytest.raises(LintError, match="key strings"):
            load_baseline(baseline_file)

    def test_finding_to_dict_carries_chain(self):
        f = self._flow_finding()
        assert tuple(f.to_dict()["chain"]) == f.chain


# ----------------------------------------------------------------------
# Runner + CLI integration
# ----------------------------------------------------------------------


class TestFlowCli:
    def test_lint_flow_reports_chain(self, capsys, tmp_path):
        code = cli_main(["lint", "--flow", str(SEEDED)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FLOW001" in out
        assert "CON001" in out and "CON002" in out
        assert "helpers.wall_now" in out  # the chain is printed

    def test_lint_flow_clean_package(self, capsys):
        assert cli_main(["lint", "--flow", str(CLEAN)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_without_flow_skips_flow_rules(self, capsys):
        # The local rules still fire on the fixture (DET001 on the wall
        # clock), but no flow/contract rule may.
        cli_main(["lint", str(SEEDED)])
        out = capsys.readouterr().out
        assert "DET001" in out
        for rule_id in ("FLOW001", "CON001", "CON002"):
            assert rule_id not in out

    def test_rule_filter_selects_single_flow_rule(self, capsys):
        code = cli_main(["lint", "--flow", "--rule", "CON002", str(SEEDED)])
        out = capsys.readouterr().out
        assert code == 1
        assert "CON002" in out and "FLOW001" not in out

    def test_sarif_format_end_to_end(self, capsys):
        cli_main(["lint", "--flow", "--format", "sarif", str(SEEDED)])
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        fired = {r["ruleId"] for r in document["runs"][0]["results"]}
        # Local rules fire on the fixture too; all three flow rules must.
        assert {"FLOW001", "CON001", "CON002"} <= fired

    def test_run_lint_flow_respects_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        first = run_lint(
            [SEEDED], flow=True, flow_cache=None, update_baseline=baseline
        )
        assert first.exit_code == 0
        second = run_lint(
            [SEEDED], flow=True, flow_cache=None, baseline=baseline
        )
        assert second.exit_code == 0, "\n" + second.report

    def test_flow_rules_registered_but_engine_skips_them(self):
        for rule_id in ("FLOW001", "CON001", "CON002"):
            rule = RULES[rule_id]
            assert getattr(rule, "flow_only", False)
            assert not rule.applies_to("repro/kernel/columnar.py")


# ----------------------------------------------------------------------
# The whole-tree gate and the performance contract
# ----------------------------------------------------------------------


@pytest.mark.lint
class TestFullTreeFlow:
    def test_shipped_tree_has_zero_flow_findings(self):
        if not SRC_TREE.exists():
            pytest.skip("src/ tree not present (sdist install)")
        result = run_flow([SRC_TREE])
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.findings == [], "\n" + rendered

    def test_cold_and_warm_latency_budget(self, tmp_path):
        if not SRC_TREE.exists():
            pytest.skip("src/ tree not present (sdist install)")
        cache_dir = tmp_path / "cache"
        start = time.perf_counter()
        run_flow([SRC_TREE], cache_dir=cache_dir)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        result = run_flow([SRC_TREE], cache_dir=cache_dir)
        warm = time.perf_counter() - start
        assert cold < 10.0, f"cold flow run took {cold:.2f}s"
        assert warm < 1.0, f"warm flow run took {warm:.2f}s"
        stats = result.cache_stats[0]
        assert stats.hits == stats.files and stats.extracted == 0
