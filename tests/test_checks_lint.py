"""Tests for the repro.checks static-analysis suite (reprolint)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.checks import (
    Finding,
    LintEngine,
    LintError,
    RULES,
    filter_baseline,
    load_baseline,
    render_json,
    render_text,
    run_lint,
    save_baseline,
)
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
SRC_TREE = Path(__file__).parent.parent / "src" / "repro"


def lint(path: Path, *rules: str):
    """Run the engine over one fixture, returning its findings.

    Rooted at tests/ so fixture rel-paths carry the ``fixtures/lint/``
    fragment the path-scoped rules (DET003, ACC001) key on.
    """
    engine = LintEngine(root=FIXTURES.parent.parent, rules=list(rules) or None)
    return engine.run([path])


def rules_fired(findings) -> set:
    return {f.rule for f in findings}


class TestRegistry:
    def test_all_rules_registered(self):
        assert set(RULES) == {
            "ACC001", "CON001", "CON002", "DET001", "DET002", "DET003",
            "DET004", "FLOW001", "FLOW002", "FORK001", "OBS001",
        }

    def test_allowlists_name_existing_paths(self):
        """An allowlist entry that names no file or directory under src/
        exempts nothing and hides the rule's real scope."""
        if not SRC_TREE.exists():
            pytest.skip("src/ tree not present (sdist install)")
        dead = [
            (rule_id, entry)
            for rule_id, rule in sorted(RULES.items())
            for entry in rule.allowlist
            if not (SRC_TREE.parent / entry).exists()
        ]
        assert dead == []

    def test_unknown_rule_rejected(self):
        with pytest.raises(LintError, match="unknown rule"):
            LintEngine(rules=["NOPE999"])


class TestDet001:
    def test_positive(self):
        findings = lint(FIXTURES / "det001_bad.py", "DET001")
        assert len(findings) == 3
        assert rules_fired(findings) == {"DET001"}
        messages = " ".join(f.message for f in findings)
        assert "time.time" in messages
        assert "time.perf_counter" in messages
        assert "datetime.datetime.now" in messages

    def test_negative(self):
        assert lint(FIXTURES / "det001_ok.py", "DET001") == []

    def test_allowlist_exempts_obs(self):
        engine = LintEngine(root=SRC_TREE.parent.parent, rules=["DET001"])
        findings = engine.run([SRC_TREE / "obs"])
        assert findings == []


class TestDet002:
    def test_positive(self):
        findings = lint(FIXTURES / "det002_bad.py", "DET002")
        assert len(findings) == 4
        messages = " ".join(f.message for f in findings)
        assert "random.random" in messages
        assert "random.shuffle" in messages
        assert "numpy.random.normal" in messages
        assert "without a seed" in messages

    def test_negative(self):
        assert lint(FIXTURES / "det002_ok.py", "DET002") == []

    def test_builtin_hash(self):
        findings = lint(FIXTURES / "det002_hash_bad.py", "DET002")
        assert len(findings) == 1
        assert "stable_hash" in findings[0].message
        assert lint(FIXTURES / "det002_hash_ok.py", "DET002") == []


class TestDet003:
    def test_positive(self):
        findings = lint(FIXTURES / "engine" / "det003_bad.py", "DET003")
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert ".values() view" in messages
        assert "set()" in messages
        assert ".items() view" in messages

    def test_negative(self):
        assert lint(FIXTURES / "engine" / "det003_ok.py", "DET003") == []

    def test_scoped_to_hot_paths(self):
        # The same hazardous code outside engine//kernel/ is not flagged.
        rule = RULES["DET003"]
        assert rule.applies_to("repro/engine/parallel.py")
        assert rule.applies_to("repro/kernel/memcg.py")
        assert not rule.applies_to("repro/analysis/reporting.py")


class TestDet004:
    def test_positive(self):
        findings = lint(FIXTURES / "kernel" / "det004_bad.py", "DET004")
        assert len(findings) == 4
        assert rules_fired(findings) == {"DET004"}
        messages = " ".join(f.message for f in findings)
        assert "page axis" in messages
        assert "range(self.used)" in messages
        assert "whole-array ops" in messages

    def test_negative(self):
        assert lint(FIXTURES / "kernel" / "det004_ok.py", "DET004") == []

    def test_scoped_to_the_columnar_kernel(self):
        rule = RULES["DET004"]
        assert rule.applies_to("repro/kernel/columnar.py")
        assert not rule.applies_to("repro/kernel/memcg.py")
        assert not rule.applies_to("repro/engine/parallel.py")

    def test_real_columnar_kernel_is_clean(self):
        # The promo-events loop (`for r in np.flatnonzero(per_row)`) and
        # the dirty-resample loop (`for memcg in memcg_list`) iterate the
        # row/memcg axis and must NOT be flagged.
        engine = LintEngine(root=SRC_TREE.parent.parent, rules=["DET004"])
        assert engine.run([SRC_TREE / "kernel" / "columnar.py"]) == []


class TestFork001:
    def test_positive(self):
        findings = lint(FIXTURES / "fork001_bad.py", "FORK001")
        assert len(findings) == 4
        messages = " ".join(f.message for f in findings)
        for hazard in ("lambda", "open file handle", "threading lock",
                       "live generator"):
            assert hazard in messages

    def test_negative(self):
        assert lint(FIXTURES / "fork001_ok.py", "FORK001") == []


class TestAcc001:
    def test_positive(self):
        findings = lint(FIXTURES / "core" / "acc001_bad.py", "ACC001")
        assert len(findings) == 3

    def test_negative(self):
        assert lint(FIXTURES / "core" / "acc001_ok.py", "ACC001") == []

    def test_scoped_to_accounting(self):
        rule = RULES["ACC001"]
        assert rule.applies_to("repro/core/threshold_policy.py")
        assert rule.applies_to("repro/analysis/sli.py")
        assert not rule.applies_to("repro/obs/metrics.py")


class TestObs001:
    def test_positive(self):
        findings = lint(FIXTURES / "obs001_bad.py", "OBS001")
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "repro_pages_scaned_total" in messages
        assert "schduler.evict" in messages

    def test_negative(self):
        assert lint(FIXTURES / "obs001_ok.py", "OBS001") == []


class TestSuppression:
    def test_noqa_comments(self):
        findings = lint(FIXTURES / "suppressed.py", "DET001", "DET002")
        # Line 1: DET001 suppressed by rule.  Line 2: bare noqa kills the
        # DET002 finding.  Line 3: noqa[DET002] does NOT cover DET001.
        assert len(findings) == 1
        assert findings[0].rule == "DET001"
        assert "perf_counter" in findings[0].message


class TestReporters:
    def _findings(self):
        return lint(FIXTURES / "det001_bad.py", "DET001")

    def test_text_report(self):
        report = render_text(self._findings())
        assert "det001_bad.py:" in report
        assert "DET001" in report
        assert "3 finding(s)" in report

    def test_text_report_clean(self):
        assert "clean" in render_text([])

    def test_json_report_round_trips(self):
        document = json.loads(render_json(self._findings()))
        assert document["count"] == 3
        assert {f["rule"] for f in document["findings"]} == {"DET001"}
        assert "DET001" in document["rules"]

    def test_baseline_workflow(self, tmp_path):
        findings = self._findings()
        baseline_file = tmp_path / "baseline.json"
        save_baseline(findings, baseline_file)
        baseline = load_baseline(baseline_file)
        assert filter_baseline(findings, baseline) == []
        fresh = Finding(
            path="det001_bad.py", line=99, col=1,
            rule="DET001", message="a brand new finding",
        )
        assert filter_baseline([*findings, fresh], baseline) == [fresh]

    def test_baseline_ignores_line_drift(self, tmp_path):
        findings = self._findings()
        baseline_file = tmp_path / "baseline.json"
        save_baseline(findings, baseline_file)
        shifted = [
            Finding(path=f.path, line=f.line + 10, col=f.col,
                    rule=f.rule, message=f.message)
            for f in findings
        ]
        assert filter_baseline(shifted, load_baseline(baseline_file)) == []

    def test_bad_baseline_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(LintError, match="suppressed"):
            load_baseline(bad)


class TestCli:
    def test_lint_fixture_exits_nonzero(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "det001_bad.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "det001_bad.py" in out and ":" in out  # file:line rendering

    def test_lint_rule_filter(self, capsys):
        code = cli_main([
            "lint", "--rule", "DET002", str(FIXTURES / "det001_bad.py"),
        ])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_json_format(self, capsys):
        code = cli_main([
            "lint", "--format", "json", str(FIXTURES / "obs001_bad.py"),
        ])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["count"] == 2

    def test_lint_unknown_rule_exits_two(self, capsys):
        code = cli_main(["lint", "--rule", "NOPE999", str(FIXTURES)])
        assert code == 2

    def test_lint_baseline_flow(self, tmp_path, capsys):
        baseline = tmp_path / "checks_baseline.json"
        assert cli_main([
            "lint", "--update-baseline", str(baseline),
            str(FIXTURES / "det001_bad.py"),
        ]) == 0
        capsys.readouterr()
        assert cli_main([
            "lint", "--baseline", str(baseline),
            str(FIXTURES / "det001_bad.py"),
        ]) == 0

    def test_lint_ci_flag_degrades_gracefully(self, capsys):
        # ruff/mypy may not exist in this environment; --ci must still
        # complete and report each tool's status on stderr.
        code = cli_main(["lint", "--ci", str(FIXTURES / "det001_ok.py")])
        assert code == 0
        err = capsys.readouterr().err
        assert "ruff" in err and "mypy" in err


@pytest.mark.lint
class TestFullTree:
    def test_shipped_tree_is_clean(self):
        """The tier-1 gate: ``repro lint --flow`` exits 0 over the shipped
        tree — zero unbaselined local *or* flow/contract findings."""
        if not SRC_TREE.exists():
            pytest.skip("src/ tree not present (sdist install)")
        result = run_lint([SRC_TREE], flow=True, flow_cache=None)
        assert result.exit_code == 0, "\n" + result.report

    def test_fixture_tree_is_dirty(self):
        """Sanity: every local rule fires at least once over the fixtures
        (flow rules are whole-program; their fixtures live under
        fixtures/lint/flow/ and are exercised in test_checks_flow.py)."""
        result = run_lint([FIXTURES], root=FIXTURES.parent.parent, docs=False)
        assert result.exit_code == 1
        flow_only = {r for r in RULES if getattr(RULES[r], "flow_only", False)}
        assert rules_fired(result.findings) == set(RULES) - flow_only
