"""The metamorphic soak harness: short deterministic soaks per engine,
faulted soaks, the violation machinery, and the CLI surface.

Long soaks live behind the ``slow`` marker (the CI soak-smoke job runs
them); tier-1 keeps to step-capped runs that finish in seconds.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.faults import inject_faults
from repro.core import soak as soak_module
from repro.core.soak import (
    SOAK_ENGINES,
    InvariantViolation,
    SoakConfig,
    SoakReport,
    build_soak_engine,
    oracle_decide,
    run_soak,
)
from repro.errors import ReproError
from repro.generators.adversarial import FAMILIES
from repro.io.json_io import schema_from_json


FAST = dict(seconds=600.0, max_steps=40, seed=3)


class TestConfig:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ReproError):
            SoakConfig(engine="quantum")

    def test_rejects_negative_duration(self):
        with pytest.raises(ReproError):
            SoakConfig(seconds=-1)

    def test_rejects_zero_cadence(self):
        with pytest.raises(ReproError):
            SoakConfig(check_every=0)

    @pytest.mark.parametrize("engine", SOAK_ENGINES)
    def test_build_engine(self, engine):
        resilient = build_soak_engine(SoakConfig(engine=engine))
        try:
            assert resilient.retry.max_attempts == 3
        finally:
            resilient.shutdown()


class TestRunSoak:
    @pytest.mark.parametrize("engine", SOAK_ENGINES)
    def test_clean_soak_per_engine(self, engine):
        report = run_soak(SoakConfig(engine=engine, **FAST))
        assert report.ok
        assert report.steps == 40
        assert report.wrong_verdicts == 0
        assert report.violations == []
        assert report.decisions > 0

    def test_every_family_gets_traffic(self):
        # min_passes guarantees one op per case even with max_steps unset
        # and a zero-second budget.
        report = run_soak(
            SoakConfig(engine="sequential", seconds=0.0, min_passes=1, seed=0)
        )
        assert report.steps == len(FAMILIES)
        assert report.families == sorted(FAMILIES)

    def test_deterministic_given_step_cap(self):
        one = run_soak(SoakConfig(engine="sequential", **FAST))
        two = run_soak(SoakConfig(engine="sequential", **FAST))
        assert one.ops_by_kind == two.ops_by_kind
        assert one.decisions == two.decisions
        assert one.edits == two.edits

    def test_family_subset(self):
        report = run_soak(
            SoakConfig(
                engine="sequential",
                families=["np-boundary", "deep-chain"],
                **FAST,
            )
        )
        assert report.ok
        assert report.families == ["deep-chain", "np-boundary"]

    def test_report_as_dict_round_trips(self):
        report = run_soak(SoakConfig(engine="sequential", **FAST))
        document = json.loads(json.dumps(report.as_dict()))
        assert document["ok"] is True
        assert document["steps"] == 40
        assert document["engine"] == "sequential"
        assert set(document["ops_by_kind"]) <= {
            "dimsat",
            "implies",
            "summarizable",
            "navigate",
            "edit",
        }

    def test_render_mentions_violations(self):
        report = SoakReport(engine="compiled", seed=0)
        report.violations.append(
            InvariantViolation("cache-clean", "case-x", 7, "stale verdict")
        )
        text = report.render()
        assert "VIOLATIONS" in text and "cache-clean" in text
        assert not report.ok


class TestFaultedSoak:
    @pytest.mark.parametrize(
        "engine,spec",
        [
            ("compiled", "worker-crash:p=0.3,seed=7;cache-store:p=0.2"),
            ("sequential", "worker-crash:p=0.4,seed=3"),
        ],
    )
    def test_faults_never_produce_wrong_verdicts(self, engine, spec):
        with inject_faults(spec):
            report = run_soak(SoakConfig(engine=engine, **FAST))
        assert report.wrong_verdicts == 0
        assert report.violations == []

    def test_oracle_is_fault_immune(self):
        case = FAMILIES["deep-chain"](seed=0)
        clean = oracle_decide(case.schema, ("dimsat", case.root))
        with inject_faults("worker-crash:p=1.0,seed=1;oserror:p=1.0"):
            faulted = oracle_decide(case.schema, ("dimsat", case.root))
        assert faulted == clean


class TestViolationMachinery:
    """A harness that can never fail is not a harness: break the oracle
    on purpose and check the soak notices, reports, and shrinks."""

    def test_wrong_verdict_detected_and_falsifier_emitted(
        self, monkeypatch, tmp_path
    ):
        real_oracle = oracle_decide

        def lying_oracle(schema, request):
            return not real_oracle(schema, request)

        monkeypatch.setattr(soak_module, "oracle_decide", lying_oracle)
        report = run_soak(
            SoakConfig(
                engine="sequential",
                families=["np-boundary"],
                falsifier_dir=str(tmp_path),
                seconds=600.0,
                max_steps=6,
                seed=3,
            )
        )
        assert not report.ok
        assert report.wrong_verdicts > 0
        kinds = {v.invariant for v in report.violations}
        assert "wrong-verdict" in kinds
        emitted = sorted(tmp_path.glob("*.json"))
        assert emitted, "a reproducible divergence should shrink to a file"
        # Every emitted falsifier is a loadable schema document.
        for path in emitted:
            document = json.loads(path.read_text())
            assert "_falsifier" in document
            schema = schema_from_json(path.read_text())
            assert schema.hierarchy.categories

    def test_unknown_outcomes_are_allowed(self):
        # A budget so small every decision degrades to UNKNOWN: that must
        # not count as wrong or as a violation.
        report = run_soak(
            SoakConfig(
                engine="sequential",
                families=["np-boundary"],
                budget_ms=0.0,
                retries=1,
                seconds=600.0,
                max_steps=8,
                seed=3,
            )
        )
        assert report.wrong_verdicts == 0
        assert report.violations == []
        assert report.unknown > 0


class TestSoakCli:
    def test_cli_soak_exits_zero_and_writes_report(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        code = main(
            [
                "soak",
                "--seconds",
                "600",
                "--max-steps",
                "25",
                "--seed",
                "3",
                "--engine",
                "sequential",
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 invariant violations" in out
        document = json.loads(json_path.read_text())
        assert document["ok"] is True
        assert document["steps"] == 25

    def test_cli_flags_after_subcommand_reach_the_engine(self, tmp_path):
        # The acceptance-shaped invocation: globals after `soak`.
        telemetry = tmp_path / "tel"
        code = main(
            [
                "soak",
                "--seconds",
                "600",
                "--max-steps",
                "20",
                "--engine",
                "compiled",
                "--inject-faults",
                "worker-crash:p=0.3,seed=7",
                "--telemetry-dir",
                str(telemetry),
            ]
        )
        assert code == 0
        report = json.loads((telemetry / "soak_report.json").read_text())
        assert report["engine"] == "compiled"
        assert (telemetry / "audit.jsonl").exists()

    def test_cli_soak_audit_log_replays_clean(self, tmp_path, capsys):
        telemetry = tmp_path / "tel"
        assert (
            main(
                [
                    "--telemetry-dir",
                    str(telemetry),
                    "soak",
                    "--seconds",
                    "600",
                    "--max-steps",
                    "30",
                    "--seed",
                    "5",
                    "--engine",
                    "compiled",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["audit-verify", str(telemetry)]) == 0
        out = capsys.readouterr().out
        assert "divergences      0" in out

    def test_cli_unknown_family_is_usage_error(self, capsys):
        code = main(["soak", "--families", "nope", "--max-steps", "1"])
        assert code == 2
        assert "unknown adversarial families" in capsys.readouterr().err


@pytest.mark.slow
class TestLongSoak:
    """The CI soak-smoke shape, one engine per test."""

    @pytest.mark.parametrize("engine", SOAK_ENGINES)
    def test_thirty_second_soak(self, engine):
        report = run_soak(
            SoakConfig(engine=engine, seconds=30.0, seed=0, per_family=1)
        )
        assert report.ok
        assert report.steps > len(FAMILIES)

    def test_thirty_second_faulted_soak(self):
        with inject_faults("worker-crash:p=0.3,seed=7;cache-store:p=0.2"):
            report = run_soak(
                SoakConfig(engine="compiled", seconds=30.0, seed=1)
            )
        assert report.wrong_verdicts == 0
        assert report.violations == []
