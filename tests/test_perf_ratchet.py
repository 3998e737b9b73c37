"""Unit tests of the CI perf ratchet (``benchmarks/perf_ratchet.py``)."""

import importlib.util
import json
from pathlib import Path

import pytest

_MODULE_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "perf_ratchet.py"
_spec = importlib.util.spec_from_file_location("perf_ratchet", _MODULE_PATH)
perf_ratchet = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ratchet)

BASELINE = {
    "megakernel_speedup": 12.0,
    "resnet18_fullwidth_run_s": 44.0,
    "resnet18_fullwidth_setup_s": 117.5,
}


class TestCheckRatchets:
    def test_identical_metrics_pass(self):
        assert perf_ratchet.check_ratchets(BASELINE, dict(BASELINE)) == []

    def test_improvements_pass(self):
        current = {
            "megakernel_speedup": 30.0,
            "resnet18_fullwidth_run_s": 10.0,
            "resnet18_fullwidth_setup_s": 40.0,
        }
        assert perf_ratchet.check_ratchets(BASELINE, current) == []

    def test_within_tolerance_passes(self):
        current = {
            "megakernel_speedup": 12.0 * 0.81,
            "resnet18_fullwidth_run_s": 44.0 * 1.19,
            "resnet18_fullwidth_setup_s": 117.5 * 1.19,
        }
        assert perf_ratchet.check_ratchets(BASELINE, current) == []

    def test_speedup_regression_fails(self):
        current = dict(BASELINE, megakernel_speedup=12.0 * 0.79)
        failures = perf_ratchet.check_ratchets(BASELINE, current)
        assert len(failures) == 1
        assert "megakernel_speedup" in failures[0]

    def test_runtime_regression_fails(self):
        current = dict(BASELINE, resnet18_fullwidth_run_s=44.0 * 1.21)
        failures = perf_ratchet.check_ratchets(BASELINE, current)
        assert len(failures) == 1
        assert "resnet18_fullwidth_run_s" in failures[0]

    def test_setup_regression_fails(self):
        current = dict(BASELINE, resnet18_fullwidth_setup_s=117.5 * 1.21)
        failures = perf_ratchet.check_ratchets(BASELINE, current)
        assert len(failures) == 1
        assert "resnet18_fullwidth_setup_s" in failures[0]

    def test_setup_is_ratcheted_lower_is_better(self):
        assert perf_ratchet.Ratchet(
            "resnet18_fullwidth_setup_s", "lower"
        ) in perf_ratchet.RATCHETS

    def test_missing_metrics_fail(self):
        failures = perf_ratchet.check_ratchets(BASELINE, {})
        assert len(failures) == len(perf_ratchet.RATCHETS) == 3
        failures = perf_ratchet.check_ratchets({}, BASELINE)
        assert len(failures) == len(perf_ratchet.RATCHETS)


class TestMain:
    @staticmethod
    def _write(path, metrics):
        path.write_text(json.dumps({"name": "inference", "metrics": metrics}))
        return path

    def test_main_ok(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "baseline.json", BASELINE)
        current = self._write(tmp_path / "current.json", dict(BASELINE))
        code = perf_ratchet.main(
            ["--baseline", str(baseline), "--current", str(current)]
        )
        assert code == 0
        assert "perf ratchet: OK" in capsys.readouterr().out

    def test_main_regression_exits_nonzero(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "baseline.json", BASELINE)
        current = self._write(
            tmp_path / "current.json",
            dict(BASELINE, megakernel_speedup=1.0),
        )
        code = perf_ratchet.main(
            ["--baseline", str(baseline), "--current", str(current)]
        )
        assert code == 1
        assert "PERF RATCHET FAILED" in capsys.readouterr().err

    def test_main_rejects_malformed_report(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "inference"}))
        good = self._write(tmp_path / "good.json", BASELINE)
        with pytest.raises(SystemExit):
            perf_ratchet.main(["--baseline", str(bad), "--current", str(good)])

    def test_committed_baseline_is_loadable(self):
        """The baseline CI diffs against must exist and carry both metrics."""
        baseline = perf_ratchet._load_metrics(
            _MODULE_PATH.parent / "baselines" / "BENCH_inference.json"
        )
        for ratchet in perf_ratchet.RATCHETS:
            assert ratchet.metric in baseline
