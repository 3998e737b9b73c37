"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compile_defaults(self):
        arguments = build_parser().parse_args(["compile"])
        assert arguments.model == "vgg9"
        assert arguments.bits == 4
        assert arguments.batch == 1

    def test_table2_network_filter(self):
        arguments = build_parser().parse_args(["table2", "--networks", "vgg9"])
        assert arguments.networks == ["vgg9"]

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "--model", "alexnet"])

    def test_run_defaults(self):
        arguments = build_parser().parse_args(["run"])
        assert arguments.executor == "serial"
        assert arguments.workers is None
        assert arguments.seed == 0

    def test_run_executor_choices(self):
        arguments = build_parser().parse_args(
            ["run", "--executor", "parallel", "--workers", "4"]
        )
        assert arguments.executor == "parallel"
        assert arguments.workers == 4
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--executor", "bogus"])

    def test_apbench_seed_flag(self):
        arguments = build_parser().parse_args(["apbench", "--seed", "11"])
        assert arguments.seed == 11

    def test_infer_defaults(self):
        arguments = build_parser().parse_args(["infer"])
        assert arguments.model == "vgg9"
        assert arguments.images == 1
        assert arguments.batch is None
        assert arguments.width is None
        assert arguments.executor == "serial"

    def test_serve_defaults(self):
        arguments = build_parser().parse_args(["serve"])
        assert arguments.model == "vgg9"
        assert arguments.requests == 8
        assert arguments.images == 2
        assert arguments.executor == "serial"
        assert arguments.seed == 0
        assert arguments.concurrency == 1
        assert arguments.json is False

    def test_serve_pipeline_flags(self):
        """Overlap comes from --concurrency alone; --pipeline is gone."""
        arguments = build_parser().parse_args(
            ["serve", "--concurrency", "3", "--json"]
        )
        assert arguments.concurrency == 3
        assert arguments.json is True
        for command in ("infer", "serve", "trace"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--pipeline"])

    def test_serve_flags(self):
        arguments = build_parser().parse_args(
            ["serve", "--model", "vgg9", "--width", "0.03125", "--requests", "3",
             "--images", "1", "--executor", "parallel", "--workers", "2"]
        )
        assert arguments.requests == 3
        assert arguments.images == 1
        assert arguments.width == 0.03125
        assert arguments.executor == "parallel"

    def test_cluster_defaults(self):
        arguments = build_parser().parse_args(["cluster"])
        assert arguments.command == "cluster"
        assert arguments.replicas == 2
        assert arguments.qps == 8.0
        assert arguments.duration == 2.0
        assert arguments.routing == "round-robin"
        assert arguments.queue_depth == 64
        assert arguments.max_wave == 4
        assert not arguments.json

    def test_cluster_flags(self):
        arguments = build_parser().parse_args(
            ["cluster", "--replicas", "4", "--qps", "16", "--duration", "3",
             "--routing", "least-loaded", "--queue-depth", "8",
             "--max-wave", "2", "--json"]
        )
        assert arguments.replicas == 4
        assert arguments.qps == 16.0
        assert arguments.routing == "least-loaded"
        assert arguments.queue_depth == 8
        assert arguments.max_wave == 2
        assert arguments.json

    def test_infer_flags(self):
        arguments = build_parser().parse_args(
            ["infer", "--model", "resnet18", "--width", "0.0625", "--images", "2",
             "--batch", "1", "--executor", "parallel", "--workers", "2"]
        )
        assert arguments.model == "resnet18"
        assert arguments.width == 0.0625
        assert arguments.images == 2
        assert arguments.batch == 1
        assert arguments.executor == "parallel"
        assert arguments.workers == 2


class TestCommands:
    def test_endurance_command(self, capsys):
        assert main(["endurance"]) == 0
        output = capsys.readouterr().out
        assert "lifetime" in output

    def test_compile_command_small(self, capsys):
        assert main(["compile", "--model", "vgg9", "--slices", "2", "--batch", "2"]) == 0
        output = capsys.readouterr().out
        assert "CAM arrays" in output
        assert "unroll+CSE" in output

    def test_fig4_command_sampled(self, capsys):
        assert main(["fig4", "--model", "vgg9", "--slices", "2"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 4" in output

    def test_run_command_serial(self, capsys):
        assert main(["run", "--model", "vgg9", "--slices", "1",
                     "--layers", "2", "--seed", "9"]) == 0
        output = capsys.readouterr().out
        assert "functional plan execution" in output
        assert "cost model consistent" in output
        assert "seed 9" in output

    def test_run_command_parallel(self, capsys):
        assert main(["run", "--model", "vgg9", "--slices", "1", "--layers", "2",
                     "--executor", "parallel", "--workers", "2"]) == 0
        output = capsys.readouterr().out
        assert "parallel executor, 2 worker(s)" in output

    def test_infer_command_narrow_vgg9(self, capsys):
        assert main(["infer", "--model", "vgg9", "--width", "0.03125",
                     "--images", "2", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "end-to-end inference of 2 image(s)" in output
        assert "logits byte-identical to the NumPy reference" in output
        assert "cost model consistent" in output

    def test_infer_command_batched_parallel(self, capsys):
        assert main(["infer", "--model", "vgg9", "--width", "0.03125",
                     "--images", "2", "--batch", "1",
                     "--executor", "parallel", "--workers", "2"]) == 0
        output = capsys.readouterr().out
        assert "parallel executor, 2 worker(s)" in output
        assert "byte-identical" in output

    def test_serve_command_warm_steady_state(self, capsys):
        assert main(["serve", "--model", "vgg9", "--width", "0.03125",
                     "--requests", "2", "--images", "1", "--seed", "4"]) == 0
        output = capsys.readouterr().out
        assert "deploy cost" in output
        assert "per-request cost" in output
        assert "amortized energy / request" in output
        assert "0 cold lease events and 0 CAM reprogram events after deploy" in output
        assert "cost model consistent" in output

    def test_serve_command_overlapped_clients(self, capsys):
        """--concurrency > 1 drives submit()/gather(); still all-warm."""
        assert main(["serve", "--model", "vgg9", "--width", "0.03125",
                     "--requests", "3", "--images", "1", "--seed", "4",
                     "--concurrency", "2"]) == 0
        output = capsys.readouterr().out
        assert "0 cold lease events and 0 CAM reprogram events after deploy" in output
        assert "(2 overlapped clients)" in output
        assert "fill / steady state / drain" in output

    def test_serve_command_json_report(self, capsys):
        """--json emits the BENCH_*.json schema instead of the tables."""
        import json

        assert main(["serve", "--model", "vgg9", "--width", "0.03125",
                     "--requests", "2", "--images", "1", "--seed", "4",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "serve_vgg9"
        metrics = payload["metrics"]
        assert metrics["requests"] == 2
        assert metrics["cold_leases_after_deploy"] == 0
        assert metrics["cam_reprograms_after_deploy"] == 0
        assert metrics["crosscheck_consistent"] is True
        assert metrics["pipeline_stages"] >= 2
        assert metrics["pipeline_speedup"] >= 1.0
        assert "amortized_energy_uj" in metrics

    def test_cluster_command_json_report(self, capsys):
        """repro cluster --json: every replica warm, no dropped requests."""
        import json

        assert main(["cluster", "--model", "vgg9", "--width", "0.0625",
                     "--replicas", "2", "--qps", "4", "--duration", "1",
                     "--seed", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "cluster_vgg9"
        metrics = payload["metrics"]
        assert metrics["replicas"] == 2
        assert metrics["replicas_live"] == 2
        assert metrics["cold_leases_after_deploy"] == 0
        assert metrics["failed"] == 0
        assert metrics["completed"] + metrics["rejected"] == metrics["requests"]
        assert len(metrics["requests_per_replica"]) == 2

    def test_cluster_command_human_tables(self, capsys):
        assert main(["cluster", "--model", "vgg9", "--width", "0.0625",
                     "--replicas", "2", "--qps", "4", "--duration", "1",
                     "--seed", "4"]) == 0
        output = capsys.readouterr().out
        assert "open-loop Poisson load" in output
        assert "per-replica residency" in output
        assert "2/2 live" in output

    def test_infer_command_exits_nonzero_on_mismatch(self, monkeypatch):
        """The crosscheck is a real gate: a logits mismatch fails the run."""
        import dataclasses

        import repro.eval.equivalence as equivalence_module

        real = equivalence_module.check_inference_equivalence

        def corrupted(*args, **kwargs):
            verdict = real(*args, **kwargs)
            return dataclasses.replace(verdict, logits_identical=False)

        monkeypatch.setattr(
            equivalence_module, "check_inference_equivalence", corrupted
        )
        with pytest.raises(SystemExit):
            main(["infer", "--model", "vgg9", "--width", "0.03125"])


def _apbench_phase_column(output: str):
    """Extract the (backend, phases) pairs from an apbench report."""
    rows = []
    for line in output.splitlines():
        cells = line.split()
        if cells and cells[0] in ("reference", "batched"):
            rows.append((cells[0], cells[4]))
    return rows


class TestApbenchSeedReproducibility:
    """`apbench --seed` threads end-to-end into the fuzz program generator:
    the same seed must reproduce the exact workload (and therefore the exact
    event counts) run-to-run; a different seed must change the workload."""

    def _phases(self, capsys, seed):
        assert main(["apbench", "--backend", "batched", "--rows", "32",
                     "--instructions", "16", "--repeats", "1",
                     "--seed", str(seed)]) == 0
        return _apbench_phase_column(capsys.readouterr().out)

    def test_same_seed_is_reproducible(self, capsys):
        assert self._phases(capsys, 5) == self._phases(capsys, 5)

    def test_different_seed_changes_workload(self, capsys):
        assert self._phases(capsys, 5) != self._phases(capsys, 6)
