"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables, figures or quantitative
claims (see DESIGN.md, "Experiment index").  The heavy artefacts (compiled
networks) are session-scoped so that several benchmarks can share them, and
every benchmark writes its human-readable report to ``benchmarks/output/`` so
the regenerated numbers can be compared with the paper (EXPERIMENTS.md).

Large networks are compiled with *slice sampling* (a documented speed/accuracy
trade-off of the statistics path, see ``CompilerConfig.max_slices_per_layer``):
per-layer statistics are measured on a subset of input-channel slices and
scaled, which keeps the full benchmark suite at a few minutes of runtime while
staying within a few percent of the exact operation counts.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess

import pytest

#: Number of input-channel slices compiled per layer in the benchmarks.
BENCH_SLICE_SAMPLING = 12

OUTPUT_DIRECTORY = pathlib.Path(__file__).parent / "output"


def pytest_addoption(parser):
    """Benchmark-harness options (``pytest benchmarks --ap-backend=...``)."""
    from repro.ap.backends import DEFAULT_BACKEND, available_backends

    parser.addoption(
        "--ap-backend",
        action="store",
        default=DEFAULT_BACKEND,
        choices=available_backends(),
        help="execution backend used by functional-AP benchmarks",
    )
    parser.addoption(
        "--ap-seed",
        action="store",
        type=int,
        default=0,
        help="seed of the randomized functional-AP workloads (same seed = "
             "byte-identical programs, inputs and event counters)",
    )


@pytest.fixture(scope="session")
def ap_backend(request) -> str:
    """Execution backend selected for functional-AP benchmark runs."""
    return request.config.getoption("--ap-backend")


@pytest.fixture(scope="session")
def ap_seed(request) -> int:
    """Workload seed selected for functional-AP benchmark runs."""
    return request.config.getoption("--ap-seed")


def _environment_context() -> dict:
    """Best-effort description of the machine/tree a benchmark ran on.

    Every field is optional (backfill-safe for older BENCH_*.json files and
    robust outside a git checkout): failures to resolve one simply omit it.
    """
    context: dict = {}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if sha.returncode == 0 and sha.stdout.strip():
            context["git_sha"] = sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    cpus = os.cpu_count()
    if cpus:
        context["cpu_count"] = cpus
    try:
        context["platform"] = platform.platform()
    except OSError:  # pragma: no cover - platform probing never fails on CI
        pass
    try:
        import numpy

        context["numpy_version"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        pass
    return context


def _save_report(
    name: str,
    text: str,
    data: "dict | None" = None,
    *,
    ap_backend: "str | None" = None,
    workers: "int | None" = None,
    model_width: "float | None" = None,
) -> pathlib.Path:
    """Write a benchmark's report under ``benchmarks/output/``.

    Every report is written twice: the human-readable table as
    ``<name>.txt`` and a machine-readable ``BENCH_<name>.json`` carrying the
    benchmark's headline metrics (the perf-trajectory file set tooling and
    CI trend tracking consume the JSON).  ``data`` should be a flat dict of
    numeric metrics; the JSON is written even when it is omitted so every
    benchmark run leaves a machine-readable marker.

    The keyword-only fields describe the *configuration* a run measured -
    which AP execution backend, how many executor workers, and the model
    width multiplier (1.0 = the paper's full-width network).  They land in a
    ``context`` object in the JSON so trend tooling can split series by
    configuration instead of mixing, say, reference and batched numbers.
    """
    OUTPUT_DIRECTORY.mkdir(parents=True, exist_ok=True)
    path = OUTPUT_DIRECTORY / f"{name}.txt"
    path.write_text(text + "\n")
    context = _environment_context()
    if ap_backend is not None:
        context["ap_backend"] = ap_backend
    if workers is not None:
        context["workers"] = workers
    if model_width is not None:
        context["model_width"] = model_width
    if data is not None and hasattr(data, "flat"):
        # A telemetry MetricsRegistry renders itself into the flat schema.
        data = data.flat()
    report = {"name": name, "metrics": data or {}}
    if context:
        report["context"] = context
    json_path = OUTPUT_DIRECTORY / f"BENCH_{name}.json"
    json_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture(scope="session")
def save_report():
    """Fixture handing benchmarks the report-writing helper."""
    return _save_report


@pytest.fixture(scope="session")
def slice_sampling() -> int:
    """Slice-sampling factor used by the heavy compilations."""
    return BENCH_SLICE_SAMPLING


@pytest.fixture(scope="session")
def resnet18_specs():
    """Ternary layer specs of ResNet-18 at the paper's 0.8 sparsity."""
    from repro.core.frontend import specs_for_network

    return specs_for_network("resnet18", sparsity=0.8, rng=0)


@pytest.fixture(scope="session")
def vgg9_specs():
    """Ternary layer specs of VGG-9 at the paper's 0.85 sparsity."""
    from repro.core.frontend import specs_for_network

    return specs_for_network("vgg9", sparsity=0.85, rng=0)
