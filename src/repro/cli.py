"""Command-line interface: ``python -m repro <command>``.

Exposes the main workflows as commands so the paper's experiments can be
regenerated without writing Python:

* ``compile``   - compile a benchmark network and print op counts / mapping,
* ``run``       - functionally execute a network on the plan runtime
  (serial or parallel executors, layer-granularity cost-model crosscheck),
* ``infer``     - end-to-end inference: real activations chained between
  layers, batched images, logits crosschecked against the NumPy reference,
* ``serve``     - deploy a network once (weights pinned into CAM) and serve
  repeated inference requests, reporting deploy vs. amortized per-request
  cost and the warm/cold residency ledger,
* ``cluster``   - cluster-scale serving: shard the resident plan across
  worker replica processes, drive the asyncio front door with a seeded
  open-loop Poisson load and report latency percentiles, admission
  counters and the per-replica residency ledger,
* ``table2``    - regenerate Table II,
* ``fig4``      - regenerate the Fig. 4 layer-by-layer comparison,
* ``accuracy``  - run the accuracy-vs-precision experiment,
* ``endurance`` - print the write-endurance analysis,
* ``check``     - static verification: plan/program verifiers and the
  concurrency lint of :mod:`repro.analysis` (stable ``RPA*`` error codes),
* ``apbench``   - benchmark / cross-validate the AP execution backends,
* ``trace``     - run a workload with structured tracing on and emit a
  Chrome-trace JSON (load it in Perfetto / ``chrome://tracing``) plus a
  top-N span summary,
* ``version``   - print the installed package version.

``run``, ``infer`` and ``serve`` accept ``--trace out.json`` (collect spans
and write a Chrome trace) and ``--metrics`` (print the unified metrics
registry); ``--verbose`` (or ``REPRO_LOG=DEBUG``) turns on the runtime's
stdlib logging.

``run``, ``infer`` and ``serve`` are all built on
:class:`repro.session.Session` - one compile, one weight-resident deploy,
then requests.  Installed as the ``repro`` console script
(``pip install -e .``) and runnable as ``python -m repro`` from a source
tree (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.ap.backends import DEFAULT_BACKEND, available_backends
from repro.runtime import available_executors
from repro.core.compiler import CompilerConfig, compile_model
from repro.core.frontend import specs_for_network
from repro.core.report import compare_configurations
from repro.eval.accuracy import run_accuracy_experiment
from repro.eval.fig4 import generate_fig4
from repro.eval.reporting import format_table
from repro.eval.table2 import PAPER_BENCHMARKS, generate_table2
from repro.nn.models.registry import available_models
from repro.perf.endurance import endurance_report
from repro.perf.model import PerformanceModelConfig, evaluate_model


def _version_string() -> str:
    """The installed package version (falls back to the source tree's)."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # pragma: no cover - not installed (PYTHONPATH=src run)
        from repro import __version__

        return __version__


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags of the session-backed commands."""
    parser.add_argument("--trace", metavar="OUT", default=None,
                        help="collect structured spans and write a "
                             "Chrome-trace JSON (Perfetto-loadable) here")
    parser.add_argument("--metrics", action="store_true",
                        help="print the unified metrics registry (counters, "
                             "gauges and wall-clock histograms)")


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Full-Stack Optimization for CAM-Only DNN Inference'",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {_version_string()}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="enable DEBUG logging on the repro.* loggers "
                             "(equivalent to REPRO_LOG=DEBUG)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    compile_parser = subparsers.add_parser(
        "compile", help="compile a network for the RTM-AP and print its statistics"
    )
    compile_parser.add_argument("--model", choices=available_models(), default="vgg9")
    compile_parser.add_argument("--sparsity", type=float, default=None,
                                help="ternary weight sparsity (default: the paper's setting)")
    compile_parser.add_argument("--bits", type=int, default=4, help="activation precision")
    compile_parser.add_argument("--slices", type=int, default=None,
                                help="sample this many input-channel slices per layer")
    compile_parser.add_argument("--batch", type=int, default=1,
                                help="images processed per layer pass")

    run_parser = subparsers.add_parser(
        "run",
        help="functionally execute a network on the execution-plan runtime",
    )
    run_parser.add_argument("--model", choices=available_models(), default="vgg9")
    run_parser.add_argument("--sparsity", type=float, default=None,
                            help="ternary weight sparsity (default: the paper's setting)")
    run_parser.add_argument("--bits", type=int, default=4, help="activation precision")
    run_parser.add_argument("--slices", type=int, default=2,
                            help="input-channel slices simulated per layer "
                                 "(sampling keeps full networks tractable)")
    run_parser.add_argument("--layers", type=int, default=None,
                            help="only run the first N layers")
    run_parser.add_argument(
        "--executor",
        choices=available_executors(),
        default="serial",
        help="tile-program executor (parallel = process pool)",
    )
    run_parser.add_argument("--workers", type=int, default=None,
                            help="worker count for pool executors (default: CPU count)")
    run_parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=DEFAULT_BACKEND,
        help="functional AP execution backend",
    )
    run_parser.add_argument("--seed", type=int, default=0,
                            help="base seed of the deterministic tile inputs")
    run_parser.add_argument("--no-crosscheck", action="store_true",
                            help="skip the analytic cost-model crosscheck")
    _add_telemetry_arguments(run_parser)

    infer_parser = subparsers.add_parser(
        "infer",
        help="end-to-end functional inference (real activation dataflow)",
    )
    infer_parser.add_argument("--model", choices=available_models(), default="vgg9")
    infer_parser.add_argument("--sparsity", type=float, default=None,
                              help="ternary weight sparsity (default: the paper's setting)")
    infer_parser.add_argument("--width", type=float, default=None,
                              help="channel-width multiplier (reduced widths keep "
                                   "the topology but make simulation fast)")
    infer_parser.add_argument("--bits", type=int, default=4, help="activation precision")
    infer_parser.add_argument("--images", type=int, default=1,
                              help="number of synthetic input images")
    infer_parser.add_argument("--batch", type=int, default=None,
                              help="micro-batch size (images per pass through the pool)")
    infer_parser.add_argument(
        "--executor",
        choices=available_executors(),
        default="serial",
        help="tile-program executor (parallel = process pool)",
    )
    infer_parser.add_argument("--workers", type=int, default=None,
                              help="worker count for pool executors (default: CPU count)")
    infer_parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=DEFAULT_BACKEND,
        help="functional AP execution backend",
    )
    infer_parser.add_argument("--seed", type=int, default=0,
                              help="seed of the synthetic input images")
    infer_parser.add_argument("--no-crosscheck", action="store_true",
                              help="skip the NumPy-reference and cost-model crosschecks")
    _add_telemetry_arguments(infer_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help="deploy a network once (weight-resident) and serve repeated "
             "inference requests",
    )
    serve_parser.add_argument("--model", choices=available_models(), default="vgg9")
    serve_parser.add_argument("--sparsity", type=float, default=None,
                              help="ternary weight sparsity (default: the paper's setting)")
    serve_parser.add_argument("--width", type=float, default=None,
                              help="channel-width multiplier (reduced widths keep "
                                   "the topology but make simulation fast)")
    serve_parser.add_argument("--bits", type=int, default=4, help="activation precision")
    serve_parser.add_argument("--requests", type=int, default=8,
                              help="inference requests served by the live session")
    serve_parser.add_argument("--images", type=int, default=2,
                              help="synthetic input images per request")
    serve_parser.add_argument("--batch", type=int, default=None,
                              help="micro-batch size (images per pass through the pool)")
    serve_parser.add_argument(
        "--executor",
        choices=available_executors(),
        default="serial",
        help="tile-program executor (parallel = process pool)",
    )
    serve_parser.add_argument("--workers", type=int, default=None,
                              help="worker count for pool executors (default: CPU count)")
    serve_parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=DEFAULT_BACKEND,
        help="functional AP execution backend",
    )
    serve_parser.add_argument("--seed", type=int, default=0,
                              help="seed of the synthetic input images (request r "
                                   "uses seed + r)")
    serve_parser.add_argument("--concurrency", type=int, default=1,
                              help="overlapped client requests in flight at once "
                                   "(>1 drives Session.submit()/gather() over the "
                                   "same pinned plan)")
    serve_parser.add_argument("--json", action="store_true",
                              help="emit the machine-readable report (same schema "
                                   "as benchmarks/output/BENCH_*.json) instead of "
                                   "the human tables")
    serve_parser.add_argument("--no-crosscheck", action="store_true",
                              help="skip the cost-model crosscheck of the last request")
    _add_telemetry_arguments(serve_parser)

    cluster_parser = subparsers.add_parser(
        "cluster",
        help="shard the resident plan across worker replicas and serve a "
             "seeded open-loop load through the asyncio front door",
    )
    cluster_parser.add_argument("--model", choices=available_models(), default="vgg9")
    cluster_parser.add_argument("--sparsity", type=float, default=None,
                                help="ternary weight sparsity (default: the paper's "
                                     "setting)")
    cluster_parser.add_argument("--width", type=float, default=None,
                                help="channel-width multiplier (reduced widths keep "
                                     "the topology but make simulation fast)")
    cluster_parser.add_argument("--bits", type=int, default=4,
                                help="activation precision")
    cluster_parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=DEFAULT_BACKEND,
        help="functional AP execution backend inside each replica",
    )
    cluster_parser.add_argument("--replicas", type=int, default=2,
                                help="worker replica processes the resident plan "
                                     "is sharded across")
    cluster_parser.add_argument("--qps", type=float, default=8.0,
                                help="offered load: open-loop Poisson arrival rate")
    cluster_parser.add_argument("--duration", type=float, default=2.0,
                                help="load-generation window in seconds")
    cluster_parser.add_argument("--images", type=int, default=1,
                                help="synthetic input images per request")
    cluster_parser.add_argument("--queue-depth", type=int, default=64,
                                help="bound of the front door's admission queue")
    cluster_parser.add_argument("--timeout", type=float, default=0.5,
                                help="admission timeout in seconds (a full queue "
                                     "rejects after this long)")
    cluster_parser.add_argument("--max-wave", type=int, default=4,
                                help="most queued requests coalesced into one "
                                     "continuous-batching wave")
    cluster_parser.add_argument("--routing", choices=("round-robin", "least-loaded"),
                                default="round-robin",
                                help="replica routing policy")
    cluster_parser.add_argument("--seed", type=int, default=0,
                                help="seed of the arrival schedule and the "
                                     "synthetic request images")
    cluster_parser.add_argument("--json", action="store_true",
                                help="emit the machine-readable report (same "
                                     "schema as benchmarks/output/BENCH_*.json) "
                                     "instead of the human tables")
    _add_telemetry_arguments(cluster_parser)

    table2_parser = subparsers.add_parser("table2", help="regenerate Table II")
    table2_parser.add_argument("--slices", type=int, default=12)
    table2_parser.add_argument("--networks", nargs="*", default=None,
                               choices=available_models(),
                               help="restrict to a subset of networks")
    table2_parser.add_argument("--with-accuracy", action="store_true")

    fig4_parser = subparsers.add_parser("fig4", help="regenerate the Fig. 4 comparison")
    fig4_parser.add_argument("--model", choices=available_models(), default="resnet18")
    fig4_parser.add_argument("--bits", type=int, default=4)
    fig4_parser.add_argument("--slices", type=int, default=12)

    accuracy_parser = subparsers.add_parser("accuracy", help="accuracy-vs-precision experiment")
    accuracy_parser.add_argument("--epochs", type=int, default=20)
    accuracy_parser.add_argument("--seed", type=int, default=5)

    subparsers.add_parser("endurance", help="write-endurance analysis")

    check_parser = subparsers.add_parser(
        "check",
        help="statically verify plans, programs and runtime lock discipline "
             "(repro.analysis)",
    )
    check_parser.add_argument("--plan", action="store_true",
                              help="only the program/plan verifiers (RPA1xx/RPA2xx)")
    check_parser.add_argument("--locks", action="store_true",
                              help="only the concurrency lint (RPA3xx)")
    check_parser.add_argument("--strict", action="store_true",
                              help="escalate warnings: any diagnostic at all "
                                   "fails the check")
    check_parser.add_argument("--model", default="all",
                              choices=available_models() + ("all",),
                              help="model(s) whose plans are verified")
    check_parser.add_argument("--width", type=float, default=0.125,
                              help="channel-width multiplier for the verified "
                                   "builds (small widths keep the check fast)")
    check_parser.add_argument("--bits", type=int, default=4,
                              help="activation precision of the verified builds")
    check_parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=DEFAULT_BACKEND,
        help="execution backend the verified accelerators are configured with",
    )
    check_parser.add_argument("--path", default=None,
                              help="source tree the concurrency lint walks "
                                   "(default: the installed repro package)")

    apbench_parser = subparsers.add_parser(
        "apbench",
        help="benchmark the functional AP execution backends against each other",
    )
    apbench_parser.add_argument(
        "--backend",
        choices=available_backends() + ["all"],
        default="all",
        help="execution backend to run (default: all, with cross-validation)",
    )
    apbench_parser.add_argument("--rows", type=int, default=256,
                                help="active CAM rows (SIMD lanes)")
    apbench_parser.add_argument("--instructions", type=int, default=120,
                                help="length of the randomized AP program")
    apbench_parser.add_argument("--seed", type=int, default=0)
    apbench_parser.add_argument("--repeats", type=int, default=3,
                                help="timing repetitions (best run is reported)")

    trace_parser = subparsers.add_parser(
        "trace",
        help="run a workload with tracing on and emit a Chrome-trace JSON "
             "plus a top-N span summary",
    )
    trace_parser.add_argument("--model", choices=available_models(), default="vgg9")
    trace_parser.add_argument("--width", type=float, default=None,
                              help="channel-width multiplier (reduced widths keep "
                                   "the topology but make simulation fast)")
    trace_parser.add_argument("--bits", type=int, default=4, help="activation precision")
    trace_parser.add_argument("--sparsity", type=float, default=None,
                              help="ternary weight sparsity (default: the paper's setting)")
    trace_parser.add_argument("--requests", type=int, default=2,
                              help="inference requests traced against the live session")
    trace_parser.add_argument("--images", type=int, default=2,
                              help="synthetic input images per request")
    trace_parser.add_argument(
        "--executor",
        choices=available_executors(),
        default="serial",
        help="tile-program executor (parallel = process pool)",
    )
    trace_parser.add_argument("--workers", type=int, default=None,
                              help="worker count for pool executors (default: CPU count)")
    trace_parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=DEFAULT_BACKEND,
        help="functional AP execution backend",
    )
    trace_parser.add_argument("--seed", type=int, default=0,
                              help="seed of the synthetic input images")
    trace_parser.add_argument("--concurrency", type=int, default=1,
                              help="overlapped client requests in flight at once")
    trace_parser.add_argument("-o", "--out", default="trace.json",
                              help="Chrome-trace output path (default: trace.json)")
    trace_parser.add_argument("--top", type=int, default=12,
                              help="span names in the printed summary table")

    subparsers.add_parser("version", help="print the installed package version")
    return parser


def _run_compile(arguments: argparse.Namespace) -> str:
    specs = specs_for_network(arguments.model, sparsity=arguments.sparsity, rng=0)
    unroll = compile_model(
        specs,
        CompilerConfig(enable_cse=False, activation_bits=arguments.bits,
                       max_slices_per_layer=arguments.slices),
        name=arguments.model,
    )
    cse = compile_model(
        specs,
        CompilerConfig(enable_cse=True, activation_bits=arguments.bits,
                       max_slices_per_layer=arguments.slices),
        name=arguments.model,
    )
    performance = evaluate_model(
        cse, config=PerformanceModelConfig(batch_size=arguments.batch)
    )
    lines = [compare_configurations(unroll, cse).to_text(), ""]
    lines.append(
        format_table(
            ["metric", "value"],
            [
                ["CAM arrays (256x256)", cse.arrays_required],
                ["energy / batch (uJ)", performance.energy_uj],
                ["latency / batch (ms)", performance.latency_ms],
                ["energy / image (uJ)", performance.energy_per_image_uj],
                ["latency / image (ms)", performance.latency_per_image_ms],
                ["data-movement share", f"{performance.movement_fraction * 100:.1f}%"],
            ],
            title=f"{arguments.model} on the RTM-AP "
                  f"({arguments.bits}-bit activations, batch {arguments.batch})",
        )
    )
    return "\n".join(lines)


def _session_config(arguments: argparse.Namespace, **extra):
    """Build the consolidated session configuration from CLI flags."""
    from repro.session import SessionConfig

    settings = dict(
        model=arguments.model,
        sparsity=arguments.sparsity,
        bits=arguments.bits,
        executor=arguments.executor,
        workers=arguments.workers,
        backend=arguments.backend,
        name=arguments.model,
        trace=getattr(arguments, "trace", None) or False,
        metrics=bool(getattr(arguments, "metrics", False)),
    )
    settings.update(extra)
    return SessionConfig(**settings)


def _telemetry_lines(session, arguments: argparse.Namespace) -> list:
    """Trailing ``--trace``/``--metrics`` output of session-backed commands.

    Must be called while the session is still open (the trace file itself is
    flushed by ``Session.close()``).
    """
    lines = []
    if getattr(arguments, "metrics", False):
        rows = [
            [name, value]
            for name, value in session.metrics_registry().flat().items()
        ]
        lines.extend(
            ["", format_table(["metric", "value"], rows, title="metrics registry")]
        )
    if getattr(arguments, "trace", None):
        lines.extend(
            [
                "",
                f"trace: {len(session.trace_events())} span events -> "
                f"{arguments.trace}",
            ]
        )
    return lines


def _run_run(arguments: argparse.Namespace) -> str:
    from repro.session import Session

    config = _session_config(
        arguments,
        slices=arguments.slices,
        layers=arguments.layers,
        seed=arguments.seed,
    )
    with Session(config) as session:
        session.compile().deploy()
        execution = session.run()
        plan = session.plan
        check = None if arguments.no_crosscheck else session.crosscheck(execution)
        telemetry_lines = _telemetry_lines(session, arguments)

    rows = [
        [
            layer.name,
            layer.tiles_executed,
            layer.aps_used,
            layer.rounds,
            layer.stats.search_phases,
            layer.stats.write_phases,
            f"{layer.energy_uj:.4f}",
            f"{layer.latency_ms:.5f}",
        ]
        for layer in execution.layers
    ]
    lines = [
        plan.describe(),
        "",
        format_table(
            ["layer", "tiles", "APs", "rounds", "search", "write",
             "energy (uJ)", "latency (ms)"],
            rows,
            title=(
                f"{arguments.model}: functional plan execution "
                f"({execution.executor} executor, {execution.workers} worker(s), "
                f"{execution.backend} backend, seed {arguments.seed})"
            ),
        ),
        "",
        format_table(
            ["metric", "value"],
            [
                ["tile programs executed", plan.num_tiles],
                ["instructions executed", plan.num_instructions],
                ["peak APs used", execution.arrays_used],
                ["functional energy (uJ)", f"{execution.energy_uj:.4f}"],
                ["functional latency (ms)", f"{execution.latency_ms:.5f}"],
                ["data-movement share", f"{execution.movement_fraction * 100:.2f}%"],
                ["output checksum", execution.checksum],
                ["host wall-clock (s)", f"{execution.wall_time_s:.3f}"],
            ],
            title="aggregate (sampled slices; scale factors recorded per layer)",
        ),
    ]
    if check is not None:
        lines.append("")
        lines.append("crosscheck: " + check.describe())
    lines.extend(telemetry_lines)
    return "\n".join(lines)


def _run_infer(arguments: argparse.Namespace) -> str:
    from repro.eval.equivalence import check_inference_equivalence
    from repro.nn.datasets import synthetic_images
    from repro.nn.models.registry import model_record
    from repro.session import Session

    record = model_record(arguments.model)
    images = synthetic_images(
        record.dataset, batch_size=arguments.images, rng=arguments.seed
    )
    config = _session_config(arguments, width=arguments.width)
    with Session(config) as session:
        session.compile().deploy()
        result = session.infer(images, batch=arguments.batch)
        execution = result.execution
        graph_line = session.graph.describe()
        equivalence = check = None
        if not arguments.no_crosscheck:
            equivalence = check_inference_equivalence(
                session.model,
                images,
                result,
                input_shape=session.input_shape,
                bits=arguments.bits,
            )
            check = session.crosscheck()
        telemetry_lines = _telemetry_lines(session, arguments)

    rows = [
        [
            layer.name,
            layer.tiles_executed,
            layer.aps_used,
            layer.stats.search_phases,
            layer.stats.write_phases,
            f"{layer.energy_uj:.4f}",
            f"{layer.latency_ms:.5f}",
        ]
        for layer in execution.layers
    ]
    width_note = f", width x{arguments.width}" if arguments.width else ""
    lines = [
        graph_line,
        "",
        format_table(
            ["layer", "tiles", "APs", "search", "write", "energy (uJ)", "latency (ms)"],
            rows,
            title=(
                f"{arguments.model}: end-to-end inference of {result.images} image(s) "
                f"({execution.executor} executor, {execution.workers} worker(s), "
                f"{execution.backend} backend{width_note})"
            ),
        ),
        "",
        format_table(
            ["metric", "value"],
            [
                ["images", result.images],
                ["predictions", " ".join(str(p) for p in result.predictions)],
                ["functional energy (uJ)", f"{execution.energy_uj:.4f}"],
                ["functional latency (ms)", f"{execution.latency_ms:.5f}"],
                ["data-movement share", f"{execution.movement_fraction * 100:.2f}%"],
                ["activation traffic (bits)", result.store.total_activation_bits],
                ["output checksum", result.checksum],
                ["host wall-clock (s)", f"{result.wall_time_s:.3f}"],
            ],
            title="aggregate (exact: every input-channel slice executed)",
        ),
    ]
    if equivalence is not None:
        lines.append("")
        lines.append("reference crosscheck: " + equivalence.describe())
        lines.append("cost-model crosscheck: " + check.describe())
        if not (equivalence.consistent and check.consistent):
            # Exit nonzero so CI steps running `repro infer` actually gate on
            # the crosschecks instead of only printing the verdict.
            raise SystemExit("\n".join(lines + ["", "FAILED: crosscheck inconsistent"]))
    lines.extend(telemetry_lines)
    return "\n".join(lines)


def _run_serve(arguments: argparse.Namespace) -> str:
    import json

    from repro.nn.datasets import synthetic_images
    from repro.nn.models.registry import model_record
    from repro.session import Session

    record = model_record(arguments.model)
    config = _session_config(
        arguments,
        width=arguments.width,
        concurrency=max(1, arguments.concurrency),
    )
    with Session(config) as session:
        session.compile().deploy()
        deployed = session.residency
        batches = [
            synthetic_images(
                record.dataset,
                batch_size=arguments.images,
                rng=arguments.seed + request,
            )
            for request in range(arguments.requests)
        ]
        if arguments.concurrency > 1:
            # Overlapped clients over the same pinned plan; gather()
            # records them in submission order.
            for batch in batches:
                session.submit(batch, batch=arguments.batch)
            session.gather()
        else:
            for batch in batches:
                session.infer(batch, batch=arguments.batch)
        report = session.report()
        check = None if arguments.no_crosscheck else session.crosscheck()
        described = session.describe()
        telemetry_lines = _telemetry_lines(session, arguments)
        registry_flat = (
            session.metrics_registry().flat() if arguments.metrics else None
        )

    residency = report.residency
    cold_leases = residency.lease_events - deployed.lease_events
    cold_reprograms = residency.reprogram_events - deployed.reprogram_events
    failures = []
    if cold_leases or cold_reprograms:
        failures.append("warm session leaked cold leases")
    if check is not None and not check.consistent:
        failures.append("cost-model crosscheck inconsistent")
    verdict = "FAILED: " + "; ".join(failures) if failures else ""

    if arguments.json:
        metrics = report.to_metrics()
        metrics["concurrency"] = arguments.concurrency
        metrics["cold_leases_after_deploy"] = cold_leases
        metrics["cam_reprograms_after_deploy"] = cold_reprograms
        metrics["crosscheck_consistent"] = (
            check.consistent if check is not None else None
        )
        document = {"name": f"serve_{arguments.model}", "metrics": metrics}
        if registry_flat is not None:
            document["registry"] = registry_flat
        payload = json.dumps(document, indent=2, sort_keys=True)
        if failures:
            # Keep stdout valid JSON for scrapers; the verdict goes to
            # stderr with the nonzero exit code.
            print(payload)
            raise SystemExit(verdict)
        return payload

    lines = [described, "", report.to_text()]
    lines.append("")
    lines.append(
        f"steady state: {residency.warm_hits} warm dispatches, "
        f"{cold_leases} cold lease events and {cold_reprograms} CAM "
        f"reprogram events after deploy"
        + (
            f" ({arguments.concurrency} overlapped clients)"
            if arguments.concurrency > 1
            else ""
        )
    )
    if check is not None:
        lines.append("cost-model crosscheck: " + check.describe())
    lines.extend(telemetry_lines)
    if failures:
        # A live session must serve every request warm; exit nonzero so CI
        # steps running `repro serve` gate on the steady-state claim.
        raise SystemExit("\n".join(lines + ["", verdict]))
    return "\n".join(lines)


def _run_cluster(arguments: argparse.Namespace) -> str:
    """Cluster serving: ``repro cluster --replicas N --qps Q --duration S``.

    Starts the sharded cluster, replays a seeded open-loop Poisson load
    through the asyncio front door, and exits nonzero if any replica leaked
    a cold lease after its deploy barrier or any admitted request was
    dropped - the warm-serving claim, now asserted at cluster scale.
    """
    import json

    from repro.serving import Cluster, ClusterConfig
    from repro.serving.loadgen import run_load

    config = ClusterConfig(
        model=arguments.model,
        width=arguments.width,
        sparsity=arguments.sparsity,
        bits=arguments.bits,
        backend=arguments.backend,
        seed=arguments.seed,
        replicas=arguments.replicas,
        queue_depth=arguments.queue_depth,
        admission_timeout_s=arguments.timeout,
        max_wave=arguments.max_wave,
        routing=arguments.routing,
        trace=arguments.trace or False,
        metrics=bool(arguments.metrics),
    )
    with Cluster(config) as cluster:
        cluster.start()
        report = run_load(
            cluster,
            qps=arguments.qps,
            duration_s=arguments.duration,
            images_per_request=arguments.images,
            rng=arguments.seed,
        )
        stats = cluster.stats()
        registry_flat = (
            cluster.metrics_registry().flat() if arguments.metrics else None
        )
        trace_spans = (
            len(cluster._tracer.events()) if cluster._tracer is not None else 0
        )

    failures = []
    if not stats.all_warm:
        failures.append(
            f"replicas leaked {stats.cold_leases} cold lease events after "
            f"deploy"
        )
    if report.failed:
        failures.append(f"{report.failed} admitted request(s) dropped")
    if stats.live_replicas < arguments.replicas:
        failures.append(
            f"only {stats.live_replicas}/{arguments.replicas} replicas "
            f"survived the run"
        )
    verdict = "FAILED: " + "; ".join(failures) if failures else ""

    if arguments.json:
        metrics = report.to_metrics()
        metrics["replicas"] = arguments.replicas
        metrics["replicas_live"] = stats.live_replicas
        metrics["cold_leases_after_deploy"] = stats.cold_leases
        metrics["compile_cache"] = cluster.compile_cache_status
        metrics["requests_per_replica"] = [
            replica.requests for replica in stats.replicas
        ]
        document = {"name": f"cluster_{arguments.model}", "metrics": metrics}
        if registry_flat is not None:
            document["registry"] = registry_flat
        payload = json.dumps(document, indent=2, sort_keys=True)
        if failures:
            # Keep stdout valid JSON for scrapers; the verdict goes to
            # stderr with the nonzero exit code.
            print(payload)
            raise SystemExit(verdict)
        return payload

    lines = [
        format_table(
            ["metric", "value"],
            [
                ["replicas", f"{stats.live_replicas}/{arguments.replicas} live"],
                ["offered load", f"{report.offered_qps:.1f} qps for "
                                 f"{report.duration_s:.1f}s"],
                ["requests", report.requests],
                ["admitted", report.admitted],
                ["rejected (backpressure)", report.rejected],
                ["completed", report.completed],
                ["dropped", report.failed],
                ["achieved qps", f"{report.achieved_qps:.2f}"],
                ["latency p50 (ms)", f"{report.latency_p50_ms:.1f}"],
                ["latency p99 (ms)", f"{report.latency_p99_ms:.1f}"],
                ["waves", report.waves],
                ["mean wave size", f"{report.mean_wave_size:.2f}"],
                ["compile cache", cluster.compile_cache_status],
            ],
            title=f"{arguments.model} cluster: open-loop Poisson load",
        ),
        "",
        format_table(
            ["replica", "alive", "requests", "failures", "cold leases",
             "warm hits", "APs pinned"],
            [
                [
                    replica.replica,
                    "yes" if replica.alive else "no",
                    replica.requests,
                    replica.failures,
                    replica.cold_leases,
                    replica.warm_hits,
                    replica.aps_pinned,
                ]
                for replica in stats.replicas
            ],
            title="per-replica residency (post-deploy deltas)",
        ),
    ]
    if registry_flat is not None:
        rows = [[name, value] for name, value in registry_flat.items()]
        lines.extend(
            ["", format_table(["metric", "value"], rows,
                              title="metrics registry")]
        )
    if arguments.trace:
        lines.extend(
            ["", f"trace: {trace_spans} span events -> {arguments.trace}"]
        )
    if failures:
        # The cluster must serve every admitted request warm on every
        # replica; exit nonzero so CI smokes gate on the claim.
        raise SystemExit("\n".join(lines + ["", verdict]))
    return "\n".join(lines)


def _run_table2(arguments: argparse.Namespace) -> str:
    benchmarks = PAPER_BENCHMARKS
    if arguments.networks:
        benchmarks = tuple(
            entry for entry in PAPER_BENCHMARKS if entry[0] in set(arguments.networks)
        )
    accuracy = run_accuracy_experiment() if arguments.with_accuracy else None
    table = generate_table2(
        benchmarks=benchmarks, max_slices_per_layer=arguments.slices, accuracy=accuracy, rng=0
    )
    return table.to_text()


def _run_fig4(arguments: argparse.Namespace) -> str:
    data = generate_fig4(
        arguments.model, activation_bits=arguments.bits,
        max_slices_per_layer=arguments.slices, rng=0,
    )
    return data.to_text()


def _run_accuracy(arguments: argparse.Namespace) -> str:
    summary = run_accuracy_experiment(epochs=arguments.epochs, seed=arguments.seed)
    return summary.to_text()


def _run_endurance(_: argparse.Namespace) -> str:
    report = endurance_report()
    return format_table(
        ["quantity", "value", "paper"],
        [
            ["rewrite interval (ns)", report.paper_style.mean_rewrite_interval_ns, "~100 ns"],
            ["lifetime (years)", report.paper_style_years, "~31 years"],
        ],
        title="RTM write-endurance analysis (Sec. V-C)",
    )


def _run_check(arguments: argparse.Namespace) -> str:
    """Static verification: ``repro check [--plan] [--locks] [--strict]``.

    With neither scope flag, both run.  Exit status is the gate CI relies
    on: nonzero when any error-severity diagnostic was found - or, with
    ``--strict``, any diagnostic at all.
    """
    from repro.analysis import (
        VerificationReport,
        lint_tree,
        verify_all_luts,
        verify_execution_plan,
    )

    check_plans = arguments.plan or not arguments.locks
    check_locks = arguments.locks or not arguments.plan
    reports = []

    if check_plans:
        from repro.arch.accelerator import Accelerator
        from repro.core.compiler import CompilerConfig, compile_model
        from repro.core.frontend import specs_from_model
        from repro.nn.models.registry import build_model
        from repro.runtime.plan import build_execution_plan, resident_aps_required

        reports.append(verify_all_luts())
        models = (
            available_models() if arguments.model == "all" else (arguments.model,)
        )
        for name in models:
            model, input_shape = build_model(name, width=arguments.width, rng=0)
            specs = specs_from_model(model, input_shape)
            compiled = compile_model(
                specs,
                CompilerConfig(activation_bits=arguments.bits),
                name=name,
                emit_programs=True,
            )
            for placement in ("shared", "resident"):
                accelerator = Accelerator(backend=arguments.backend)
                if placement == "resident":
                    required = resident_aps_required(compiled)
                    if required > accelerator.num_aps:
                        accelerator = Accelerator(
                            accelerator.config.with_total_aps(required),
                            backend=arguments.backend,
                        )
                plan = build_execution_plan(
                    compiled, accelerator, placement=placement
                )
                report = VerificationReport(
                    subject=f"{name} width x{arguments.width} [{placement}]"
                )
                verify_execution_plan(
                    plan, accelerator, compiled=compiled, report=report
                )
                reports.append(report)

    if check_locks:
        import repro as _repro
        from pathlib import Path

        root = (
            Path(arguments.path)
            if arguments.path is not None
            else Path(_repro.__file__).resolve().parent
        )
        reports.append(lint_tree(root))

    lines = [report.describe() for report in reports]
    errors = sum(len(report.errors) for report in reports)
    warnings = sum(len(report.warnings) for report in reports)
    verdict = (
        f"check: {len(reports)} subject(s), {errors} error(s), "
        f"{warnings} warning(s)"
        + (" [strict]" if arguments.strict else "")
    )
    lines.append(verdict)
    if errors or (arguments.strict and warnings):
        raise SystemExit("\n".join(lines + ["", "FAILED: " + verdict]))
    return "\n".join(lines)


def _run_apbench(arguments: argparse.Namespace) -> str:
    from repro.ap.backends.harness import benchmark_backends, compare_runs
    from repro.perf.model import PerformanceModelConfig, crosscheck_cost_model

    backends = (
        available_backends() if arguments.backend == "all" else [arguments.backend]
    )
    columns = 32
    runs = benchmark_backends(
        backends,
        rows=arguments.rows,
        columns=columns,
        num_instructions=arguments.instructions,
        seed=arguments.seed,
        repeats=arguments.repeats,
    )
    baseline = runs.get("reference") or next(iter(runs.values()))
    rows = []
    for name, run in runs.items():
        crosscheck = crosscheck_cost_model(
            rows=arguments.rows,
            config=PerformanceModelConfig(execution_backend=name),
            seed=arguments.seed,
        )
        rows.append(
            [
                name,
                f"{run.duration_s * 1e3:.2f}",
                f"{arguments.instructions / run.duration_s:.0f}",
                f"{baseline.duration_s / run.duration_s:.2f}x",
                run.stats.total_phases,
                "yes" if crosscheck.consistent else "NO",
            ]
        )
    lines = [
        format_table(
            ["backend", "runtime (ms)", "instr/s", "speedup", "phases", "cost model ok"],
            rows,
            title=(
                f"AP backend benchmark: {arguments.instructions} random "
                f"instructions on {arguments.rows} rows (seed {arguments.seed})"
            ),
        )
    ]
    if len(backends) > 1:
        # The benchmark runs already captured outputs, stats and final CAM
        # state per backend; cross-validate those snapshots directly.
        verdicts = [
            compare_runs(runs[backends[0]], runs[candidate]).describe()
            for candidate in backends[1:]
        ]
        lines.append("cross-validation: " + "; ".join(verdicts))
    return "\n".join(lines)


def _run_trace(arguments: argparse.Namespace) -> str:
    """``repro trace``: serve a traced workload, write the Chrome trace.

    The session runs with tracing on for its whole lifetime (compile,
    deploy, every request); the trace file is flushed on close and the
    top-N spans by total wall-clock are tabulated for a quick look before
    the JSON ever reaches Perfetto.
    """
    from repro.nn.datasets import synthetic_images
    from repro.nn.models.registry import model_record
    from repro.session import Session
    from repro.telemetry import summarize_spans

    record = model_record(arguments.model)
    config = _session_config(
        arguments,
        width=arguments.width,
        concurrency=max(1, arguments.concurrency),
        trace=arguments.out,
    )
    with Session(config) as session:
        session.compile().deploy()
        batches = [
            synthetic_images(
                record.dataset,
                batch_size=arguments.images,
                rng=arguments.seed + request,
            )
            for request in range(arguments.requests)
        ]
        if arguments.concurrency > 1:
            for batch in batches:
                session.submit(batch)
            session.gather()
        else:
            for batch in batches:
                session.infer(batch)
        events = session.trace_events()
        described = session.describe()
    rows = summarize_spans(events, top=arguments.top)
    return "\n".join(
        [
            described,
            "",
            format_table(
                ["span", "count", "total (ms)", "mean (ms)", "max (ms)"],
                rows,
                title=f"top {min(arguments.top, len(rows))} spans "
                      f"by total wall-clock",
            ),
            "",
            f"trace: {len(events)} span events -> {arguments.out}",
        ]
    )


def _run_version(_: argparse.Namespace) -> str:
    return f"repro {_version_string()}"


_COMMANDS = {
    "compile": _run_compile,
    "run": _run_run,
    "infer": _run_infer,
    "serve": _run_serve,
    "cluster": _run_cluster,
    "table2": _run_table2,
    "fig4": _run_fig4,
    "accuracy": _run_accuracy,
    "endurance": _run_endurance,
    "check": _run_check,
    "apbench": _run_apbench,
    "trace": _run_trace,
    "version": _run_version,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` (returns a process exit code)."""
    from repro.telemetry.logs import configure_logging

    parser = build_parser()
    arguments = parser.parse_args(argv)
    configure_logging(level="DEBUG" if arguments.verbose else None)
    output = _COMMANDS[arguments.command](arguments)
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
