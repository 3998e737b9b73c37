"""Benchmark of the CAM-only inference simulator, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload vgg9-wave96 --seed 1 --seconds 26 --trace 0

``--trace 0`` times set-up (``Session(...)`` -> ``compile()`` -> ``deploy()``,
repeated, median reported) and then closed-loop serving, with nothing
patched.  Each set-up, and each measured request, is
rescaled to a nominal host speed by a probe kernel timed just before and
just after it (``workloads.HostSpeed``); the values as measured are printed
beside them.  ``--trace 1`` serves once untraced and once with every
layer's public calls wrapped in self-time clocks
(``perfbench/tracing.py``), checks that both passes simulate exactly the
same thing, and reports the per-layer metrics with a reconciliation of the
parts against the whole.

Every request's logits must equal the reference and no cold AP lease or CAM
reprogram may be charged after deploy.  ``sim_digest`` fingerprints the
simulated results of the warm-up request (pool entry 0 of the seed), so two
commits, or the traced and untraced passes, compare exactly.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose metric
names and units are those listed in ``BENCHMARK.json``.  Workloads and the
map from each per-layer metric to the end-to-end metric it should move are
in ``perfbench/workloads.py`` and ``perfbench/layer_map.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Knobs that would change what is measured; the benchmark runs the defaults.
_ENVIRONMENT_KNOBS = ("REPRO_AP_BACKEND", "REPRO_COMPILE_CACHE", "REPRO_HOST_DATAFLOW")


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> bool:
    """Put the checkout's ``src/`` first on the path and import ``repro`` from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {src}/repro", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"perfbench: repro imported from {repro.__file__}", file=sys.stderr)
        return False
    return True


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_digests(label: str, warm) -> Tuple[str, str]:
    from workloads import logits_digest, sim_digest

    if warm is None:
        digests = ("none", "none")
    else:
        digests = (sim_digest(warm.execution), logits_digest(warm.logits))
    print(f"{label}: sim_digest {digests[0]} logits_digest {digests[1]}")
    return digests


def _print_parts(parts: Dict[str, float], whole: float) -> None:
    """One line per non-zero layer self time, then the unattributed rest."""
    for key in sorted(parts, key=parts.get, reverse=True):
        if parts[key]:
            print(f"  {key:<22} {parts[key]:10.5f} s {parts[key] / whole:7.2%}")
    rest = whole - sum(parts.values())
    print(f"  {'unattributed':<22} {rest:10.5f} s {rest / whole:7.2%}")


def run_untraced(workload, model, requests, expected, seconds):
    """Set up ``workload.setups`` times around serving; returns (correct, client, metrics).

    Half of the set-ups (rounded up) run before serving - the last of them
    serves - and the rest after it, so their median spans the whole run
    rather than one moment of the host's speed.  Every session is closed
    and dropped before the next set-up, and ``peak_rss_mb`` is read as
    serving ends, so it covers one live session: the one that served, on top
    of the model, the inputs and the reference logits.

    Host times are reported at nominal host speed (see
    :class:`workloads.HostSpeed`), as measured in brackets: probes bracket
    every set-up and every measured request.
    """
    from workloads import Client, HostSpeed, cold_events, set_up

    host = HostSpeed()
    setup_times = []
    nominal_setup_times = []

    def timed_set_up():
        (session, elapsed, _), slowdown = host.bracket(lambda: set_up(model, workload))
        setup_times.append(elapsed)
        nominal_setup_times.append(elapsed / slowdown)
        return session

    for _ in range(workload.setups - workload.setups // 2 - 1):
        timed_set_up().close()
    session = timed_set_up()
    try:
        baseline = cold_events(session)
        client = Client(session, workload, requests, expected, host)
        warm = client.warm_up()
        client.measure(seconds)
        cold = cold_events(session) - baseline
    finally:
        session.close()
    peak_rss_mb = _peak_rss_mb()
    client.release()
    session = None
    for _ in range(workload.setups // 2):
        timed_set_up().close()
    _print_digests("untraced", warm)
    latencies = client.latencies_s
    measured = {
        "setup_s": statistics.median(setup_times),
        "images_per_s": client.images / client.wall_s,
        "request_p50_ms": statistics.median(latencies) * 1e3,
    }
    nominal = client.nominal_latencies_s
    metrics = {
        "setup_s": statistics.median(nominal_setup_times),
        "images_per_s": client.images / client.nominal_wall_s,
        "request_p50_ms": statistics.median(nominal) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    print(
        f"host speed: probe median {host.median_slowdown():.3f}x nominal over "
        f"{len(host.samples)} probes; host times at nominal speed [as measured]"
    )
    print(
        f"setup_s {metrics['setup_s']:.4f} s [{measured['setup_s']:.4f}] (median "
        f"of {len(setup_times)}: " + ", ".join(f"{value:.3f}" for value in setup_times)
        + ")"
    )
    print(
        f"images_per_s {metrics['images_per_s']:.4f} img/s "
        f"[{measured['images_per_s']:.4f}] ({client.images} images in "
        f"{client.wall_s:.3f} s, one closed-loop client)"
    )
    print(
        f"request_p50_ms {metrics['request_p50_ms']:.3f} ms "
        f"[{measured['request_p50_ms']:.3f}] (n={len(latencies)} measured requests)"
    )
    print(
        f"failed_share {client.failed / client.attempted:.4f} "
        f"({client.failed}/{client.attempted} requests; cold events after deploy: {cold})"
    )
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    correct = client.failed == 0 and cold == 0 and warm is not None
    return correct, client, metrics


def run_traced(workload, model, requests, expected, seconds):
    """Untraced pass, then a traced pass; returns (correct, clients, metrics)."""
    from tracing import SETUP_KEYS, LayerClock, all_restored, phase
    from workloads import Client, cold_events, set_up

    half = seconds / 2.0
    session, _, _ = set_up(model, workload)
    try:
        baseline = cold_events(session)
        plain = Client(session, workload, requests, expected)
        plain_warm = plain.warm_up()
        plain.measure(half)
        cold = cold_events(session) - baseline
    finally:
        session.close()
    plain.release()
    session = None

    clock = LayerClock()
    with clock.installed() as saved:
        before = clock.snapshot()
        session, _, setup_cpu = set_up(model, workload)
        try:
            after_setup = clock.snapshot()
            baseline = cold_events(session)
            traced = Client(session, workload, requests, expected)
            traced_warm = traced.warm_up()
            after_warmup = clock.snapshot()
            traced.measure(half)
            after_requests = clock.snapshot()
            cold += cold_events(session) - baseline
            compiled = session.compiled
        finally:
            session.close()
    restored = all_restored(saved)

    plain_digests = _print_digests("untraced", plain_warm)
    traced_digests = _print_digests("traced", traced_warm)
    setup = phase(before, after_setup)
    served = phase(after_warmup, after_requests)
    count = len(traced.latencies_s)
    per_request = {key: value / count for key, value in served["self_s"].items()}
    setup_self = setup["self_s"]
    wall = statistics.fmean(traced.latencies_s)
    plain_wall = statistics.fmean(plain.latencies_s)
    cpu = traced.cpu_s / count
    attributed = sum(per_request.values())
    setup_attributed = sum(setup_self[key] for key in SETUP_KEYS)
    wave_calls = served["calls"]["ap.wave"]
    accepted = wave_calls - served["wave_declines"]
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed

    metrics: Dict[str, float] = {
        "core.compile_s": setup_self["core.compile"],
        "core.cse_s": setup_self["core.cse"],
        "core.schedule_s": setup_self["core.schedule"],
        "core.codegen_s": setup_self["core.codegen"],
        "core.slices": sum(layer.compiled_slices for layer in compiled.layers),
        "core.ops": compiled.total_ops,
        "core.unrolled_ops": compiled.total_unrolled_ops,
        "runtime.build_plan_s": setup_self["runtime.build_plan"],
        "runtime.aggregate_s": per_request["runtime.aggregate"],
        "runtime.map_layer_s": per_request["runtime.map_layer"],
        "arch.deploy_s": setup_self["arch.deploy"],
        "arch.cold_events": cold,
        "inference.engine_init_s": setup_self["inference.engine_init"],
        "inference.quantize_s": per_request["inference.quantize"],
        "inference.lower_s": per_request["inference.lower"],
        "ap.wave_lower_s": setup_self["ap.wave_lower"],
        "ap.wave_s": per_request["ap.wave"],
        "ap.wave_calls": wave_calls / count,
        "ap.wave_instances_mean": served["wave_instances"] / max(accepted, 1),
        "ap.wave_declines": served["wave_declines"] / count,
        "ap.wave_accept_ratio": accepted / max(wave_calls, 1),
        "session.request_wall_s": wall,
        "session.request_cpu_s": cpu,
        "session.unattributed_s": cpu - attributed,
        "session.unattributed_share": (cpu - attributed) / cpu,
        "session.setup_cpu_s": setup_cpu,
        "session.setup_unattributed_s": setup_cpu - setup_attributed,
        "session.trace_overhead_share": wall / plain_wall - 1.0,
        "session.failed_share": failed / attempted,
    }
    if traced_warm is not None:
        execution = traced_warm.execution
        stats = execution.total_stats
        images = traced_warm.images
        metrics.update(
            {
                "ap.cam_search_phases": stats.search_phases / images,
                "ap.cam_write_phases": stats.write_phases / images,
                "ap.cam_searched_bits": stats.searched_bits / images,
                "ap.cam_written_bits": stats.written_bits / images,
                "ap.track_shifts": stats.track_shifts / images,
                "ap.ns_per_search_phase": per_request["ap.wave"]
                * 1e9
                / max(stats.search_phases, 1),
                "perf.sim_latency_ms_per_image": execution.latency_ms / images,
                "perf.sim_energy_uj_per_image": execution.energy_uj / images,
            }
        )

    print(
        f"reconciliation: CPU per traced request {cpu:.4f} s "
        f"(wall {wall:.4f} s, {count} requests)"
    )
    _print_parts(per_request, cpu)
    print(f"reconciliation: CPU of the traced set-up {setup_cpu:.4f} s")
    _print_parts({key: setup_self[key] for key in SETUP_KEYS}, setup_cpu)
    print(
        f"trace overhead {metrics['session.trace_overhead_share']:+.2%} "
        f"(untraced {plain_wall:.4f} s per request); patches restored: {restored}"
    )
    print(f"failed_share {failed / attempted:.4f} ({failed}/{attempted} requests)")

    correct = (
        failed == 0
        and cold == 0
        and restored
        and traced_warm is not None
        and plain_digests == traced_digests
    )
    return correct, (plain, traced), metrics


def main(argv: List[str]) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"perfbench: {spec_path} is missing", file=sys.stderr)
        return 2
    for knob in _ENVIRONMENT_KNOBS:
        os.environ.pop(knob, None)
    if not _import_program():
        return 2
    from workloads import WORKLOADS, build_model, expected_logits, make_requests

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    model = build_model(workload)
    requests = make_requests(workload, args.seed)
    expected = expected_logits(model, workload, requests)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    if args.trace:
        correct, clients, metrics = run_traced(
            workload, model, requests, expected, args.seconds
        )
    else:
        correct, client, metrics = run_untraced(
            workload, model, requests, expected, args.seconds
        )
        clients = (client,)

    missing = [entry["name"] for entry in wanted if entry["name"] not in metrics]
    values = [float(metrics.get(entry["name"], math.nan)) for entry in wanted]
    if missing or not all(math.isfinite(value) for value in values):
        print(f"perfbench: missing or non-finite metrics {missing}", file=sys.stderr)
        correct = False
    result = {
        "correct": bool(correct),
        "attempted": sum(client.attempted for client in clients),
        "failed": sum(client.failed for client in clients),
        "metrics": {
            entry["name"]: {
                "value": value if math.isfinite(value) else 0.0,
                "unit": entry["unit"],
            }
            for entry, value in zip(wanted, values)
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
