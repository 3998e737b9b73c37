"""Demo: functional multi-AP simulation on the execution-plan runtime.

Compiles a small vgg9 slice sample, builds an execution plan (per-AP tile
programs addressed by (bank, tile, ap)), runs it on the serial and parallel
executors and shows that the aggregated CAMStats are byte-identical - the
runtime's determinism guarantee - along with the wall-clock comparison and
the layer-granularity crosscheck against the analytic cost model.

Run with:

    PYTHONPATH=src python examples/runtime_parallel.py [--workers N]
"""

import argparse
import os
import time

from repro import (
    Accelerator,
    CompilerConfig,
    build_execution_plan,
    compile_model,
    specs_for_network,
)
from repro.perf.model import crosscheck_execution


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="vgg9")
    parser.add_argument("--slices", type=int, default=2,
                        help="input-channel slices simulated per layer")
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--backend", default="reference",
                        help="AP backend (reference shows the largest "
                             "parallel gains; vectorized is fastest overall)")
    arguments = parser.parse_args()

    specs = specs_for_network(arguments.model, rng=0)
    compiled = compile_model(
        specs,
        CompilerConfig(activation_bits=4, max_slices_per_layer=arguments.slices),
        name=arguments.model,
        emit_programs=True,
    )
    accelerator = Accelerator(backend=arguments.backend)
    plan = build_execution_plan(compiled, accelerator=accelerator)
    print(accelerator.describe())
    print(plan.describe())
    print()

    started = time.perf_counter()
    serial = accelerator.execute_plan(plan, executor="serial")
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = accelerator.execute_plan(
        plan, executor="parallel", workers=arguments.workers
    )
    parallel_s = time.perf_counter() - started

    identical = (
        serial.total_stats == parallel.total_stats
        and serial.checksum == parallel.checksum
    )
    print(f"serial executor:   {serial_s:.2f} s")
    print(f"parallel executor: {parallel_s:.2f} s "
          f"({arguments.workers} workers, {serial_s / parallel_s:.2f}x)")
    print(f"byte-identical aggregated CAMStats + checksums: {identical}")
    print(f"functional energy:  {serial.energy_uj:.4f} uJ "
          f"(movement share {serial.movement_fraction * 100:.2f}%)")
    print(f"functional latency: {serial.latency_ms:.5f} ms")

    check = crosscheck_execution(plan, serial)
    print(f"cost-model crosscheck: {check.describe()}")


if __name__ == "__main__":
    main()
