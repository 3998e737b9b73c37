"""Demo: structured tracing and the unified metrics registry.

Runs overlapping client requests against one deployed session with tracing
on and shows the three observability surfaces of the telemetry subsystem:

1. **Spans** - every compile, deploy, request, layer dispatch and device
   tile execution is wrapped in a span carrying stable attributes (layer,
   image, ap, backend, executor, request_id).  The collected spans are
   written as a Chrome-trace JSON: load it at https://ui.perfetto.dev (or
   ``chrome://tracing``) to see each request's layers run one after
   another, each layer on its own AP-group track, while the requests
   overlap.
2. **Span summary** - the same events folded into a top-N table by total
   wall-clock, the quick look before the JSON ever leaves the machine.
3. **Metrics registry** - counters, gauges and wall-clock histograms
   (per-layer latency, per-request p50/p95/p99) mirroring the session's
   ledgers, rendered in the same flat schema as ``BENCH_*.json``.

Tracing is off by default and costs one module-global check per
instrumentation site; a traced run is byte-identical to an untraced one.

Run with:

    PYTHONPATH=src python examples/traced_inference.py [--trace out.json]
"""

import argparse

import numpy as np

from repro.eval.reporting import format_table
from repro.session import Session
from repro.telemetry import summarize_spans, validate_chrome_trace
import json


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="vgg9")
    parser.add_argument("--width", type=float, default=1 / 16,
                        help="channel-width multiplier (1.0 = paper topology)")
    parser.add_argument("--requests", type=int, default=2,
                        help="overlapped client requests")
    parser.add_argument("--images", type=int, default=2,
                        help="synthetic images per request")
    parser.add_argument("--bits", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--trace", default="traced_inference.json",
                        help="Chrome-trace output path")
    arguments = parser.parse_args()

    rng = np.random.default_rng(0)
    with Session(
        model=arguments.model,
        width=arguments.width,
        bits=arguments.bits,
        executor="thread",
        workers=arguments.workers,
        concurrency=max(2, arguments.requests),
        trace=arguments.trace,  # install tracer + write the file on close
        metrics=True,
    ) as session:
        session.compile().deploy()
        for request in range(arguments.requests):
            session.submit(
                rng.random(
                    (arguments.images,) + session.input_shape,
                    dtype=np.float32,
                )
            )
        session.gather()

        events = session.trace_events()
        print(session.describe())
        print()
        print(
            format_table(
                ["span", "count", "total (ms)", "mean (ms)", "max (ms)"],
                summarize_spans(events, top=10),
                title="top 10 spans by total wall-clock",
            )
        )
        print()
        flat = session.metrics_registry().flat()
        headline = [
            [name, value]
            for name, value in flat.items()
            if not name.startswith(("ap_group_busy", "layer_latency"))
        ]
        print(
            format_table(
                ["metric", "value"],
                headline,
                title="metrics registry (histogram detail elided)",
            )
        )

    # The file was flushed by Session.close(); prove it is schema-valid.
    payload = json.load(open(arguments.trace))
    problems = validate_chrome_trace(payload)
    assert not problems, problems
    print()
    print(
        f"trace: {len(events)} span events -> {arguments.trace} "
        f"(Chrome trace-event JSON, Perfetto-loadable)"
    )


if __name__ == "__main__":
    main()
