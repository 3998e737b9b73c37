"""Session steady-state benchmark: deploy once must beat deploy-per-request.

The API redesign's quantitative claim: a *warm* :class:`repro.session.Session`
(compiled and weight-resident-deployed once, weights pinned in CAM) serving N
inference requests must beat N *cold* end-to-end runs (a fresh session per
request, which re-compiles, re-plans and re-deploys everything per call) by
a healthy wall-clock margin - and it must do so while the
residency ledger shows **zero** additional lease/reprogram events after
deploy.

The warm side measures serving only (the session is warm: its one-time
compile+deploy happened before traffic arrives; that cost is reported
separately and amortized in the JSON metrics).  Both paths execute the
identical dataflow - byte-identical logits per request - so the entire gap
is the re-deployment overhead the session eliminates.
"""

import time

import numpy as np
import pytest

from repro.eval.reporting import format_table
from repro.nn.models.resnet import build_resnet18
from repro.session import Session

#: Requests served by the gate (each request is one image batch).
REQUESTS = 8
#: Images per request.
IMAGES_PER_REQUEST = 1
#: ResNet-18 base width: the 20-layer topology (stem, 4 stages, shortcuts)
#: narrow enough for exact (every-slice) functional simulation at benchmark
#: speed - and compile-heavy relative to one narrow request, which is the
#: regime weight-resident serving exists for.
BASE_WIDTH = 4
INPUT_SHAPE = (3, 32, 32)

#: Minimum cold/warm wall-clock ratio accepted by the gate.
REQUIRED_SPEEDUP = 1.5


@pytest.fixture(scope="module")
def narrow_resnet18():
    return build_resnet18(num_classes=10, sparsity=0.8, rng=0, base_width=BASE_WIDTH)


@pytest.fixture(scope="module")
def request_batches(ap_seed):
    rng = np.random.default_rng(ap_seed)
    return [
        rng.uniform(0.0, 1.0, size=(IMAGES_PER_REQUEST,) + INPUT_SHAPE)
        for _ in range(REQUESTS)
    ]


def test_warm_session_beats_cold_runs(
    narrow_resnet18, request_batches, ap_backend, save_report
):
    """A warm session serving 8 requests vs. 8 from-scratch runs."""

    def new_session():
        return Session(
            model=narrow_resnet18,
            input_shape=INPUT_SHAPE,
            bits=4,
            backend=ap_backend,
            name="resnet18-narrow",
        )

    def cold_request(batch):
        with new_session() as cold:
            cold.compile().deploy()
            return cold.infer(batch)

    # Warm: one compile + one weight-resident deploy, then N infer() calls.
    setup_started = time.perf_counter()
    with new_session() as session:
        session.compile().deploy()
        setup_s = time.perf_counter() - setup_started
        deployed = session.residency
        serving_started = time.perf_counter()
        warm_results = [session.infer(batch) for batch in request_batches]
        warm_s = time.perf_counter() - serving_started
        after = session.residency
        report = session.report()

    # The steady-state contract: zero lease/reprogram events after deploy.
    assert after.lease_events == deployed.lease_events
    assert after.reprogram_events == deployed.reprogram_events

    # Cold: a fresh session (compile + deploy) per request.
    cold_started = time.perf_counter()
    cold_results = [cold_request(batch) for batch in request_batches]
    cold_s = time.perf_counter() - cold_started

    for warm, cold in zip(warm_results, cold_results):
        assert np.array_equal(warm.logits, cold.logits)

    speedup = cold_s / max(warm_s, 1e-9)
    inclusive_speedup = cold_s / max(warm_s + setup_s, 1e-9)
    text = format_table(
        ["path", "requests", "wall (s)", "requests/s", "speedup"],
        [
            [
                "cold (compile+deploy per request)",
                REQUESTS,
                f"{cold_s:.2f}",
                f"{REQUESTS / cold_s:.2f}",
                "1.00x",
            ],
            [
                "warm session (deployed once)",
                REQUESTS,
                f"{warm_s:.2f}",
                f"{REQUESTS / warm_s:.2f}",
                f"{speedup:.2f}x",
            ],
        ],
        title=(
            f"session steady state: resnet18 topology at base width "
            f"{BASE_WIDTH}, {REQUESTS} requests x {IMAGES_PER_REQUEST} "
            f"image(s), {ap_backend} backend (one-time session setup: "
            f"{setup_s:.2f} s, amortized in the JSON metrics)"
        ),
    )
    save_report(
        "session",
        text,
        data={
            "requests": REQUESTS,
            "setup_wall_s": setup_s,
            "warm_wall_s": warm_s,
            "cold_wall_s": cold_s,
            "speedup": speedup,
            "inclusive_speedup": inclusive_speedup,
            "required_speedup": REQUIRED_SPEEDUP,
            "deploy_energy_uj": report.cost.deploy_energy_uj,
            "per_request_energy_uj": report.cost.per_request_energy_uj,
            "amortized_energy_uj": report.cost.amortized_energy_uj(),
            "warm_dispatches": after.warm_hits,
            "cold_lease_events_after_deploy": after.lease_events
            - deployed.lease_events,
        },
    )

    assert speedup >= REQUIRED_SPEEDUP, (
        f"warm session serving is only {speedup:.2f}x faster than "
        f"{REQUESTS} cold end-to-end runs (required: {REQUIRED_SPEEDUP}x)"
    )


def test_session_amortization_report(narrow_resnet18, request_batches, save_report):
    """deploy_cost is paid once: amortized energy approaches per-request."""
    with Session(
        model=narrow_resnet18,
        input_shape=INPUT_SHAPE,
        bits=4,
        name="resnet18-narrow",
    ) as session:
        session.compile().deploy()
        for batch in request_batches[:2]:
            session.infer(batch)
        cost = session.report().cost
    assert cost.amortized_energy_uj(REQUESTS) < cost.amortized_energy_uj(1)
    save_report(
        "session_amortization",
        f"deploy {cost.deploy_energy_uj:.4f} uJ, per-request "
        f"{cost.per_request_energy_uj:.4f} uJ, amortized@{REQUESTS} "
        f"{cost.amortized_energy_uj(REQUESTS):.4f} uJ",
        data={
            "deploy_energy_uj": cost.deploy_energy_uj,
            "per_request_energy_uj": cost.per_request_energy_uj,
            "amortized_at_8_uj": cost.amortized_energy_uj(REQUESTS),
        },
    )
