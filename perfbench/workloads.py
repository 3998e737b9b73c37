"""The benchmark's seeded workloads and the closed-loop client that serves them.

Every workload drives the public :class:`repro.session.Session` API with
4-bit unsigned activations, the ``batched`` backend and the ``serial``
executor.  Inputs are seeded ``uniform(0, 1)`` images; the expected logits
come from :func:`repro.inference.quantized_reference_forward` before any
session exists, and every served request is checked against them.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

import numpy as np

T = TypeVar("T")


@dataclass(frozen=True)
class Workload:
    """One seeded traffic mix served through a :class:`Session`."""

    name: str
    #: ``"vgg9"`` (width 1/16, 16x16 inputs) or ``"resnet18w8"`` (base width 8).
    model: str
    input_shape: Tuple[int, ...]
    images_per_request: int
    #: Serve through ``Session.submit(...).result()`` instead of ``infer``.
    submit: bool
    #: Set-ups timed per run (``setup_s`` is their median).
    setups: int
    #: Distinct request inputs drawn from the seed; the client cycles through them.
    pool: int


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("vgg9-wave96", "vgg9", (3, 16, 16), 96, False, setups=15, pool=2),
        Workload(
            "resnet18w8-single", "resnet18w8", (3, 32, 32), 1, False, setups=8, pool=3
        ),
        Workload("vgg9-submit4", "vgg9", (3, 16, 16), 4, True, setups=15, pool=4),
    )
}


def build_model(workload: Workload):
    """The workload's ternary network (fixed weights: ``rng=0``)."""
    if workload.model == "vgg9":
        from repro.nn.models.vgg import build_vgg9

        return build_vgg9(
            width_multiplier=1 / 16, input_size=16, sparsity=0.85, rng=0
        )
    from repro.nn.models.resnet import build_resnet18

    return build_resnet18(num_classes=10, base_width=8, sparsity=0.8, rng=0)


def make_requests(workload: Workload, seed: int) -> List[np.ndarray]:
    """The workload's request inputs; the same seed gives the same images."""
    rng = np.random.default_rng(seed)
    shape = (workload.images_per_request,) + workload.input_shape
    return [rng.uniform(0.0, 1.0, size=shape) for _ in range(workload.pool)]


def expected_logits(model, workload: Workload, requests) -> List[np.ndarray]:
    """Reference logits, computed before any session patches the model."""
    from repro.inference import quantized_reference_forward

    return [
        quantized_reference_forward(
            model, images, input_shape=workload.input_shape, bits=4, signed=False
        )
        for images in requests
    ]


class HostSpeed:
    """How fast the host ran during a run, from a fixed probe kernel.

    The bench host's speed drifts by up to 1.8x in states lasting from
    seconds to many minutes, for reasons outside the program.  A pure
    interpreter loop, independent of the program, is timed just before and
    just after a piece of timed work that runs alone (a set-up, or a
    request); the work's time is divided by the mean of the two probe times
    relative to :data:`NOMINAL_PROBE_S`, which gives that time at a nominal
    host speed.  On a shared 2-vCPU VM this cut the
    coefficient of variation of 30-second windows of 1-image ResNet request
    latency from 11% to 5%.
    """

    #: Probe time on the 2-vCPU bench host the bounds were set on.
    NOMINAL_PROBE_S = 0.008

    def __init__(self) -> None:
        self.samples: List[float] = []

    def probe(self) -> float:
        """Time the probe kernel once; returns its wall time."""
        start = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * 3 % 7
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def bracket(self, work: Callable[[], T]) -> Tuple[T, float]:
        """Run ``work()`` between two probes.

        Returns its result and the host's slowdown around it: the mean of
        the two probe times over nominal (above 1: the host ran slow).
        """
        before = self.probe()
        result = work()
        after = self.probe()
        return result, (before + after) / 2.0 / self.NOMINAL_PROBE_S

    def median_slowdown(self) -> float:
        """Median probe time over nominal, for the report."""
        return statistics.median(self.samples) / self.NOMINAL_PROBE_S


def set_up(model, workload: Workload):
    """``Session(...)`` -> ``compile()`` -> ``deploy()``.

    Returns the deployed session, the set-up's wall time and its process
    CPU time.
    """
    from repro.session import Session

    gc.collect()
    cpu_start = time.process_time()
    start = time.perf_counter()
    session = Session(
        model=model,
        input_shape=workload.input_shape,
        bits=4,
        signed=False,
        backend="batched",
        executor="serial",
        concurrency=1,
    )
    session.compile().deploy()
    return session, time.perf_counter() - start, time.process_time() - cpu_start


def cold_events(session) -> int:
    """Cold AP leases plus CAM reprograms charged so far."""
    ledger = session.residency
    return ledger.lease_events + ledger.reprogram_events


def sim_digest(execution) -> str:
    """Exact fingerprint of a request's simulated results.

    Hashes the total :class:`~repro.cam.stats.CAMStats`, the output checksum
    and the simulated latency and energy (as exact float hex), so two
    commits that simulate the same thing print the same digest.
    """
    record = {
        "cam": dataclasses.asdict(execution.total_stats),
        "checksum": int(execution.checksum),
        "latency_ms": float(execution.latency_ms).hex(),
        "energy_uj": float(execution.energy_uj).hex(),
    }
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def logits_digest(logits: np.ndarray) -> str:
    """Fingerprint of a logits array (dtype, shape and bytes)."""
    array = np.ascontiguousarray(logits)
    header = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(header + array.tobytes()).hexdigest()[:16]


class Client:
    """One closed-loop client of a deployed session, with the output check.

    The client sends its next request when the last one replies, so one
    request is in flight at a time.  A request fails if it raises, returns
    logits that differ from the reference, or if a cold AP lease or CAM
    reprogram is charged while it runs.  Every request counts towards
    ``attempted``; only the measured ones (after :meth:`warm_up`) are timed.
    """

    def __init__(
        self,
        session,
        workload: Workload,
        requests: List[np.ndarray],
        expected: List[np.ndarray],
        host: Optional[HostSpeed] = None,
    ) -> None:
        self.session = session
        #: Probes bracketing each measured request, if given.
        self.host = host
        self.workload = workload
        self.requests = requests
        self.expected = expected
        self._call: Callable = (
            (lambda images: session.submit(images).result())
            if workload.submit
            else session.infer
        )
        self.attempted = 0
        self.failed = 0
        #: Latency of every measured request, seconds.
        self.latencies_s: List[float] = []
        #: The same latencies at nominal host speed (as measured without
        #: ``host``).
        self.nominal_latencies_s: List[float] = []
        #: Images of the measured requests that succeeded.
        self.images = 0
        #: Process CPU time from the first measured send to the last reply.
        self.cpu_s = 0.0

    @property
    def wall_s(self) -> float:
        """Wall time of the measured requests: the sum of their latencies."""
        return sum(self.latencies_s)

    @property
    def nominal_wall_s(self) -> float:
        """``wall_s`` at nominal host speed."""
        return sum(self.nominal_latencies_s)

    def release(self) -> None:
        """Drop the client's references to its session, so it can be freed."""
        self.session = None
        self._call = None

    def request(self, index: int):
        """Send request ``index`` (pool entry ``index % pool``) and check it."""
        slot = index % len(self.requests)
        cold_before = cold_events(self.session)
        start = time.perf_counter()
        try:
            result = self._call(self.requests[slot])
        except Exception as error:  # a failed request is counted, not fatal
            print(f"request {index} raised {error!r}", file=sys.stderr)
            result = None
        latency = time.perf_counter() - start
        ok = (
            result is not None
            and np.array_equal(result.logits, self.expected[slot])
            and cold_events(self.session) == cold_before
        )
        self.attempted += 1
        self.failed += 0 if ok else 1
        return latency, ok, result

    def warm_up(self):
        """One untimed request of pool entry 0; returns its result."""
        return self.request(0)[2]

    def measure(self, seconds: float) -> None:
        """Send requests for ``seconds``, at least one."""
        cpu_start = time.process_time()
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            if self.host is None:
                (latency, ok, _), slowdown = self.request(index), 1.0
            else:
                (latency, ok, _), slowdown = self.host.bracket(
                    lambda: self.request(index)
                )
            self.latencies_s.append(latency)
            self.nominal_latencies_s.append(latency / slowdown)
            self.images += self.workload.images_per_request if ok else 0
            index += 1
            if time.perf_counter() >= deadline:
                break
        self.cpu_s = time.process_time() - cpu_start
