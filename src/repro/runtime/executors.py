"""Pluggable executors: run tile programs serially or on worker pools.

An executor maps a worker function over payloads - one per tile program, or
per ``(image, tile)`` instance of an inference layer - and returns the
results **in payload order**.  Three executors ship with the runtime:

* ``serial`` - one payload after another in the calling process.  When handed
  an :class:`~repro.arch.accelerator.Accelerator` lease it reuses pooled
  functional APs (reset between leases), which keeps large plans
  allocation-free.
* ``parallel`` - a process pool (``workers`` processes); immune to the GIL,
  intended for the Python-heavy ``reference`` backend and for many-tile
  plans.
* ``thread`` - a thread pool; lighter start-up, useful when the ``vectorized``
  backend spends its time in NumPy kernels that release the GIL.

Every executor dispatches through one surface, the order-preserving
``map_tasks``: behind :meth:`Executor.map_layer`, the one per-layer call of
the inference engine's per-instance work, and behind the synthetic
:class:`~repro.runtime.scheduler.Scheduler`.  The inference engine's layer
waves (``batched`` backend) run in the calling thread and never reach an
executor.

Determinism: a tile's result depends only on the tile itself (its programs
and inputs) and the backend contract guarantees byte-identical
:class:`~repro.cam.stats.CAMStats` across backends, so every executor -
whatever its scheduling order - produces the same per-tile results and the
same order-independent reductions.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Type, Union

import numpy as np

from repro import telemetry
from repro.ap.backends import DEFAULT_BACKEND
from repro.cam.stats import CAMStats
from repro.errors import ConfigurationError
from repro.rtm.timing import RTMTechnology
from repro.runtime.plan import TileProgram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.arch.accelerator import Accelerator


@dataclass(frozen=True)
class TileResult:
    """Outcome of executing one tile program on one AP.

    ``checksum`` folds every output vector of every slice program into one
    integer; it is exact (Python integers), order-independent under summation
    and byte-identical across backends, so executor and backend equivalence
    can be asserted on aggregated results alone.
    """

    tile_index: int
    layer_index: int
    address: tuple
    stats: CAMStats
    checksum: int
    duration_s: float


def generate_tile_inputs(
    program, rows: int, seed: int, activation_bits: int, signed: bool
) -> Dict[str, np.ndarray]:
    """Deterministic input activations for one slice program of a tile."""
    rng = np.random.default_rng(seed)
    if signed:
        low, high = -(1 << (activation_bits - 1)), (1 << (activation_bits - 1))
    else:
        low, high = 0, 1 << activation_bits
    return {
        name: rng.integers(low, high, size=rows)
        for name in program.input_columns
    }


def run_tile_program(
    tile: TileProgram,
    tile_index: int,
    columns: int,
    backend: str,
    technology: Optional[RTMTechnology] = None,
    ap=None,
) -> TileResult:
    """Execute one tile program and snapshot its counters.

    All slice programs of the tile run back to back on one AP (the pooled
    hardware AP holds every input channel of its group), so the tile's
    counters include any cross-slice column reuse exactly as the hardware
    would see it.  When ``ap`` is omitted a fresh functional AP is created -
    a leased pooled AP (already reset) produces byte-identical results.
    """
    from repro.ap.core import AssociativeProcessor

    start = time.perf_counter()
    with telemetry.span(
        "device.tile",
        category="device",
        layer=tile.layer_index,
        tile=tile_index,
        ap=str(tuple(tile.address)),
        backend=backend,
    ):
        if ap is None:
            ap = AssociativeProcessor(
                rows=tile.rows,
                columns=columns,
                technology=technology,
                backend=backend,
            )
        checksum = 0
        for offset, program in enumerate(tile.programs):
            inputs = generate_tile_inputs(
                program,
                tile.rows,
                tile.input_seed + offset,
                tile.activation_bits,
                tile.signed_activations,
            )
            outputs = ap.run_program(program, inputs, num_rows=tile.rows)
            for name in sorted(outputs):
                checksum += int(np.asarray(outputs[name], dtype=np.int64).sum())
    return TileResult(
        tile_index=tile_index,
        layer_index=tile.layer_index,
        address=tuple(tile.address),
        stats=ap.reset_stats(),
        checksum=checksum,
        duration_s=time.perf_counter() - start,
    )


def _pool_worker(payload, ap=None) -> TileResult:
    """Module-level worker so process pools can pickle the call."""
    tile, tile_index, columns, backend, technology = payload
    return run_tile_program(tile, tile_index, columns, backend, technology, ap=ap)


def _traced_task(item):
    """Run one (fn, payload) task under a local span capture and ship both.

    The process-pool shipping protocol: the child cannot record into the
    parent's tracer (under ``fork`` it inherits a dead copy), so the spans
    its task opens are captured locally and returned alongside the result;
    the parent unwraps the pair and absorbs the batch.  Timestamps need no
    re-basing - ``perf_counter`` is the shared monotonic clock on Linux.
    """
    fn, payload = item
    with telemetry.capture() as tracer:
        result = fn(payload)
    return result, tuple(tracer.drain())


def mp_context():
    """The multiprocessing context the runtime spawns worker processes with.

    Prefers ``fork`` where the platform offers it: forked workers inherit
    the parent's compiled programs and model weights without pickling them,
    which is what keeps per-worker start-up cheap for both the
    :class:`ParallelExecutor` pool and the cluster serving replicas
    (:mod:`repro.serving`).  Falls back to the platform default context
    (``spawn`` on macOS/Windows), where every argument must be picklable.
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


#: A callable mapping one payload to a pre-leased AP (serial execution only;
#: pool workers always build their own AP - the lease contract guarantees the
#: two are byte-identical).
LeaseFn = Callable[[object], object]


def make_lease(accelerator: "Accelerator", columns: int, backend) -> LeaseFn:
    """Build the payload -> leased-AP mapping of the serial execution path.

    The single place the lease geometry is decided: the pooled AP is sized
    exactly like the fresh AP a pool worker would build for the same payload
    (``tile.rows`` x ``columns`` on ``backend``), which is what keeps serial
    leased execution byte-identical to pool-worker execution.  Payloads must
    carry their :class:`~repro.runtime.plan.TileProgram` first - the
    convention of both the synthetic tile path and the inference dataflow.
    """

    def lease(payload):
        tile = payload[0]
        return accelerator.lease_ap(
            tile.address, rows=tile.rows, columns=columns, backend=backend
        )

    return lease


class Executor:
    """Base class of the tile-program executors.

    Subclasses implement :meth:`map_tasks` - a generic order-preserving map of
    a picklable worker function over payloads.  The synthetic-input tile path
    (:meth:`run`) and the inference dataflow
    (:mod:`repro.inference.engine`, which ships *real* activations in its
    payloads) both dispatch through it, so every executor serves both
    workloads with one scheduling policy.
    """

    #: Registry name (e.g. ``"serial"``).
    name = "abstract"
    workers = 1
    #: Whether workers run in other processes and must ship span batches
    #: back with results (see ``_traced_task``).  In-process executors record
    #: straight into the installed tracer.
    ships_spans = False

    def map_tasks(
        self, fn: Callable, payloads: Sequence, lease: Optional[LeaseFn] = None
    ) -> List:
        """Apply ``fn`` to every payload, returning results in payload order.

        ``lease`` (optional) maps a payload to a pre-leased functional AP; it
        is honoured only by in-process execution - pool workers build fresh
        APs in their own process, which the lease contract guarantees to be
        indistinguishable.
        """
        raise NotImplementedError

    def map_layer(
        self, fn: Callable, payloads: Sequence, lease: Optional[LeaseFn] = None
    ) -> List:
        """Dispatch one layer's per-instance payloads (traced :meth:`map_tasks`).

        The single executor entry of the inference engine: every instance of
        a layer that no wave takes arrives here in one order-preserving call.
        """
        with telemetry.span(
            "executor.map_layer", executor=self.name, tasks=len(payloads)
        ):
            return self.map_tasks(fn, payloads, lease=lease)

    def submit_tasks(
        self, fn: Callable, payloads: Sequence, lease: Optional[LeaseFn] = None
    ) -> List[Future]:
        """Apply ``fn`` to payloads in the calling thread; settled futures.

        Every executor runs the tasks one after another and returns one
        already-settled future per payload (an exception is stored on its
        future).  Nothing in the runtime calls this.  It stays only because
        the repo benchmark's tracer (``perfbench/tracing.py``) patches it by
        name and resolves every ``PATCHES`` entry with ``vars(owner)[name]``,
        so deleting it would break the traced benchmark run.  Delete it
        together with that ``PATCHES`` entry.

        ``lease`` maps a payload to a pre-leased AP, exactly like
        :meth:`map_tasks`.
        """
        telemetry.instant(
            "executor.submit_tasks", executor=self.name, tasks=len(payloads)
        )
        futures: List[Future] = []
        for payload in payloads:
            future: Future = Future()
            try:
                result = fn(payload) if lease is None else fn(payload, lease(payload))
            except BaseException as error:  # noqa: BLE001 - stored on future
                future.set_exception(error)
            else:
                future.set_result(result)
            futures.append(future)
        return futures

    def run(
        self,
        tiles: Sequence[TileProgram],
        columns: int,
        backend: str = DEFAULT_BACKEND,
        technology: Optional[RTMTechnology] = None,
        accelerator: Optional["Accelerator"] = None,
    ) -> List[TileResult]:
        """Execute ``tiles`` (synthetic seeded inputs) in tile order."""
        payloads = [
            (tile, index, columns, backend, technology)
            for index, tile in enumerate(tiles)
        ]
        lease: Optional[LeaseFn] = None
        if accelerator is not None:
            lease = make_lease(accelerator, columns, backend)
        return self.map_tasks(_pool_worker, payloads, lease=lease)

    def close(self) -> None:
        """Release pooled workers (no-op for poolless executors)."""


class SerialExecutor(Executor):
    """Runs every tile in the calling process, one after another."""

    name = "serial"

    def __init__(self, workers: Optional[int] = None) -> None:
        # ``workers`` is accepted (and ignored) so executors are
        # constructor-compatible; the serial executor always uses one.
        self.workers = 1

    def map_tasks(
        self, fn: Callable, payloads: Sequence, lease: Optional[LeaseFn] = None
    ) -> List:
        if lease is None:
            return [fn(payload) for payload in payloads]
        return [fn(payload, lease(payload)) for payload in payloads]


class ParallelExecutor(Executor):
    """Fans tiles out over a process pool (order-preserving ``map``)."""

    name = "parallel"
    ships_spans = True

    def __init__(self, workers: Optional[int] = None) -> None:
        import os

        self.workers = max(1, workers if workers is not None else (os.cpu_count() or 1))
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=mp_context()
            )
        return self._pool

    def map_tasks(
        self, fn: Callable, payloads: Sequence, lease: Optional[LeaseFn] = None
    ) -> List:
        payloads = list(payloads)
        if self.workers <= 1 or len(payloads) <= 1:
            return SerialExecutor().map_tasks(fn, payloads, lease=lease)
        pool = self._ensure_pool()
        chunksize = max(1, len(payloads) // (self.workers * 4))
        tracer = telemetry.get_tracer()
        if tracer is not None and self.ships_spans:
            shipped = list(
                pool.map(
                    _traced_task,
                    [(fn, payload) for payload in payloads],
                    chunksize=chunksize,
                )
            )
            results = []
            for result, events in shipped:
                tracer.absorb(events)
                results.append(result)
            return results
        return list(pool.map(fn, payloads, chunksize=chunksize))

    def close(self) -> None:
        # Idempotent: shutdown() waits for running tasks, then the pool is
        # dropped so a second call is a no-op.
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


class ThreadExecutor(ParallelExecutor):
    """Fans tiles out over a thread pool (shares the process heap).

    Worker threads record spans straight into the installed tracer (their
    distinct tids become per-worker tracks in the Chrome export), so no
    shipping protocol is needed.
    """

    name = "thread"
    ships_spans = False

    def _ensure_pool(self) -> ThreadPoolExecutor:  # type: ignore[override]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)  # type: ignore[assignment]
        return self._pool  # type: ignore[return-value]


#: Specification accepted wherever an executor can be selected.
ExecutorSpec = Union[str, Executor, Type[Executor]]

_EXECUTORS: Dict[str, Type[Executor]] = {
    SerialExecutor.name: SerialExecutor,
    ParallelExecutor.name: ParallelExecutor,
    ThreadExecutor.name: ThreadExecutor,
}


def available_executors() -> List[str]:
    """Names of all registered executors, sorted."""
    return sorted(_EXECUTORS)


def resolve_executor(spec: ExecutorSpec, workers: Optional[int] = None) -> Executor:
    """Resolve an executor specification (name, class or instance).

    ``workers`` sizes the executor constructed from a name or class; an
    already-constructed instance carries its own worker count, so combining
    the two is rejected rather than silently ignoring one of them.
    """
    if isinstance(spec, Executor):
        if workers is not None and workers != spec.workers:
            raise ConfigurationError(
                f"workers={workers} conflicts with the provided executor "
                f"instance ({spec.name}, workers={spec.workers}); construct "
                f"the instance with the desired worker count instead"
            )
        return spec
    if isinstance(spec, str):
        try:
            return _EXECUTORS[spec](workers=workers)
        except KeyError:
            raise ConfigurationError(
                f"unknown executor {spec!r}; "
                f"available: {', '.join(available_executors())}"
            ) from None
    if isinstance(spec, type) and issubclass(spec, Executor):
        return spec(workers=workers)
    raise ConfigurationError(
        f"executor must be a name, class or instance, got {spec!r}"
    )
