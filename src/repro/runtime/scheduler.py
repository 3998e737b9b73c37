"""The runtime scheduler: walks an execution plan layer by layer.

The :class:`Scheduler` dispatches each layer's tile programs to a pluggable
executor (:mod:`repro.runtime.executors`), reduces the per-tile
:class:`~repro.cam.stats.CAMStats` with order-independent reductions (integer
sums and per-round maxima), and charges interconnect traffic for the
inter-AP adder-tree merges through the accelerator's
:class:`~repro.arch.interconnect.InterconnectModel`.  The aggregated result,
:class:`PlanExecution`, is shaped like
:class:`~repro.perf.model.ModelPerformance` (same energy/latency/ops surface)
so the *functional* runtime numbers can be compared against the *analytic*
model at layer granularity (see
:func:`repro.perf.model.crosscheck_execution`).

Determinism guarantee
---------------------
Per-tile inputs derive from per-tile seeds, per-tile counters are exact
integers, and every reduction used here (integer sum, per-round maximum) is
order-independent - so ``serial`` and ``parallel`` execution of the same plan
produce byte-identical aggregated counters, as do the ``reference`` and
``batched`` backends (whose per-instruction equivalence is enforced by the
backend test suite).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.cam.stats import COUNTER_FIELDS, CAMStats
from repro.errors import ConfigurationError
from repro.perf.breakdown import EnergyBreakdown, LatencyBreakdown
from repro.runtime.executors import ExecutorSpec, resolve_executor
from repro.runtime.plan import ExecutionPlan, PlannedLayer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.arch.accelerator import Accelerator

#: Counters priced in time: search phases, write phases, shift steps.
_TIMED = [
    COUNTER_FIELDS.index(name)
    for name in ("search_phases", "write_phases", "lockstep_shift_steps")
]


@dataclass
class LayerRunResult:
    """Aggregated functional result of one layer of a plan."""

    name: str
    layer_index: int
    #: Exact, order-independent sum of the layer's tile counters.
    stats: CAMStats
    energy: EnergyBreakdown
    latency: LatencyBreakdown
    #: Add/sub instructions actually executed across the layer's tiles.
    total_ops: int
    #: Tiles executed / distinct APs occupied / sequential rounds.
    tiles_executed: int = 0
    aps_used: int = 0
    rounds: int = 1
    #: Order-independent checksum over every tile output (executor/backend
    #: equivalence witness).
    checksum: int = 0
    #: Statistics scale factor inherited from slice sampling (1.0 = exact).
    scale_factor: float = 1.0
    #: Host wall-clock spent executing the layer's tiles.
    wall_time_s: float = 0.0

    @property
    def energy_uj(self) -> float:
        """Layer energy in microjoules."""
        return self.energy.total_uj

    @property
    def latency_ms(self) -> float:
        """Layer latency in milliseconds."""
        return self.latency.total_ms


@dataclass
class PlanExecution:
    """Aggregated functional counters of a whole plan run.

    Mirrors the surface of :class:`~repro.perf.model.ModelPerformance`
    (``energy``, ``latency``, ``energy_uj``, ``latency_ms``, ``total_ops``,
    ``arrays_used``, ``movement_fraction``, ``layer_by_name``) so analytic
    and functional results can be tabulated side by side.
    """

    name: str
    executor: str
    backend: str
    workers: int
    layers: List[LayerRunResult] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def total_stats(self) -> CAMStats:
        """Element-wise sum of every layer's exact counters."""
        total = CAMStats()
        for layer in self.layers:
            total = total.merge(layer.stats)
        return total

    @property
    def energy(self) -> EnergyBreakdown:
        """Total energy breakdown."""
        total = EnergyBreakdown()
        for layer in self.layers:
            total = total.merge(layer.energy)
        return total

    @property
    def latency(self) -> LatencyBreakdown:
        """Total latency breakdown."""
        total = LatencyBreakdown()
        for layer in self.layers:
            total = total.merge(layer.latency)
        return total

    @property
    def energy_uj(self) -> float:
        """Functional energy of the run in microjoules."""
        return self.energy.total_uj

    @property
    def latency_ms(self) -> float:
        """Functional latency of the run in milliseconds."""
        return self.latency.total_ms

    @property
    def total_ops(self) -> int:
        """Add/sub instructions executed across the plan."""
        return sum(layer.total_ops for layer in self.layers)

    @property
    def arrays_used(self) -> int:
        """Peak number of distinct APs any layer occupied."""
        return max((layer.aps_used for layer in self.layers), default=0)

    @property
    def movement_fraction(self) -> float:
        """Fraction of functional energy spent moving data."""
        return self.energy.movement_fraction

    @property
    def checksum(self) -> int:
        """Order-independent checksum across every executed tile."""
        return sum(layer.checksum for layer in self.layers)

    def layer_by_name(self, name: str) -> LayerRunResult:
        """Look up a layer's functional result."""
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise ConfigurationError(f"no layer named {name!r} in plan execution")


def counter_rows(stats: Sequence[CAMStats]) -> np.ndarray:
    """``(len(stats), 8)`` int64 counters, one row per :class:`CAMStats` in
    field order (the layout :func:`aggregate_layer_run` takes)."""
    return np.array(
        [[getattr(counters, name) for name in COUNTER_FIELDS] for counters in stats],
        dtype=np.int64,
    ).reshape(len(stats), len(COUNTER_FIELDS))


def aggregate_layer_run(
    layer: PlannedLayer,
    counters: np.ndarray,
    accelerator: "Accelerator",
    movement,
    repeats: int = 1,
    checksum: int = 0,
    wall_time_s: float = 0.0,
) -> LayerRunResult:
    """Reduce executed tiles' counters into one :class:`LayerRunResult`.

    The single accounting epilogue shared by the synthetic-input
    :class:`Scheduler` and the real-activation inference engine
    (:mod:`repro.inference.engine`), so energy/latency formulas cannot drift
    between ``repro run`` and ``repro infer``.

    Args:
        layer: the planned layer the tiles belong to.
        counters: ``(streams, tiles, 8)`` int64 counters of every executed
            tile program, in :class:`CAMStats` field order (see
            :func:`counter_rows`), tiles in ``layer.tiles`` order.  A stream
            keys the latency overlap group: tiles of the same stream and
            round overlap.  The synthetic path uses a single stream, batched
            inference one stream per image.
        accelerator: ledgers owner; every tile's counters, summed over the
            streams, are charged to its ``(bank, tile)`` once.
        movement: :class:`~repro.arch.interconnect.TransferCost` already
            charged for the layer (adder-tree merges, activation hand-off).
        repeats: how many times the layer's static instruction stream ran
            (1 for the synthetic path, one per image for batched inference) -
            scales the controller/instruction-cache energy and the op count.
        checksum: order-independent output checksum across the tiles.
        wall_time_s: host wall-clock spent executing the tiles.
    """
    technology = accelerator.config.technology
    counters = np.asarray(counters, dtype=np.int64)
    streams, tiles = counters.shape[:2]
    per_tile = np.add.reduce(counters, axis=0)
    if streams:
        for tile, row in zip(layer.tiles, per_tile.tolist()):
            accelerator.record_tile_stats(tile.address, CAMStats(*row))
    stats = CAMStats(*np.add.reduce(per_tile, axis=0).tolist())

    # Per-layer latency: concurrent tiles of one (stream, round) overlap
    # (their maximum); sequential rounds and streams add up, summed in the
    # order a per-tile loop meets them - stream-major, rounds in order of
    # first appearance - so the float total is the same bit for bit.
    times = counters[..., _TIMED] * np.array(
        [
            technology.search_latency_ns,
            technology.write_latency_ns,
            technology.shift_latency_ns,
        ]
    )
    latency_ns = times[..., 0] + times[..., 1]
    np.maximum(latency_ns, times[..., 2], out=latency_ns)
    rounds = [tile.round_index for tile in layer.tiles]
    order = list(dict.fromkeys(rounds))
    maxima = np.empty((streams, len(order)))
    for column, round_index in enumerate(order):
        chosen = [tile for tile, r in enumerate(rounds) if r == round_index]
        maxima[:, column] = np.maximum.reduce(latency_ns[:, chosen], axis=1)
    dfg_ns = sum(maxima.ravel().tolist())

    # Controller / instruction-cache overhead per issued instruction.
    peripherals_fj = (
        layer.num_instructions
        * repeats
        * accelerator.config.instruction_cache_energy_fj
    )
    energy = EnergyBreakdown(
        dfg_fj=stats.energy_fj(technology),
        peripherals_fj=peripherals_fj,
        movement_fj=movement.energy_fj,
    )
    latency = LatencyBreakdown(dfg_ns=dfg_ns, movement_ns=movement.latency_ns)
    return LayerRunResult(
        name=layer.name,
        layer_index=layer.layer_index,
        stats=stats,
        energy=energy,
        latency=latency,
        total_ops=repeats * sum(tile.num_arithmetic_ops for tile in layer.tiles),
        tiles_executed=streams * tiles,
        aps_used=layer.aps_used,
        rounds=layer.num_rounds,
        checksum=checksum,
        scale_factor=layer.scale_factor,
        wall_time_s=wall_time_s,
    )


def charge_adder_tree_movement(accelerator, layer: PlannedLayer, repeats: int = 1):
    """Charge the partial-sum merges between a layer's channel groups.

    Every channel group beyond the first must ship its per-row partial sums
    (one accumulator per output channel) to the group-0 AP of the same row
    tile; the hierarchy level crossed determines the per-bit energy.  Groups
    that sequential rounds place on the *same* AP merge in place (the
    accumulator column is simply extended next round) and move nothing.
    Charged through the accelerator so the traffic shows up in its
    interconnect ledger.  ``repeats`` scales the traffic for batched
    execution (one merge pass per image; the transfer model is linear in
    bits).
    """
    from repro.arch.interconnect import ZERO_TRANSFER

    total = ZERO_TRANSFER
    tiles_by_row: Dict[int, List] = {}
    for tile in layer.tiles:
        tiles_by_row.setdefault(tile.row_tile, []).append(tile)
    for row_tiles in tiles_by_row.values():
        groups = sorted(row_tiles, key=lambda tile: tile.channel_group)
        first = groups[0]
        for tile in groups[1:]:
            if tile.address == first.address:
                continue
            bits = float(
                layer.out_channels * tile.rows * layer.accumulator_width * repeats
            )
            scope = accelerator.transfer_scope(tile.address, first.address)
            total = total.merge(accelerator.charge_movement(bits, scope))
    return total


class Scheduler:
    """Walks an :class:`~repro.runtime.plan.ExecutionPlan` layer by layer.

    Args:
        accelerator: AP provider and interconnect owner.  Tile counters and
            movement costs are charged back into it (per-tile aggregation).
        executor: executor name (``serial``/``parallel``), class or
            instance.
        workers: worker count for pool executors.
        backend: execution backend for the functional APs; defaults to the
            accelerator's backend.
    """

    def __init__(
        self,
        accelerator: "Accelerator",
        executor: ExecutorSpec = "serial",
        workers: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.accelerator = accelerator
        self.executor = resolve_executor(executor, workers=workers)
        self.backend = backend if backend is not None else accelerator.backend

    # ------------------------------------------------------------------
    def run(self, plan: ExecutionPlan) -> PlanExecution:
        """Execute every layer of ``plan`` and aggregate its counters."""
        started = time.perf_counter()
        execution = PlanExecution(
            name=plan.name,
            executor=self.executor.name,
            backend=str(self.backend),
            workers=getattr(self.executor, "workers", 1),
        )
        columns = plan.lease_columns
        for layer in plan.layers:
            execution.layers.append(self._run_layer(layer, columns))
        execution.wall_time_s = time.perf_counter() - started
        return execution

    # ------------------------------------------------------------------
    def _run_layer(self, layer: PlannedLayer, columns: int) -> LayerRunResult:
        technology = self.accelerator.config.technology
        for tile in layer.tiles:
            # Residency accounting happens at dispatch time (pool workers
            # build their APs in other processes): pinned tiles are warm,
            # everything else charges a lease + CAM reprogram.
            self.accelerator.account_tile_dispatch(tile)
        started = time.perf_counter()
        with telemetry.span(
            "scheduler.layer",
            layer=layer.name,
            tiles=len(layer.tiles),
            executor=self.executor.name,
            backend=str(self.backend),
        ):
            results = self.executor.run(
                layer.tiles,
                columns,
                backend=self.backend,
                technology=technology,
                accelerator=self.accelerator,
            )
        wall = time.perf_counter() - started

        movement = charge_adder_tree_movement(self.accelerator, layer)
        return aggregate_layer_run(
            layer,
            counter_rows([result.stats for result in results])[None],
            self.accelerator,
            movement,
            checksum=sum(result.checksum for result in results),
            wall_time_s=wall,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the executor's pooled workers (idempotent).

        Safe to call repeatedly and from ``finally`` blocks: the first call
        shuts the executor down, later calls are no-ops, so a failed run can
        never leak a worker pool.
        """
        if getattr(self, "_closed", False):
            return
        self._closed = True
        self.executor.close()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
