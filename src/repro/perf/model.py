"""Analytical energy/latency model of the RTM-AP (paper Sec. V).

The model consumes the *compiled* network (exact static operation counts and
bit widths per layer), the layer mapping (rows, row tiles, channel groups) and
the architecture/technology figures of merit, and produces per-layer and
end-to-end energy and latency with the Fig. 4 component breakdown.

Modelling summary (see DESIGN.md for the full rationale):

* Each static AP instruction is costed with :func:`repro.ap.cost.instruction_cost`
  using the number of *active rows* of the layer (output positions); the same
  static instruction runs on every row tile in parallel, so its energy scales
  with the total active rows while latency counts it once.
* The channel-wise DFG and local accumulation work of one layer is spread over
  the layer's channel groups; groups run on different APs in parallel (subject
  to the allocation), so per-layer latency divides by the number of parallel
  groups and multiplies by the sequential rounds.
* The adder-tree accumulation between channel groups adds ``Cout*(groups-1)``
  operations and moves one partial sum per output value per merge across the
  interconnect at the paper's 1 pJ/bit.
* Peripherals cover the per-instruction controller/instruction-cache energy
  and the tile-buffer traffic of im2col staging and OFM hand-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.ap.backends import DEFAULT_BACKEND as DEFAULT_EXECUTION_BACKEND
from repro.ap.cost import (
    DEFAULT_MATCH_PROBABILITY,
    InstructionCost,
    instruction_cost,
    program_cost,
)
from repro.ap.isa import APInstruction, APOpcode, ColumnRegion
from repro.arch.allocator import (
    AllocationPlan,
    LayerAllocation,
    LayerDemand,
    allocate_model,
)
from repro.arch.config import ArchitectureConfig
from repro.arch.interconnect import InterconnectModel, TransferScope
from repro.core.compiler import CompiledLayer, CompiledModel
from repro.errors import ConfigurationError
from repro.perf.breakdown import EnergyBreakdown, LatencyBreakdown


@dataclass(frozen=True)
class PerformanceModelConfig:
    """Knobs of the analytical model."""

    #: Expected fraction of rows matching one search pattern (write energy).
    match_probability: float = DEFAULT_MATCH_PROBABILITY
    #: Charge the initial input-image load to the first layer's movement.
    include_input_load: bool = True
    #: Charge tile-buffer traffic for im2col staging and OFM hand-off.
    include_buffer_traffic: bool = True
    #: Explicit AP budget; ``None`` sizes the accelerator for full parallelism.
    available_aps: Optional[int] = None
    #: Let row-starved layers spread their output channels over idle APs
    #: (divides their latency without adding partial-sum movement).
    output_channel_parallelism: bool = True
    #: Images processed per layer pass.  Batching fills the otherwise idle CAM
    #: rows of the deep layers (the paper's Sec. V-B suggestion "processing
    #: multiple images per layer"); reported energy/latency stay per-batch,
    #: use ``ModelPerformance.latency_per_image_ms`` for per-image figures.
    batch_size: int = 1
    #: Execution backend used whenever the analytical expectations are
    #: cross-checked against functional simulation (see
    #: :func:`crosscheck_cost_model`).  The analytic numbers themselves are
    #: backend-independent - every backend emits identical event counts.
    execution_backend: str = DEFAULT_EXECUTION_BACKEND


def _arith_cost(
    width: int, rows: int, inplace: bool, match_probability: float
) -> InstructionCost:
    """Cost of one representative add/sub instruction of the given width."""
    if inplace:
        dest = ColumnRegion(column=2, width=width)
        instruction = APInstruction(
            opcode=APOpcode.ADD_INPLACE,
            dest=dest,
            src_a=ColumnRegion(column=1, width=width),
            src_b=dest,
        )
    else:
        instruction = APInstruction(
            opcode=APOpcode.ADD_OUTOFPLACE,
            dest=ColumnRegion(column=3, width=width),
            src_a=ColumnRegion(column=1, width=width),
            src_b=ColumnRegion(column=2, width=width),
        )
    return instruction_cost(instruction, rows=rows, match_probability=match_probability)


@dataclass
class LayerPerformance:
    """Energy/latency result for one layer."""

    name: str
    energy: EnergyBreakdown
    latency: LatencyBreakdown
    allocation: LayerAllocation
    #: Static add/sub instructions (DFG + local accumulation + adder tree).
    total_ops: int
    #: Active rows (output positions) of the layer.
    active_rows: int
    #: APs occupied while the layer runs.
    aps_used: int

    @property
    def energy_uj(self) -> float:
        """Layer energy in microjoules."""
        return self.energy.total_uj

    @property
    def latency_ms(self) -> float:
        """Layer latency in milliseconds."""
        return self.latency.total_ms


@dataclass
class ModelPerformance:
    """End-to-end result for a whole network (one batch of ``batch_size`` images)."""

    name: str
    configuration: str
    activation_bits: int
    layers: List[LayerPerformance]
    allocation: AllocationPlan
    batch_size: int = 1

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
        """Energy per inference in microjoules (Table II)."""
        return self.energy.total_uj

    @property
    def latency_ms(self) -> float:
        """Latency per inference in milliseconds (Table II)."""
        return self.latency.total_ms

    @property
    def total_ops(self) -> int:
        """Static add/sub instructions per inference."""
        return sum(layer.total_ops for layer in self.layers)

    @property
    def arrays_used(self) -> int:
        """Peak number of CAM arrays used by any layer."""
        return max((layer.aps_used for layer in self.layers), default=0)

    @property
    def movement_fraction(self) -> float:
        """Fraction of total energy spent moving data (paper: ~3 %)."""
        return self.energy.movement_fraction

    @property
    def energy_per_image_uj(self) -> float:
        """Energy per image (equals :attr:`energy_uj` for batch size 1)."""
        return self.energy_uj / self.batch_size

    @property
    def latency_per_image_ms(self) -> float:
        """Amortized latency per image of a batched run."""
        return self.latency_ms / self.batch_size

    @property
    def energy_delay_product(self) -> float:
        """Energy-delay product in uJ*ms (used for energy-efficiency ratios)."""
        return self.energy_per_image_uj * self.latency_per_image_ms

    def layer_by_name(self, name: str) -> LayerPerformance:
        """Look up a layer's performance record."""
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise ConfigurationError(f"no layer named {name!r} in performance result")


def evaluate_layer(
    layer: CompiledLayer,
    allocation: LayerAllocation,
    architecture: ArchitectureConfig,
    interconnect: Optional[InterconnectModel] = None,
    config: Optional[PerformanceModelConfig] = None,
    is_first_layer: bool = False,
) -> LayerPerformance:
    """Evaluate one compiled layer under a given allocation."""
    config = config or PerformanceModelConfig()
    interconnect = interconnect or InterconnectModel.from_architecture(architecture)
    technology = architecture.technology
    mapping = layer.mapping
    # Active rows: one per output position and per image in the batch - the
    # same static instruction stream serves them all (SIMD), so energy scales
    # with the batch while the instruction count (latency) does not.
    rows = mapping.output_positions * max(1, config.batch_size)
    parallel_groups = allocation.parallel_channel_groups
    rounds = allocation.sequential_rounds
    compute_parallelism = allocation.compute_parallelism

    total_dfg_ops = layer.dfg_ops
    inplace_fraction = (
        layer.inplace_ops / max(1, layer.inplace_ops + layer.outofplace_ops)
    )

    # ------------------------------------------------------------------
    # Channel-wise DFG phase.
    # ------------------------------------------------------------------
    dfg_energy_fj = 0.0
    dfg_latency_ns = 0.0
    for width, count in sorted(layer.dfg_width_histogram.items()):
        inplace_cost = _arith_cost(width, rows, True, config.match_probability)
        outofplace_cost = _arith_cost(width, rows, False, config.match_probability)
        energy_per_op = (
            inplace_fraction * inplace_cost.energy_fj(technology)
            + (1.0 - inplace_fraction) * outofplace_cost.energy_fj(technology)
        )
        latency_per_op = (
            inplace_fraction * inplace_cost.latency_ns(technology)
            + (1.0 - inplace_fraction) * outofplace_cost.latency_ns(technology)
        )
        dfg_energy_fj += count * energy_per_op
        dfg_latency_ns += count * latency_per_op
    # Latency: the per-layer op stream is spread over the parallel channel
    # groups and output tiles, and repeated for the sequential rounds.
    dfg_latency_ns = dfg_latency_ns / max(1, compute_parallelism) * rounds

    # ------------------------------------------------------------------
    # Accumulation phase: local accumulation plus the inter-AP adder tree.
    # ------------------------------------------------------------------
    accumulator_width = mapping.accumulator_width
    local_cost = _arith_cost(accumulator_width, rows, True, config.match_probability)
    accumulation_energy_fj = layer.accumulation_ops * local_cost.energy_fj(technology)
    accumulation_latency_ns = (
        layer.accumulation_ops
        * local_cost.latency_ns(technology)
        / max(1, compute_parallelism)
        * rounds
    )

    tree_merges = max(0, parallel_groups - 1)
    tree_ops = mapping.out_channels * tree_merges
    tree_levels = math.ceil(math.log2(parallel_groups)) if parallel_groups > 1 else 0
    movement_bits = 0.0
    if tree_merges:
        tree_cost = _arith_cost(accumulator_width, rows, False, config.match_probability)
        accumulation_energy_fj += tree_ops * tree_cost.energy_fj(technology)
        accumulation_latency_ns += (
            tree_levels * mapping.out_channels * tree_cost.latency_ns(technology)
        )
        movement_bits += float(tree_merges * mapping.out_channels) * rows * accumulator_width

    # ------------------------------------------------------------------
    # Data movement.
    # ------------------------------------------------------------------
    movement = interconnect.transfer(movement_bits, TransferScope.INTRA_TILE)
    movement_energy_fj = movement.energy_fj
    movement_latency_ns = movement.latency_ns
    if config.include_input_load and is_first_layer:
        # Raw input image(s) entering the accelerator once; the im2col
        # expansion happens locally and is charged as buffer traffic below.
        input_bits = (
            mapping.in_channels
            * mapping.input_positions
            * mapping.activation_bits
            * max(1, config.batch_size)
        )
        load = interconnect.transfer(float(input_bits), TransferScope.GLOBAL)
        movement_energy_fj += load.energy_fj
        movement_latency_ns += load.latency_ns

    # ------------------------------------------------------------------
    # Peripherals: controller/instruction cache and tile-buffer traffic.
    # ------------------------------------------------------------------
    static_ops = layer.total_ops + tree_ops
    peripherals_fj = (
        static_ops * architecture.instruction_cache_energy_fj * mapping.row_tiles
    )
    if config.include_buffer_traffic:
        # im2col staging: every AP that computes output channels of this layer
        # holds a copy of its input patches, so output-channel parallelism
        # replicates the staging traffic.
        im2col_bits = (
            mapping.in_channels
            * rows
            * mapping.patch_columns
            * mapping.activation_bits
            * allocation.parallel_output_tiles
        )
        ofm_bits = mapping.out_channels * rows * mapping.activation_bits
        peripherals_fj += (im2col_bits + ofm_bits) * architecture.buffer_energy_fj_per_bit

    energy = EnergyBreakdown(
        dfg_fj=dfg_energy_fj,
        accumulation_fj=accumulation_energy_fj,
        peripherals_fj=peripherals_fj,
        movement_fj=movement_energy_fj,
    )
    latency = LatencyBreakdown(
        dfg_ns=dfg_latency_ns,
        accumulation_ns=accumulation_latency_ns,
        movement_ns=movement_latency_ns,
    )
    return LayerPerformance(
        name=layer.name,
        energy=energy,
        latency=latency,
        allocation=allocation,
        total_ops=static_ops,
        active_rows=rows,
        aps_used=allocation.aps_used,
    )


def evaluate_model(
    compiled: CompiledModel,
    architecture: Optional[ArchitectureConfig] = None,
    config: Optional[PerformanceModelConfig] = None,
    interconnect: Optional[InterconnectModel] = None,
) -> ModelPerformance:
    """Evaluate a compiled network end to end."""
    config = config or PerformanceModelConfig()
    if config.batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {config.batch_size}")
    architecture = architecture or compiled.config.effective_architecture
    interconnect = interconnect or InterconnectModel.from_architecture(architecture)

    demands = []
    for layer in compiled.layers:
        demand = layer.mapping.demand()
        if config.batch_size > 1:
            batched_rows = layer.mapping.output_positions * config.batch_size
            demand = LayerDemand(
                name=demand.name,
                row_tiles=-(-batched_rows // layer.mapping.rows_per_ap),
                channel_groups=demand.channel_groups,
                max_output_tiles=demand.max_output_tiles,
            )
        demands.append(demand)
    available = config.available_aps
    if available is None:
        available = max(
            (demand.aps_for_full_parallelism for demand in demands), default=1
        )
    allocation_plan = allocate_model(
        demands,
        available_aps=available,
        use_idle_aps_for_output_parallelism=config.output_channel_parallelism,
        max_output_tiles=architecture.aps_per_tile,
    )
    allocations = allocation_plan.by_name()

    layers: List[LayerPerformance] = []
    for index, layer in enumerate(compiled.layers):
        layers.append(
            evaluate_layer(
                layer,
                allocations[layer.mapping.layer_name],
                architecture,
                interconnect=interconnect,
                config=config,
                is_first_layer=(index == 0),
            )
        )
    return ModelPerformance(
        name=compiled.name,
        configuration=compiled.config.configuration_name,
        activation_bits=compiled.config.activation_bits,
        layers=layers,
        allocation=allocation_plan,
        batch_size=config.batch_size,
    )


# ----------------------------------------------------------------------
# Functional cross-check of the analytical cost model
# ----------------------------------------------------------------------
@dataclass
class CostModelCrosscheck:
    """Exact functional event counts vs. the analytic expectation.

    Search phases are data-independent, so ``search_phases_exact`` must hold
    for any correct backend; write phases depend on which LUT passes fire and
    are bounded above by the analytic count (which assumes no pass is ever
    skipped).
    """

    backend: str
    width: int
    rows: int
    measured_search_phases: int
    measured_write_phases: int
    predicted_search_phases: int
    predicted_write_phases: int
    measured_energy_fj: float
    predicted_energy_fj: float

    @property
    def search_phases_exact(self) -> bool:
        """Analytic search-phase count equals the functional count."""
        return self.measured_search_phases == self.predicted_search_phases

    @property
    def write_phases_bounded(self) -> bool:
        """Functional write phases never exceed the analytic expectation."""
        return self.measured_write_phases <= self.predicted_write_phases

    @property
    def consistent(self) -> bool:
        """True when the functional run stays within the model's envelope."""
        return self.search_phases_exact and self.write_phases_bounded


def crosscheck_cost_model(
    width: int = 8,
    rows: int = 64,
    config: Optional[PerformanceModelConfig] = None,
    architecture: Optional[ArchitectureConfig] = None,
    seed: int = 0,
) -> CostModelCrosscheck:
    """Validate the analytic per-instruction costs against a functional AP.

    Runs one representative in-place and one out-of-place addition on random
    operands using ``config.execution_backend`` and compares the exact event
    counters with :func:`repro.ap.cost.instruction_cost`.  Because every
    execution backend must produce identical counters, this doubles as a
    quick calibration check when switching backends.
    """
    import numpy as np

    from repro.ap.core import AssociativeProcessor

    config = config or PerformanceModelConfig()
    architecture = architecture or ArchitectureConfig()
    technology = architecture.technology
    rng = np.random.default_rng(seed)

    ap = AssociativeProcessor(
        rows=rows,
        columns=8,
        technology=technology,
        backend=config.execution_backend,
    )
    half = 1 << (width - 2)
    a = rng.integers(-half, half, rows)
    b = rng.integers(-half, half, rows)
    ap.add_vectors(a, b, width=width, inplace=True)
    ap.add_vectors(a, b, width=width, inplace=False)
    measured = ap.reset_stats()

    predicted = _arith_cost(width, rows, True, config.match_probability).merge(
        _arith_cost(width, rows, False, config.match_probability)
    )
    return CostModelCrosscheck(
        backend=ap.backend.name,
        width=width,
        rows=rows,
        measured_search_phases=measured.search_phases,
        measured_write_phases=measured.write_phases,
        predicted_search_phases=predicted.search_phases,
        predicted_write_phases=predicted.write_phases,
        measured_energy_fj=measured.energy_fj(technology),
        predicted_energy_fj=predicted.energy_fj(technology),
    )


# ----------------------------------------------------------------------
# Steady-state amortization: deploy-once / serve-many accounting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SteadyStateCost:
    """Deploy cost vs. per-request cost of a weight-resident session.

    The paper's operating model is that ternary weights stay resident in CAM
    while activations stream through: programming the weights is a one-time
    *deploy* cost, and each served request pays only its own compute and
    activation movement.  This record keeps the two separate and amortizes
    the deploy cost over any request count.
    """

    #: One-time CAM weight-programming cost (interconnect transfer figures).
    deploy_energy_uj: float
    deploy_latency_ms: float
    #: Requests actually served so far.
    requests: int
    #: Mean functional cost of one served request.
    per_request_energy_uj: float
    per_request_latency_ms: float

    def amortized_energy_uj(self, requests: Optional[int] = None) -> float:
        """Energy per request with the deploy cost spread over ``requests``."""
        count = requests if requests is not None else self.requests
        if count < 1:
            raise ConfigurationError(f"requests must be >= 1, got {count}")
        return self.deploy_energy_uj / count + self.per_request_energy_uj

    def amortized_latency_ms(self, requests: Optional[int] = None) -> float:
        """Latency per request with the deploy cost spread over ``requests``."""
        count = requests if requests is not None else self.requests
        if count < 1:
            raise ConfigurationError(f"requests must be >= 1, got {count}")
        return self.deploy_latency_ms / count + self.per_request_latency_ms


def steady_state_cost(
    deployment, count: int, energy: float, latency: float
) -> SteadyStateCost:
    """Split a session's accounting into deploy cost vs. per-request cost.

    Args:
        deployment: the :class:`~repro.arch.accelerator.Deployment` returned
            by :meth:`~repro.arch.accelerator.Accelerator.deploy_plan` (the
            one-time CAM weight-programming traffic).
        count: requests served.
        energy: their total functional energy (uJ).
        latency: their total functional latency (ms); the per-request
            figures are the means.
    """
    return SteadyStateCost(
        deploy_energy_uj=deployment.energy_uj,
        deploy_latency_ms=deployment.latency_ms,
        requests=count,
        per_request_energy_uj=energy / count if count else 0.0,
        per_request_latency_ms=latency / count if count else 0.0,
    )


# ----------------------------------------------------------------------
# Layer-granularity crosscheck against the execution-plan runtime
# ----------------------------------------------------------------------
@dataclass
class LayerCostCrosscheck:
    """One layer's functional counters vs. the analytic per-instruction costs.

    The analytic prediction sums :func:`repro.ap.cost.program_cost` over every
    tile program the runtime actually executed, so it compares the cost model
    against functional execution at *layer* granularity (whole instruction
    streams, many APs, partial row tiles) rather than single instructions.
    The invariants are the same as :class:`CostModelCrosscheck`: search
    phases are data-independent and must match exactly; write phases are
    bounded above by the no-pass-skipped analytic count.
    """

    name: str
    tiles: int
    measured_search_phases: int
    measured_write_phases: int
    predicted_search_phases: int
    predicted_write_phases: int
    measured_energy_fj: float
    predicted_energy_fj: float

    @property
    def search_phases_exact(self) -> bool:
        """Analytic search-phase count equals the functional count."""
        return self.measured_search_phases == self.predicted_search_phases

    @property
    def write_phases_bounded(self) -> bool:
        """Functional write phases never exceed the analytic expectation."""
        return self.measured_write_phases <= self.predicted_write_phases

    @property
    def consistent(self) -> bool:
        """True when the functional run stays within the model's envelope."""
        return self.search_phases_exact and self.write_phases_bounded


@dataclass
class ExecutionCrosscheck:
    """Functional plan execution vs. the analytic cost model, per layer."""

    backend: str
    executor: str
    layers: List[LayerCostCrosscheck] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        """True when every layer stays within the model's envelope."""
        return all(layer.consistent for layer in self.layers)

    def describe(self) -> str:
        """Human-readable verdict for reports and assertion messages."""
        if self.consistent:
            return (
                f"cost model consistent with functional execution on "
                f"{len(self.layers)} layers ({self.backend}/{self.executor})"
            )
        broken = [layer.name for layer in self.layers if not layer.consistent]
        return "cost model diverges on layers: " + ", ".join(broken)


def crosscheck_execution(
    plan,
    execution,
    architecture: Optional[ArchitectureConfig] = None,
    match_probability: float = DEFAULT_MATCH_PROBABILITY,
    images: int = 1,
) -> ExecutionCrosscheck:
    """Cross-check a functional plan run against the analytic cost model.

    Extends :func:`crosscheck_cost_model` from single instructions to whole
    layers: for every layer of an executed
    :class:`~repro.runtime.plan.ExecutionPlan`, the exact counters aggregated
    by the runtime (:class:`~repro.runtime.scheduler.PlanExecution`) are
    compared with the expectation obtained by costing the very tile programs
    the runtime dispatched.

    Args:
        plan: the executed :class:`~repro.runtime.plan.ExecutionPlan`.
        execution: the :class:`~repro.runtime.scheduler.PlanExecution`
            returned by :meth:`~repro.arch.accelerator.Accelerator.execute_plan`
            or aggregated by the batched inference dataflow
            (:class:`~repro.inference.engine.BatchedInference`).
        architecture: architecture supplying the technology for the energy
            figures; the plan's architecture when omitted.
        match_probability: expected row-match fraction of the analytic model.
        images: how many images the execution processed - every tile program
            runs once per image, so the analytic expectation scales linearly
            (search phases stay exact; write phases stay an upper bound).
    """
    if images < 1:
        raise ConfigurationError(f"images must be >= 1, got {images}")
    architecture = architecture or plan.architecture
    technology = architecture.technology
    result = ExecutionCrosscheck(
        backend=execution.backend, executor=execution.executor
    )
    layer_results = {layer.name: layer for layer in execution.layers}
    for planned in plan.layers:
        measured = layer_results[planned.name].stats
        predicted = InstructionCost()
        for tile in planned.tiles:
            for program in tile.programs:
                predicted = predicted.merge(
                    program_cost(program, rows=tile.rows, match_probability=match_probability)
                )
        result.layers.append(
            LayerCostCrosscheck(
                name=planned.name,
                tiles=len(planned.tiles),
                measured_search_phases=measured.search_phases,
                measured_write_phases=measured.write_phases,
                predicted_search_phases=predicted.search_phases * images,
                predicted_write_phases=predicted.write_phases * images,
                measured_energy_fj=measured.energy_fj(technology),
                predicted_energy_fj=predicted.energy_fj(technology) * images,
            )
        )
    return result
