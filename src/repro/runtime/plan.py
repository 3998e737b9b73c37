"""Execution plans: compiled programs joined with hardware placements.

An :class:`ExecutionPlan` is the hand-off object between the compile/allocate
stages and the runtime: it takes the per-slice AP programs of a
:class:`~repro.core.compiler.CompiledModel` (``emit_programs=True``) and the
per-layer placements of an :class:`~repro.arch.allocator.AllocationPlan`, and
materialises one :class:`TileProgram` per (row tile, channel group) pair -
the unit of work one AP executes - addressed by
:data:`~repro.arch.accelerator.APAddress`.

Determinism contract
--------------------
Every tile carries an ``input_seed`` derived only from the plan's ``base_seed``
and the tile's static coordinates (layer, row tile, channel group).  Input
vectors are generated inside the executor worker from that seed, so the same
plan produces byte-identical per-tile inputs - and therefore byte-identical
:class:`~repro.cam.stats.CAMStats` - no matter which executor runs it, in
which order, or on how many workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

from repro import telemetry
from repro.ap.isa import APProgram
from repro.arch.accelerator import Accelerator, APAddress
from repro.arch.allocator import AllocationPlan, LayerAllocation, allocate_model
from repro.arch.config import ArchitectureConfig
from repro.core.compiler import CompiledLayer, CompiledModel
from repro.errors import CapacityError, CompilationError

_SEED_MASK = (1 << 64) - 1
#: Golden-ratio increment of the splitmix64 sequence.
_SEED_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(value: int) -> int:
    """The splitmix64 finaliser: avalanches one 64-bit word."""
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _SEED_MASK
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _SEED_MASK
    return value ^ (value >> 31)


def derive_tile_seed(
    base_seed: int, layer_index: int, row_tile: int, channel_group: int
) -> int:
    """Deterministic per-tile input seed from the tile's static coordinates.

    Uses a splitmix64 chain so that nearby coordinates never collide and the
    per-tile input streams are statistically independent.
    """
    seed = _splitmix64((base_seed + _SEED_GAMMA) & _SEED_MASK)
    for coordinate in (layer_index, row_tile, channel_group):
        seed = _splitmix64((seed + _SEED_GAMMA + coordinate) & _SEED_MASK)
    return seed


@dataclass(frozen=True)
class TileProgram:
    """The work one AP performs for one (row tile, channel group) of a layer.

    Attributes:
        address: AP executing this tile, as ``(bank, tile, ap)``.
        layer_index: position of the layer in the plan.
        layer_name: compiled layer this tile belongs to.
        row_tile: which group of output positions the tile covers.
        channel_group: which input-channel group the tile covers.
        round_index: sequential round the tile runs in (0-based); tiles of the
            same layer and round execute concurrently on different APs.
        channel_indices: input channels whose slice programs the tile runs.
        programs: the compiled per-slice AP programs, executed in order on the
            same (pooled) AP.
        rows: active CAM rows (output positions) of this row tile.
        input_seed: seed of the deterministic per-tile input generator.
        activation_bits: precision of the generated input activations.
        signed_activations: whether generated activations carry a sign.
    """

    address: APAddress
    layer_index: int
    layer_name: str
    row_tile: int
    channel_group: int
    round_index: int
    channel_indices: Tuple[int, ...]
    programs: Tuple[APProgram, ...]
    rows: int
    input_seed: int
    activation_bits: int
    signed_activations: bool = False

    @property
    def num_instructions(self) -> int:
        """Instructions this tile executes."""
        return sum(len(program) for program in self.programs)

    @cached_property
    def num_arithmetic_ops(self) -> int:
        """Add/sub instructions this tile executes (#Adds/Subs share).

        Cached like :attr:`max_column_used`: layer aggregation reads it for
        every tile of every layer of every request.
        """
        return sum(program.num_arithmetic_ops for program in self.programs)

    @cached_property
    def max_column_used(self) -> int:
        """Highest CAM column any of the tile's programs touches.

        Cached: tiles are frozen and built after compilation completes, and
        dispatch accounting queries this once per (image, tile) dispatch.
        """
        return max((program.max_column_used for program in self.programs), default=0)


@dataclass
class PlannedLayer:
    """One layer of an execution plan: placement plus its tile programs."""

    name: str
    layer_index: int
    allocation: LayerAllocation
    tiles: List[TileProgram] = field(default_factory=list)
    #: Output channels and accumulator width (sizing the adder-tree traffic).
    out_channels: int = 1
    accumulator_width: int = 8
    #: Output positions of the layer (all row tiles together).
    output_positions: int = 0
    #: Statistics scale factor inherited from slice sampling (1.0 = exact).
    scale_factor: float = 1.0

    @property
    def num_rounds(self) -> int:
        """Sequential rounds the layer needs."""
        return max((tile.round_index for tile in self.tiles), default=0) + 1

    @property
    def aps_used(self) -> int:
        """Distinct APs the layer occupies."""
        return len({tile.address for tile in self.tiles})

    @property
    def num_instructions(self) -> int:
        """Instructions executed across all tiles of the layer."""
        return sum(tile.num_instructions for tile in self.tiles)

    def tiles_by_round(self) -> Dict[int, List[TileProgram]]:
        """Group the layer's tiles by sequential round."""
        rounds: Dict[int, List[TileProgram]] = {}
        for tile in self.tiles:
            rounds.setdefault(tile.round_index, []).append(tile)
        return rounds


@dataclass
class ExecutionPlan:
    """A whole network lowered to per-AP tile programs.

    Built by :func:`build_execution_plan`; consumed by
    :class:`~repro.runtime.scheduler.Scheduler` /
    :meth:`~repro.arch.accelerator.Accelerator.execute_plan`.
    """

    name: str
    architecture: ArchitectureConfig
    allocation: AllocationPlan
    layers: List[PlannedLayer] = field(default_factory=list)
    base_seed: int = 0
    #: Address-assignment policy: ``"shared"`` rotates every layer through
    #: the same APs (cheap on capacity, reprograms weights per dispatch);
    #: ``"resident"`` gives each layer a disjoint address range so its
    #: weights can stay pinned in CAM across requests (see
    #: :meth:`repro.arch.accelerator.Accelerator.deploy_plan`).
    placement: str = "shared"

    def __iter__(self) -> Iterator[PlannedLayer]:
        return iter(self.layers)

    @property
    def num_tiles(self) -> int:
        """Tile programs across all layers."""
        return sum(len(layer.tiles) for layer in self.layers)

    @property
    def num_instructions(self) -> int:
        """Instructions executed across the whole plan."""
        return sum(layer.num_instructions for layer in self.layers)

    @property
    def aps_used(self) -> int:
        """Peak number of distinct APs any layer occupies."""
        return max((layer.aps_used for layer in self.layers), default=0)

    @property
    def required_columns(self) -> int:
        """CAM columns an AP needs to run any tile of the plan."""
        highest = max(
            (tile.max_column_used for layer in self.layers for tile in layer.tiles),
            default=0,
        )
        return highest + 1

    @property
    def lease_columns(self) -> int:
        """Column geometry every functional AP of this plan is leased with.

        The single source of the lease-width formula: the scheduler, the
        inference engine and :meth:`~repro.arch.accelerator.Accelerator.deploy_plan`
        must all size APs identically, or pinned (weight-resident) leases
        would be silently invalidated by a geometry mismatch.  The minimum
        of 4 keeps the carry/scratch columns usable on degenerate plans.
        """
        return max(self.required_columns, 4)

    def by_name(self) -> Dict[str, PlannedLayer]:
        """Index the planned layers by name."""
        return {layer.name: layer for layer in self.layers}

    def describe(self) -> str:
        """One-line summary used by the CLI and reports."""
        return (
            f"plan {self.name!r}: {len(self.layers)} layers, "
            f"{self.num_tiles} tile programs, {self.num_instructions} "
            f"instructions, peak {self.aps_used} APs"
        )


def _partition_slices(
    layer: CompiledLayer, channel_groups: int
) -> List[List[int]]:
    """Split the layer's compiled slice indices into contiguous channel groups.

    When slice sampling compiled fewer slices than there are channel groups,
    trailing groups come out empty and produce no tile program (their work is
    represented by the recorded scale factor instead).
    """
    count = len(layer.slices)
    groups: List[List[int]] = []
    base, remainder = divmod(count, channel_groups)
    start = 0
    for group in range(channel_groups):
        size = base + (1 if group < remainder else 0)
        groups.append(list(range(start, start + size)))
        start += size
    return groups


def resident_aps_required(compiled: CompiledModel) -> int:
    """APs a weight-resident placement needs at full channel parallelism.

    Upper bound used to auto-size an accelerator before a resident
    :func:`build_execution_plan`: every layer owns its row tiles times its
    channel groups simultaneously, because resident layers never time-share
    APs (an allocation computed against a larger budget can only need fewer).
    """
    return sum(
        layer.mapping.row_tiles * layer.mapping.channel_groups
        for layer in compiled.layers
    )


def build_execution_plan(
    compiled: CompiledModel,
    accelerator: Optional[Accelerator] = None,
    allocation: Optional[AllocationPlan] = None,
    base_seed: int = 0,
    placement: str = "shared",
    verify: bool = False,
) -> ExecutionPlan:
    """Join a compiled model with an allocation into per-AP tile programs.

    Args:
        compiled: model compiled with ``emit_programs=True`` (every layer must
            carry its per-slice AP programs; slice sampling is allowed and the
            resulting scale factor is recorded per layer).
        accelerator: hardware the plan targets; a default-configured
            :class:`~repro.arch.accelerator.Accelerator` when omitted.
        allocation: per-layer placement; computed from the accelerator's AP
            budget when omitted.
        base_seed: seed of the deterministic per-tile input generator.
        placement: ``"shared"`` (default) starts every layer's addresses at
            AP 0, so layers time-share the same APs and implicitly reprogram
            them per dispatch; ``"resident"`` advances an address cursor
            across layers so every layer's tiles own disjoint APs - the
            weight-resident mode
            :meth:`~repro.arch.accelerator.Accelerator.deploy_plan` pins.
        verify: statically verify the built plan with
            :func:`repro.analysis.plan.verify_execution_plan` before
            returning it (verify-before-execute; see ``repro check``).

    Raises:
        CompilationError: if a layer has no emitted programs.
        CapacityError: if the allocation needs more APs than the accelerator
            provides (for ``"resident"`` placement: summed across *all*
            layers, since they no longer time-share).
        ConfigurationError: for an unknown placement policy.
        AnalysisError: if ``verify`` is set and the plan carries any
            error-severity diagnostic.
    """
    if placement not in ("shared", "resident"):
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"unknown placement {placement!r}; expected 'shared' or 'resident'"
        )
    build_started = time.perf_counter()
    accelerator = accelerator or Accelerator()
    architecture = accelerator.config
    if allocation is None:
        demands = [layer.mapping.demand() for layer in compiled.layers]
        allocation = allocate_model(
            demands,
            available_aps=accelerator.num_aps,
            max_output_tiles=architecture.aps_per_tile,
        )
    allocations = allocation.by_name()
    addresses = list(accelerator.ap_addresses())

    plan = ExecutionPlan(
        name=compiled.name,
        architecture=architecture,
        allocation=allocation,
        base_seed=base_seed,
        placement=placement,
    )
    cursor = 0
    for layer_index, layer in enumerate(compiled.layers):
        if not layer.slices:
            raise CompilationError(
                f"layer {layer.name!r} carries no AP programs; compile the "
                f"model with emit_programs=True to build an execution plan"
            )
        layer_allocation = allocations[layer.name]
        mapping = layer.mapping
        parallel_groups = layer_allocation.parallel_channel_groups
        channel_groups = layer_allocation.demand.channel_groups
        concurrent_aps = mapping.row_tiles * parallel_groups
        base = cursor if placement == "resident" else 0
        if base + concurrent_aps > len(addresses):
            if placement == "resident":
                required = resident_aps_required(compiled)
                # The structured fields are the machine-readable sizing
                # hint: callers auto-size from the exception without
                # parsing the message.
                raise CapacityError(
                    f"weight-resident deploy oversubscribed: layer "
                    f"{layer.name!r} needs {concurrent_aps} APs at offset "
                    f"{base} but the accelerator provides {len(addresses)}; "
                    f"resident placement cannot time-share APs across layers "
                    f"- the full pipeline needs resident_aps_required="
                    f"{required} APs, so grow the accelerator (e.g. "
                    f"config.with_total_aps({required})) or use "
                    f"placement='shared'",
                    requested=base + concurrent_aps,
                    available=len(addresses),
                    resident_aps_required=required,
                )
            raise CapacityError(
                f"layer {layer.name!r} needs {concurrent_aps} concurrent APs "
                f"but the accelerator provides {len(addresses)}",
                requested=concurrent_aps,
                available=len(addresses),
            )
        cursor += concurrent_aps
        planned = PlannedLayer(
            name=layer.name,
            layer_index=layer_index,
            allocation=layer_allocation,
            out_channels=mapping.out_channels,
            accumulator_width=mapping.accumulator_width,
            output_positions=mapping.output_positions,
            scale_factor=layer.scale_factor,
        )
        slice_groups = _partition_slices(layer, channel_groups)
        for row_tile in range(mapping.row_tiles):
            rows = (
                mapping.rows_used_in_last_tile
                if row_tile == mapping.row_tiles - 1
                else mapping.rows_per_ap
            )
            for group, slice_indices in enumerate(slice_groups):
                if not slice_indices:
                    continue
                slot = group % parallel_groups
                address = addresses[base + row_tile * parallel_groups + slot]
                planned.tiles.append(
                    TileProgram(
                        address=address,
                        layer_index=layer_index,
                        layer_name=layer.name,
                        row_tile=row_tile,
                        channel_group=group,
                        round_index=group // parallel_groups,
                        channel_indices=tuple(
                            layer.slices[index].channel_index
                            for index in slice_indices
                        ),
                        programs=tuple(
                            layer.slices[index].program for index in slice_indices
                        ),
                        rows=rows,
                        input_seed=derive_tile_seed(
                            base_seed, layer_index, row_tile, group
                        ),
                        activation_bits=compiled.config.activation_bits,
                        signed_activations=compiled.config.signed_activations,
                    )
                )
        plan.layers.append(planned)
    if plan.required_columns > architecture.ap.columns:
        raise CapacityError(
            f"plan needs {plan.required_columns} CAM columns but the "
            f"architecture's APs provide {architecture.ap.columns}",
            requested=plan.required_columns,
            available=architecture.ap.columns,
        )
    if verify:
        from repro.analysis.plan import verify_execution_plan

        verify_execution_plan(plan, accelerator, compiled=compiled).raise_for_errors()
    telemetry.complete(
        "runtime.build_plan",
        build_started,
        time.perf_counter(),
        plan=plan.name,
        placement=placement,
        layers=len(plan.layers),
        tiles=sum(len(layer.tiles) for layer in plan.layers),
    )
    return plan
