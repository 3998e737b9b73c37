"""The accelerator: AP provider and runtime host of the bank/tile hierarchy.

The :class:`Accelerator` models the full bank / tile / AP hierarchy (paper
Fig. 2a) and acts as the execution-plan runtime's AP provider: it keeps a
pool of functional :class:`~repro.ap.core.AssociativeProcessor` instances
(leased and reset per tile program), aggregates the
:class:`~repro.cam.stats.CAMStats` charged by every executed tile per
``(bank, tile)``, meters interconnect traffic through its
:class:`~repro.arch.interconnect.InterconnectModel`, and exposes
:meth:`execute_plan` - the single entry point that runs an
:class:`~repro.runtime.plan.ExecutionPlan` on a pluggable executor.

Full-network *analytic* numbers still come from :mod:`repro.perf`; the
functional path here is what validates them at layer granularity
(:func:`repro.perf.model.crosscheck_execution`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro import telemetry
from repro.ap.backends import DEFAULT_BACKEND, BackendSpec, resolve_backend
from repro.ap.core import AssociativeProcessor
from repro.arch.config import ArchitectureConfig
from repro.arch.interconnect import (
    ZERO_TRANSFER,
    InterconnectModel,
    TransferCost,
    TransferScope,
)
from repro.cam.stats import CAMStats
from repro.errors import CapacityError, ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.runtime.plan import ExecutionPlan, TileProgram
    from repro.runtime.scheduler import PlanExecution

#: Address of one AP inside the hierarchy: (bank, tile, ap).
APAddress = Tuple[int, int, int]

#: Static identity of one tile program inside a plan (pin-coverage key).
TileKey = Tuple[int, int, int]


def tile_key(tile: "TileProgram") -> TileKey:
    """The static coordinates identifying a tile program inside its plan."""
    return (tile.layer_index, tile.row_tile, tile.channel_group)


def tile_weight_bits(tile: "TileProgram") -> float:
    """CAM cells (re)programmed when a tile program's weights are loaded.

    The compiled ternary weights are folded into the tile's instruction
    stream, so loading a tile onto an AP writes its whole operand footprint:
    ``rows`` CAM rows across every column any of its slice programs touches.
    This is the traffic a weight-resident deployment pays **once**, and the
    traffic the legacy per-request lease path pays implicitly on every
    dispatch.
    """
    return float(tile.rows * (tile.max_column_used + 1))


@dataclass
class ResidencyLedger:
    """Weight-residency accounting: lease / reprogram events per accelerator.

    ``lease_events`` counts cold AP acquisitions (an AP bound to a tile
    program that was not resident); every cold lease implies reprogramming
    the AP's CAM with the tile's weights, counted in ``reprogram_events``
    and sized in ``reprogram_bits``.  ``warm_hits`` counts dispatches served
    by a pinned (weight-resident) lease - the paper's steady state, where
    activations stream through APs whose weights stay in CAM.
    """

    lease_events: int = 0
    reprogram_events: int = 0
    warm_hits: int = 0
    reprogram_bits: float = 0.0

    def snapshot(self) -> "ResidencyLedger":
        """An independent copy (for before/after deltas in tests and reports)."""
        return replace(self)


@dataclass(frozen=True)
class PinnedLease:
    """One weight-resident AP: geometry plus the tile programs it hosts.

    A pinned lease survives across requests: the runtime treats every
    dispatch of a covered tile program as a *warm* hit (no lease, no
    reprogramming).  Multiple tile programs of sequential rounds may share
    one pinned AP - their operands live in different RTM domains of the same
    nanowires, which is what the racetrack geometry is for.
    """

    address: APAddress
    rows: int
    columns: int
    backend: BackendSpec
    tile_keys: FrozenSet[TileKey]


@dataclass
class Deployment:
    """Outcome of pinning an execution plan's weights into CAM once.

    The explicit CAM write/reprogramming traffic of loading every tile
    program's weights is metered here (and on the interconnect ledger) at
    deploy time, so steady-state requests are served without any further
    lease or reprogram events - the cost split a
    :class:`repro.session.Session` reports as ``deploy_cost`` vs
    ``per_request_cost``.
    """

    plan_name: str
    aps_pinned: int
    tile_programs: int
    reprogram_events: int
    programming: TransferCost = ZERO_TRANSFER
    wall_time_s: float = 0.0

    @property
    def weight_bits(self) -> float:
        """CAM cells written while programming the plan's weights."""
        return self.programming.bits

    @property
    def energy_uj(self) -> float:
        """One-time deploy (weight programming) energy in microjoules."""
        return self.programming.energy_fj / 1e9

    @property
    def latency_ms(self) -> float:
        """One-time deploy (weight programming) latency in milliseconds."""
        return self.programming.latency_ns / 1e6

    def describe(self) -> str:
        """One-line summary used by the CLI and reports."""
        return (
            f"deployed {self.plan_name!r}: {self.tile_programs} tile programs "
            f"pinned to {self.aps_pinned} APs ({self.weight_bits:.0f} CAM bits "
            f"programmed once, {self.energy_uj:.4f} uJ)"
        )


@dataclass
class Tile:
    """A group of APs sharing a tile buffer."""

    bank_index: int
    tile_index: int
    num_aps: int

    def ap_addresses(self) -> List[APAddress]:
        """Addresses of every AP in this tile."""
        return [(self.bank_index, self.tile_index, ap) for ap in range(self.num_aps)]


@dataclass
class Bank:
    """A group of tiles sharing a bank-level buffer."""

    bank_index: int
    tiles: List[Tile]

    def ap_addresses(self) -> List[APAddress]:
        """Addresses of every AP in this bank."""
        addresses: List[APAddress] = []
        for tile in self.tiles:
            addresses.extend(tile.ap_addresses())
        return addresses


class Accelerator:
    """The full RTM-AP accelerator (paper Fig. 2a).

    Args:
        config: architecture configuration (hierarchy shape, CAM geometry).
        interconnect: optional interconnect model; derived from the
            configuration when omitted.
        backend: execution backend used by every pooled functional AP (see
            :mod:`repro.ap.backends`); event accounting is
            backend-independent, so this only changes simulation speed.

    Lock discipline
    ---------------
    The ledgers (``_tile_stats``, ``_movement``, ``_residency``, ``_pins``)
    are shared by every thread that dispatches work: overlapping inference
    requests each run on their own serving thread.  Every
    mutation of them must happen lexically inside ``with self._ledger_lock:``
    (``__init__`` excepted - the instance is not shared yet); the lock is
    **not** reentrant, so code holding it must not call other methods that
    take it (e.g. :meth:`charge_movement`, :meth:`unpin_aps`).  This rule is
    machine-enforced by the concurrency lint
    (:mod:`repro.analysis.lint_locks`, code ``RPA301``) that CI runs over
    ``src/repro/`` via ``repro check --locks``.
    """

    def __init__(
        self,
        config: Optional[ArchitectureConfig] = None,
        interconnect: Optional[InterconnectModel] = None,
        backend: BackendSpec = DEFAULT_BACKEND,
    ) -> None:
        self.config = config or ArchitectureConfig()
        self.interconnect = interconnect or InterconnectModel.from_architecture(self.config)
        resolve_backend(backend)  # an unknown name raises here, not at first lease
        self.backend = backend
        self.banks: List[Bank] = [
            Bank(
                bank_index=bank,
                tiles=[
                    Tile(
                        bank_index=bank,
                        tile_index=tile,
                        num_aps=self.config.aps_per_tile,
                    )
                    for tile in range(self.config.tiles_per_bank)
                ],
            )
            for bank in range(self.config.num_banks)
        ]
        #: Pooled functional APs, keyed by address (leased via lease_ap).
        self._functional_aps: Dict[APAddress, AssociativeProcessor] = {}
        #: Runtime ledger: exact CAM counters charged per (bank, tile).
        self._tile_stats: Dict[Tuple[int, int], CAMStats] = {}
        #: Runtime ledger: interconnect traffic charged per transfer scope.
        self._movement: Dict[TransferScope, TransferCost] = {}
        #: Weight-resident pins: addresses whose programs survive requests.
        self._pins: Dict[APAddress, PinnedLease] = {}
        #: Runtime ledger: lease / reprogram / warm-hit accounting.
        self._residency = ResidencyLedger()
        #: Ledger guard: overlapping requests charge counters from several
        #: serving threads concurrently; every mutation of the stats,
        #: movement and residency ledgers takes this lock so the exact
        #: integer counters stay exact under overlapped requests.
        self._ledger_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def num_aps(self) -> int:
        """Total number of APs."""
        return self.config.total_aps

    def ap_addresses(self) -> Iterator[APAddress]:
        """Iterate over every AP address in (bank, tile, ap) order."""
        for bank in self.banks:
            for address in bank.ap_addresses():
                yield address

    def validate_address(self, address: APAddress) -> None:
        """Raise :class:`CapacityError` if an address is outside the hierarchy."""
        bank, tile, ap = address
        if not (0 <= bank < self.config.num_banks):
            raise CapacityError(f"bank {bank} outside [0, {self.config.num_banks})")
        if not (0 <= tile < self.config.tiles_per_bank):
            raise CapacityError(f"tile {tile} outside [0, {self.config.tiles_per_bank})")
        if not (0 <= ap < self.config.aps_per_tile):
            raise CapacityError(f"AP {ap} outside [0, {self.config.aps_per_tile})")

    # ------------------------------------------------------------------
    # Pooled AP lifecycle
    # ------------------------------------------------------------------
    def functional_ap(self, address: APAddress) -> AssociativeProcessor:
        """Instantiate (or fetch) the pooled functional AP at ``address``.

        Functional APs are created lazily because a full configuration holds
        hundreds of arrays and most workflows only simulate a handful.  The
        returned AP keeps whatever state previous work left in it; use
        :meth:`lease_ap` for a reset AP sized to a specific workload.
        """
        self.validate_address(address)
        if address not in self._functional_aps:
            self._functional_aps[address] = AssociativeProcessor(
                rows=self.config.ap.rows,
                columns=self.config.ap.columns,
                technology=self.config.technology,
                backend=self.backend,
            )
        return self._functional_aps[address]

    def lease_ap(
        self,
        address: APAddress,
        rows: Optional[int] = None,
        columns: Optional[int] = None,
        backend: Optional[BackendSpec] = None,
    ) -> AssociativeProcessor:
        """Lease the pooled AP at ``address``, reset and sized for a workload.

        The pool guarantees that a leased AP is indistinguishable from a
        freshly constructed one: stored bits, port positions and counters are
        wiped, and a cached instance whose geometry or backend does not match
        the request is rebuilt.  This is what lets the serial executor reuse
        pool APs while staying byte-identical to pool workers that build
        fresh APs in their own process.
        """
        self.validate_address(address)
        rows = rows if rows is not None else self.config.ap.rows
        columns = columns if columns is not None else self.config.ap.columns
        backend = backend if backend is not None else self.backend
        if rows > self.config.ap.rows:
            raise CapacityError(
                f"lease of {rows} rows exceeds the {self.config.ap.rows}-row APs "
                f"of this architecture"
            )
        if columns > self.config.ap.columns:
            raise CapacityError(
                f"lease of {columns} columns exceeds the "
                f"{self.config.ap.columns}-column APs of this architecture"
            )
        cached = self._functional_aps.get(address)
        if (
            cached is None
            or cached.rows != rows
            or cached.columns != columns
            or type(cached.backend) is not resolve_backend(backend)
        ):
            cached = AssociativeProcessor(
                rows=rows,
                columns=columns,
                technology=self.config.technology,
                backend=backend,
            )
            self._functional_aps[address] = cached
            # Rebuilding a pinned AP with a geometry or backend the pin did
            # not promise overwrites what was resident in its CAM: the pin
            # no longer holds.  (Lazy first materialization at the pinned
            # geometry keeps the pin - the weights are modeled as resident.)
            with self._ledger_lock:
                pin = self._pins.get(address)
                if pin is not None and (
                    pin.rows != rows
                    or pin.columns != columns
                    or resolve_backend(pin.backend) is not resolve_backend(backend)
                ):
                    self._pins.pop(address, None)
        else:
            cached.array.reset()
            cached.active_rows = rows
        telemetry.instant(
            "accelerator.lease", category="device", ap=str(tuple(address))
        )
        return cached

    def release_aps(self) -> int:
        """Drop every pooled functional AP; returns how many were released."""
        count = len(self._functional_aps)
        self._functional_aps.clear()
        return count

    # ------------------------------------------------------------------
    # Weight-resident placement: pinned leases that survive across requests
    # ------------------------------------------------------------------
    def deploy_plan(
        self,
        plan: "ExecutionPlan",
        backend: Optional[BackendSpec] = None,
    ) -> Deployment:
        """Pin a weight-resident plan's tile programs into CAM once.

        Every tile program of every layer is bound to its
        :data:`APAddress` permanently (a :class:`PinnedLease`): the CAM
        write traffic of programming its ternary weights is metered on the
        interconnect ledger **now**, at deploy time, and subsequent
        dispatches of the same tile programs are *warm* - they stream
        activations through the resident weights without any further lease
        or reprogram events (see :meth:`account_tile_dispatch`).

        Only plans built with ``placement="resident"`` can be deployed:
        shared-placement plans rotate different layers' weights through the
        same APs, which is exactly the per-request reprogramming this mode
        exists to avoid.

        Args:
            plan: a resident-placement :class:`~repro.runtime.plan.ExecutionPlan`.
            backend: execution backend the pinned functional APs will use;
                the accelerator's default when omitted.

        Returns:
            The :class:`Deployment` record (programming traffic, pin counts).
        """
        if getattr(plan, "placement", "shared") != "resident":
            raise ConfigurationError(
                f"plan {plan.name!r} uses {plan.placement!r} placement; only "
                f"weight-resident plans (build_execution_plan(..., "
                f"placement='resident')) can be deployed"
            )
        started = time.perf_counter()
        backend = backend if backend is not None else self.backend
        columns = plan.lease_columns
        self.unpin_aps()
        programming = ZERO_TRANSFER
        grouped: Dict[APAddress, Dict] = {}
        tile_programs = 0
        for layer in plan.layers:
            for tile in layer.tiles:
                address = tuple(tile.address)
                self.validate_address(address)
                entry = grouped.setdefault(address, {"rows": tile.rows, "keys": set()})
                if entry["rows"] != tile.rows:
                    raise CapacityError(
                        f"tile programs of differing row counts share AP "
                        f"{address}; a weight-resident deploy needs one row "
                        f"geometry per pinned AP"
                    )
                entry["keys"].add(tile_key(tile))
                tile_programs += 1
                # Weights enter the accelerator through the global buffer.
                programming = programming.merge(
                    self.charge_movement(tile_weight_bits(tile), TransferScope.GLOBAL)
                )
        # The movement charges above take the ledger lock themselves (it is
        # not reentrant), so only the final pin/residency commit sits inside.
        with self._ledger_lock:
            for address, entry in grouped.items():
                self._pins[address] = PinnedLease(
                    address=address,
                    rows=entry["rows"],
                    columns=columns,
                    backend=backend,
                    tile_keys=frozenset(entry["keys"]),
                )
            self._residency.lease_events += len(grouped)
            self._residency.reprogram_events += tile_programs
            self._residency.reprogram_bits += programming.bits
        finished = time.perf_counter()
        telemetry.complete(
            "accelerator.deploy",
            started,
            finished,
            category="device",
            plan=plan.name,
            aps_pinned=len(grouped),
            tile_programs=tile_programs,
        )
        return Deployment(
            plan_name=plan.name,
            aps_pinned=len(grouped),
            tile_programs=tile_programs,
            reprogram_events=tile_programs,
            programming=programming,
            wall_time_s=finished - started,
        )

    def account_tile_dispatch(self, tile: "TileProgram", dispatches: int = 1) -> bool:
        """Account ``dispatches`` dispatches of one tile program on the
        residency ledger.

        Returns ``True`` for *warm* dispatches - the tile's weights are
        resident on its pinned AP, so only activations move - and ``False``
        for *cold* ones, each of which charges a lease plus a CAM reprogram
        (the implicit cost every dispatch paid before weight-resident
        placement existed) and emits one ``accelerator.cold_dispatch``
        instant.  Called once per tile per layer run (with one dispatch per
        image) by both the synthetic schedulers and the inference engine,
        for every executor - pool workers build their APs in other
        processes, so accounting happens here, at dispatch time, not inside
        :meth:`lease_ap`.
        """
        with self._ledger_lock:
            pin = self._pins.get(tuple(tile.address))
            if pin is not None and tile_key(tile) in pin.tile_keys:
                self._residency.warm_hits += dispatches
                warm = True
            else:
                self._residency.lease_events += dispatches
                self._residency.reprogram_events += dispatches
                # Whole cell counts: the float product is exact.
                self._residency.reprogram_bits += dispatches * tile_weight_bits(tile)
                warm = False
        if not warm:
            for _ in range(dispatches):
                telemetry.instant(
                    "accelerator.cold_dispatch",
                    category="device",
                    ap=str(tuple(tile.address)),
                    layer=tile.layer_index,
                )
        return warm

    def is_pinned(self, address: APAddress) -> bool:
        """Whether an AP currently holds a weight-resident (pinned) lease."""
        return tuple(address) in self._pins

    def pinned_addresses(self) -> List[APAddress]:
        """Addresses of every currently pinned AP."""
        return sorted(self._pins)

    def unpin_aps(self) -> int:
        """Drop every weight-resident pin; returns how many were released."""
        with self._ledger_lock:
            count = len(self._pins)
            self._pins.clear()
        return count

    @property
    def residency(self) -> ResidencyLedger:
        """Snapshot of the lease/reprogram/warm-hit accounting so far."""
        with self._ledger_lock:
            return self._residency.snapshot()

    # ------------------------------------------------------------------
    # Runtime ledgers: per-tile stats aggregation and interconnect traffic
    # ------------------------------------------------------------------
    def record_tile_stats(self, address: APAddress, stats: CAMStats) -> None:
        """Charge one executed tile program's counters to its (bank, tile)."""
        self.validate_address(address)
        key = (address[0], address[1])
        with self._ledger_lock:
            current = self._tile_stats.get(key)
            self._tile_stats[key] = stats if current is None else current.merge(stats)

    def tile_stats(self) -> Dict[Tuple[int, int], CAMStats]:
        """Per-(bank, tile) counters charged by plan execution so far."""
        return dict(self._tile_stats)

    @property
    def total_stats(self) -> CAMStats:
        """Sum of every counter charged by plan execution so far."""
        total = CAMStats()
        for stats in self._tile_stats.values():
            total = total.merge(stats)
        return total

    def charge_movement(
        self, bits: float, scope: TransferScope = TransferScope.INTRA_TILE
    ) -> TransferCost:
        """Meter one interconnect transfer and add it to the traffic ledger."""
        cost = self.interconnect.transfer(bits, scope)
        with self._ledger_lock:
            current = self._movement.get(scope)
            self._movement[scope] = cost if current is None else current.merge(cost)
        return cost

    def charge_activation_traffic(
        self,
        bits: float,
        src: Optional[APAddress] = None,
        dst: Optional[APAddress] = None,
    ) -> TransferCost:
        """Meter inter-layer activation hand-off on the interconnect ledger.

        The functional dataflow calls this once per layer per batch: the
        producing layer's OFM (or the raw input image for the first layer)
        moves to the APs holding the consuming layer's row tiles.  The
        hierarchy level crossed between ``src`` and ``dst`` picks the per-bit
        energy; with no ``src`` the transfer enters through the global buffer
        (off-accelerator input), and with no ``dst`` it stays intra-tile.
        """
        if src is None:
            scope = TransferScope.GLOBAL
        elif dst is None:
            scope = TransferScope.INTRA_TILE
        else:
            scope = self.transfer_scope(src, dst)
        return self.charge_movement(bits, scope)

    def movement_ledger(self) -> Dict[TransferScope, TransferCost]:
        """Interconnect traffic charged per scope by plan execution so far."""
        return dict(self._movement)

    def reset_ledgers(self) -> None:
        """Clear the stats, interconnect traffic and residency ledgers."""
        with self._ledger_lock:
            self._tile_stats.clear()
            self._movement.clear()
            self._residency = ResidencyLedger()

    # ------------------------------------------------------------------
    # Plan execution
    # ------------------------------------------------------------------
    def execute_plan(
        self,
        plan: "ExecutionPlan",
        executor: str = "serial",
        workers: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> "PlanExecution":
        """Run an execution plan on this accelerator.

        The single runtime entry point: dispatches the plan's tile programs
        through a :class:`~repro.runtime.scheduler.Scheduler` on the chosen
        executor and returns the aggregated
        :class:`~repro.runtime.scheduler.PlanExecution` (counters shaped like
        :class:`~repro.perf.model.ModelPerformance`).

        Args:
            plan: output of :func:`repro.runtime.plan.build_execution_plan`.
            executor: ``"serial"`` or ``"parallel"`` (process pool).
            workers: pool size for parallel executors (default: CPU count).
            backend: execution backend override; defaults to the
                accelerator's backend.
        """
        from repro.runtime.scheduler import Scheduler

        scheduler = Scheduler(
            self, executor=executor, workers=workers, backend=backend
        )
        try:
            return scheduler.run(plan)
        finally:
            scheduler.close()

    # ------------------------------------------------------------------
    def transfer_scope(self, src: APAddress, dst: APAddress) -> TransferScope:
        """Hierarchy level crossed when moving data from ``src`` to ``dst``."""
        self.validate_address(src)
        self.validate_address(dst)
        if src[0] != dst[0]:
            return TransferScope.GLOBAL
        if src[1] != dst[1]:
            return TransferScope.INTRA_BANK
        return TransferScope.INTRA_TILE

    def describe(self) -> str:
        """One-line human-readable summary of the hierarchy."""
        cfg = self.config
        return (
            f"{cfg.num_banks} banks x {cfg.tiles_per_bank} tiles x "
            f"{cfg.aps_per_tile} APs = {cfg.total_aps} APs of "
            f"{cfg.ap.rows}x{cfg.ap.columns} CAM cells "
            f"({cfg.technology.domains_per_nanowire} domains/cell, "
            f"{cfg.activation_bits}-bit activations)"
        )
