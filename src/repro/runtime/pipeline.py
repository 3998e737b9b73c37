"""Dependency-driven pipelined dispatch of the synthetic tile workload.

The layer-synchronous :class:`~repro.runtime.scheduler.Scheduler` fans out
all tiles of layer L, waits at a barrier, then moves to layer L+1 - which
leaves most APs of a weight-resident deployment idle at any instant (every
layer owns a *disjoint* AP group, but only one group works at a time).  This
module replaces the barrier chain with a work-item DAG:

* a :class:`PipelineTask` is one dispatchable unit of work (one tile program
  of one layer) with explicit dependencies on other tasks' keys;
* :class:`PipelineScheduler` keeps a **topological frontier**: every task
  whose dependencies have completed is submitted to the executor the moment
  a slot frees up, so layer L+1 tiles run on their own resident AP group
  while layer L tiles of other work are still in flight;
* an :class:`InFlightTracker` counts in-flight work per AP group (one group
  per resident layer) with an optional concurrency cap - the hardware-
  faithful mode serializes each stage, the throughput mode merely tracks
  occupancy for reports.

Executors gained an async ``submit_tasks``/``drain`` interface beside their
order-preserving ``map_tasks`` (see :mod:`repro.runtime.executors`); the
pipeline uses it so tiles of *different* layers interleave freely on one
worker pool.

Determinism guarantee
---------------------
A tile's result depends only on the tile itself (executor contract), every
counter reduction is performed in a *sorted, dispatch-order-independent*
order at aggregation time, and interconnect movement is charged per layer in
plan order after all tiles complete - so a pipelined run produces
byte-identical :class:`~repro.runtime.scheduler.PlanExecution` counters to
the layer-synchronous scheduler, no matter in which order tasks finished.
"""

from __future__ import annotations

import heapq
import queue
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.errors import ConfigurationError, SimulationError
from repro.runtime.executors import LeaseFn, _pool_worker
from repro.runtime.plan import ExecutionPlan
from repro.runtime.scheduler import (
    PlanExecution,
    Scheduler,
    aggregate_layer_run,
    charge_adder_tree_movement,
)


@dataclass(frozen=True)
class PipelineTask:
    """One dispatchable work item of the pipeline DAG.

    Attributes:
        key: unique, orderable identity (ties in the ready frontier are
            broken by sorting keys, which keeps submission order - and
            therefore serial execution - deterministic).
        group: the AP group the task occupies while in flight (a resident
            layer's disjoint address range; tracked by
            :class:`InFlightTracker`).
        fn: picklable worker invoked with ``payload`` on the executor.
        payload: the worker's single argument.
        depends_on: keys that must complete before this task is dispatchable.
    """

    key: Tuple
    group: Hashable
    fn: Callable
    payload: Any
    depends_on: Tuple = ()


@dataclass
class GroupTrace:
    """Occupancy record of one AP group (one pipeline stage)."""

    group: Hashable
    #: Total tasks dispatched through the group.
    dispatches: int = 0
    #: Tasks currently in flight.
    in_flight: int = 0
    #: High-water mark of concurrent in-flight tasks (pipeline overlap
    #: witness: > 0 on more than one group at once means stages overlapped).
    max_in_flight: int = 0


class InFlightTracker:
    """Per-AP-group in-flight accounting with an optional concurrency cap.

    Args:
        max_in_flight: maximum concurrent work items per group.  ``None``
            (default) only *tracks* occupancy; ``1`` reproduces the
            hardware-faithful semantics where a stage serves one activation
            stream at a time.
    """

    def __init__(self, max_in_flight: Optional[int] = None) -> None:
        if max_in_flight is not None and max_in_flight < 1:
            raise ConfigurationError(
                f"max_in_flight must be >= 1 (or None), got {max_in_flight}"
            )
        self.max_in_flight = max_in_flight
        self._condition = threading.Condition()
        self._groups: Dict[Hashable, GroupTrace] = {}

    # ------------------------------------------------------------------
    def _trace(self, group: Hashable) -> GroupTrace:
        trace = self._groups.get(group)
        if trace is None:
            trace = self._groups[group] = GroupTrace(group=group)
        return trace

    def try_enter(self, group: Hashable) -> bool:
        """Non-blocking entry; ``False`` when the group is at its cap."""
        with self._condition:
            trace = self._trace(group)
            if (
                self.max_in_flight is not None
                and trace.in_flight >= self.max_in_flight
            ):
                return False
            trace.in_flight += 1
            trace.dispatches += 1
            trace.max_in_flight = max(trace.max_in_flight, trace.in_flight)
            return True

    def enter(self, group: Hashable) -> None:
        """Blocking entry: waits until the group drops below its cap."""
        with self._condition:
            trace = self._trace(group)
            while (
                self.max_in_flight is not None
                and trace.in_flight >= self.max_in_flight
            ):
                self._condition.wait()
            trace.in_flight += 1
            trace.dispatches += 1
            trace.max_in_flight = max(trace.max_in_flight, trace.in_flight)

    def exit(self, group: Hashable) -> None:
        """Release one in-flight slot of ``group``."""
        with self._condition:
            trace = self._trace(group)
            if trace.in_flight < 1:
                raise SimulationError(
                    f"in-flight underflow on AP group {group!r}: exit() "
                    f"without a matching enter()"
                )
            trace.in_flight -= 1
            self._condition.notify_all()

    @contextmanager
    def entered(self, group: Hashable):
        """Context-managed ``enter``/``exit`` pair (exception-safe)."""
        self.enter(group)
        try:
            yield
        finally:
            self.exit(group)

    def trace(self) -> Dict[Hashable, GroupTrace]:
        """Snapshot of every group's occupancy counters."""
        with self._condition:
            return {
                group: GroupTrace(
                    group=trace.group,
                    dispatches=trace.dispatches,
                    in_flight=trace.in_flight,
                    max_in_flight=trace.max_in_flight,
                )
                for group, trace in self._groups.items()
            }

    @property
    def peak_concurrent_groups(self) -> int:
        """How many groups ever held in-flight work simultaneously is not
        tracked exactly; this returns the number of groups whose high-water
        mark is nonzero (a cheap overlap witness for reports)."""
        with self._condition:
            return sum(
                1 for trace in self._groups.values() if trace.max_in_flight > 0
            )


class PipelineScheduler(Scheduler):
    """Dependency-driven pipelined walk of an execution plan.

    A drop-in alternative to :class:`~repro.runtime.scheduler.Scheduler`
    whose :meth:`run` dispatches every tile program the moment its
    dependencies complete instead of walking the plan layer by layer.  Tiles
    sharing an AP are chained (an AP executes one tile program at a time -
    sequential rounds, and, for shared placement, layers that time-share
    addresses); everything else is frontier-parallel.  With a
    weight-resident plan every layer owns disjoint APs, so all layers'
    frontiers overlap - the software pipeline the resident placement exists
    for.

    Aggregated counters are byte-identical to the layer-synchronous
    scheduler's (see the module docstring).

    Args:
        accelerator: AP provider and ledger owner (shared with Scheduler).
        executor: executor name/class/instance (``serial`` executes each
            frontier wave inline, pools interleave waves).
        workers: worker count for pool executors.
        backend: functional AP backend; the accelerator's default if omitted.
        max_in_flight: per-AP-group concurrency cap (see
            :class:`InFlightTracker`).
    """

    def __init__(
        self,
        accelerator,
        executor="serial",
        workers: Optional[int] = None,
        backend: Optional[str] = None,
        max_in_flight: Optional[int] = None,
    ) -> None:
        super().__init__(
            accelerator, executor=executor, workers=workers, backend=backend
        )
        self.tracker = InFlightTracker(max_in_flight)

    # ------------------------------------------------------------------
    def run(self, plan: ExecutionPlan) -> PlanExecution:
        """Execute ``plan`` with dependency-driven pipelined dispatch."""
        started = time.perf_counter()
        technology = self.accelerator.config.technology
        columns = plan.lease_columns

        tasks: List[PipelineTask] = []
        last_on_ap: Dict[tuple, Tuple] = {}
        for layer in plan.layers:
            for position, tile in enumerate(layer.tiles):
                key = (layer.layer_index, position)
                address = tuple(tile.address)
                dependency = last_on_ap.get(address)
                tasks.append(
                    PipelineTask(
                        key=key,
                        group=layer.layer_index,
                        fn=_pool_worker,
                        payload=(tile, position, columns, self.backend, technology),
                        depends_on=(dependency,) if dependency is not None else (),
                    )
                )
                last_on_ap[address] = key
        for layer in plan.layers:
            for tile in layer.tiles:
                # Residency accounting at dispatch time, exactly like the
                # layer-synchronous scheduler (pool workers build their APs
                # in other processes).
                self.accelerator.account_tile_dispatch(tile)

        with telemetry.span(
            "pipeline.run",
            tasks=len(tasks),
            executor=self.executor.name,
            backend=str(self.backend),
        ):
            results = self.run_graph(tasks)

        execution = PlanExecution(
            name=plan.name,
            executor=self.executor.name,
            backend=str(self.backend),
            workers=getattr(self.executor, "workers", 1),
            mode="pipelined",
        )
        for layer in plan.layers:
            tile_results = [
                results[(layer.layer_index, position)]
                for position in range(len(layer.tiles))
            ]
            movement = charge_adder_tree_movement(self.accelerator, layer)
            execution.layers.append(
                aggregate_layer_run(
                    layer,
                    [
                        (tile, result.stats, 0)
                        for tile, result in zip(layer.tiles, tile_results)
                    ],
                    self.accelerator,
                    movement,
                    checksum=sum(result.checksum for result in tile_results),
                    wall_time_s=sum(result.duration_s for result in tile_results),
                )
            )
        execution.wall_time_s = time.perf_counter() - started
        return execution

    # ------------------------------------------------------------------
    def run_graph(
        self,
        tasks: Sequence[PipelineTask],
        lease: Optional[LeaseFn] = None,
    ) -> Dict[Tuple, Any]:
        """Dispatch a task DAG through the executor's async interface.

        Maintains the topological frontier: a task is submitted as soon as
        every key in its ``depends_on`` has completed *and* its AP group is
        below the in-flight cap.  Ties are broken by sorted task key, so
        serial execution order is deterministic.

        Returns:
            ``{task.key: result}`` for every task.

        Raises:
            ConfigurationError: on duplicate keys or dependencies on unknown
                keys.
            SimulationError: if the graph contains a dependency cycle.
        """
        by_key: Dict[Tuple, PipelineTask] = {}
        for task in tasks:
            if task.key in by_key:
                raise ConfigurationError(f"duplicate pipeline task key {task.key!r}")
            by_key[task.key] = task
        dependents: Dict[Tuple, List[PipelineTask]] = {}
        blockers: Dict[Tuple, int] = {}
        for task in by_key.values():
            count = 0
            for dependency in task.depends_on:
                if dependency not in by_key:
                    raise ConfigurationError(
                        f"pipeline task {task.key!r} depends on unknown key "
                        f"{dependency!r}"
                    )
                dependents.setdefault(dependency, []).append(task)
                count += 1
            blockers[task.key] = count

        ready: List[Tuple] = []  # heap of dispatchable task keys
        for task in by_key.values():
            if blockers[task.key] == 0:
                heapq.heappush(ready, task.key)
        deferred: Dict[Hashable, List[Tuple]] = {}  # group -> keys at cap
        results: Dict[Tuple, Any] = {}
        first_error: Optional[BaseException] = None
        # Completed (task, future) pairs arrive through one queue fed by
        # done-callbacks, so reaping a completion is O(1) however many tasks
        # are in flight (no re-registration of waiters per wave).
        completions: "queue.SimpleQueue" = queue.SimpleQueue()
        in_flight = 0

        def submit_frontier() -> int:
            submitted = 0
            blocked: List[Tuple] = []
            while ready:
                key = heapq.heappop(ready)
                task = by_key[key]
                if not self.tracker.try_enter(task.group):
                    blocked.append(key)
                    continue
                telemetry.instant(
                    "pipeline.frontier_pop",
                    group=str(task.group),
                    key=str(task.key),
                )
                futures = self.executor.submit_tasks(
                    task.fn, [task.payload], lease=lease
                )
                submitted += 1
                futures[0].add_done_callback(
                    lambda future, task=task: completions.put((task, future))
                )
            for key in blocked:
                deferred.setdefault(by_key[key].group, []).append(key)
            return submitted

        try:
            in_flight += submit_frontier()
            while in_flight:
                task, future = completions.get()
                in_flight -= 1
                self.tracker.exit(task.group)
                # A freed slot may unblock tasks deferred at this group's cap.
                waiting = deferred.pop(task.group, None)
                if waiting:
                    for key in waiting:
                        heapq.heappush(ready, key)
                try:
                    results[task.key] = future.result()
                except BaseException as error:  # noqa: BLE001 - re-raised
                    if first_error is None:
                        first_error = error
                else:
                    for dependent in dependents.get(task.key, ()):
                        blockers[dependent.key] -= 1
                        if blockers[dependent.key] == 0 and first_error is None:
                            heapq.heappush(ready, dependent.key)
                if first_error is None:
                    in_flight += submit_frontier()
        finally:
            # Exception safety: never leave workers running against a
            # half-aggregated run.
            while in_flight:
                task, _ = completions.get()
                in_flight -= 1
                self.tracker.exit(task.group)
        if first_error is not None:
            raise first_error
        if len(results) != len(by_key):
            unreached = sorted(set(by_key) - set(results))
            raise SimulationError(
                f"pipeline task graph contains a dependency cycle; "
                f"unreachable keys: {unreached[:8]}"
            )
        return results
