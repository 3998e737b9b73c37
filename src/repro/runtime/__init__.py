"""Unified execution-plan runtime: scheduler + parallel functional simulation.

This package turns the repo's compile -> allocate -> execute stages into one
explicit pipeline:

1. :func:`~repro.runtime.plan.build_execution_plan` joins a
   :class:`~repro.core.compiler.CompiledModel` (``emit_programs=True``) with
   an :class:`~repro.arch.allocator.AllocationPlan` into per-AP
   :class:`~repro.runtime.plan.TileProgram` objects addressed by
   ``(bank, tile, ap)``.
2. A :class:`~repro.runtime.scheduler.Scheduler` walks the plan layer by
   layer and dispatches each layer's tiles to a pluggable executor
   (``serial`` / ``parallel`` process pool).
3. Per-tile :class:`~repro.cam.stats.CAMStats` are reduced with
   order-independent reductions, so parallel output is byte-identical to
   serial output, and interconnect traffic is charged through the
   accelerator's :class:`~repro.arch.interconnect.InterconnectModel`.

The :class:`~repro.runtime.scheduler.Scheduler` is the one synthetic-input
path: seeded tile inputs, exact counters.  It runs sampled plans
(``slices``/``layers``), which the real-activation inference engine
(:mod:`repro.inference.engine`) cannot.  ``python -m repro run`` reaches it
through :meth:`repro.session.Session.run`; library code can call
:meth:`repro.arch.accelerator.Accelerator.execute_plan` directly.
"""

from repro.runtime.executors import (
    Executor,
    ExecutorSpec,
    ParallelExecutor,
    SerialExecutor,
    TileResult,
    available_executors,
    resolve_executor,
)
from repro.runtime.plan import (
    ExecutionPlan,
    PlannedLayer,
    TileProgram,
    build_execution_plan,
    derive_tile_seed,
    resident_aps_required,
)
from repro.runtime.scheduler import LayerRunResult, PlanExecution, Scheduler


__all__ = [
    "Executor",
    "ExecutorSpec",
    "SerialExecutor",
    "ParallelExecutor",
    "TileResult",
    "available_executors",
    "resolve_executor",
    "ExecutionPlan",
    "PlannedLayer",
    "TileProgram",
    "build_execution_plan",
    "derive_tile_seed",
    "resident_aps_required",
    "LayerRunResult",
    "PlanExecution",
    "Scheduler",
]
