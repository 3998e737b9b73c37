"""Per-layer self-time clocks, patched around the program's public calls.

The traced run measures every layer from outside the program.  Each entry
of :data:`PATCHES` names a public function (or method) *where its caller
looks it up* - ``repro.core.compiler`` imports ``schedule_dfg`` by name, so
the patch goes on ``repro.core.compiler.schedule_dfg``, not on
``repro.core.scheduling``.  The wrapper times the call in CPU seconds of
the calling thread and subtracts the time of wrapped calls nested inside it
on the same thread, so every layer key accumulates *self* time and the keys
add up without double counting.  Thread CPU time, not wall time, keeps the
parts additive when requests overlap on several threads (a thread waiting
for the interpreter lock accrues none).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: ``(module, attribute, layer key)``.  A dotted attribute patches a class
#: member; several names may share one key (their self times add up).
PATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.session.session", "compile_model", "core.compile"),
    ("repro.core.compiler", "eliminate_common_subexpressions", "core.cse"),
    ("repro.core.compiler", "schedule_dfg", "core.schedule"),
    ("repro.core.compiler", "generate_program", "core.codegen"),
    ("repro.session.session", "build_execution_plan", "runtime.build_plan"),
    ("repro.inference.engine", "aggregate_layer_run", "runtime.aggregate"),
    ("repro.runtime.executors", "Executor.map_layer", "runtime.map_layer"),
    ("repro.runtime.executors", "SerialExecutor.map_tasks", "runtime.map_layer"),
    ("repro.runtime.executors", "Executor.submit_tasks", "runtime.map_layer"),
    ("repro.arch.accelerator", "Accelerator.deploy_plan", "arch.deploy"),
    ("repro.inference.engine", "BatchedInference.__init__", "inference.engine_init"),
    ("repro.inference.engine", "wave_staging_plan", "ap.wave_lower"),
    ("repro.ap.backends.batched", "compile_program_wave", "ap.wave_lower"),
    ("repro.inference.activations", "quantize_batch", "inference.quantize"),
    ("repro.inference.engine", "lower_batch_planes", "inference.lower"),
    ("repro.inference.engine", "lower_batch_rows", "inference.lower"),
    ("repro.inference.engine", "lower_input_rows", "inference.lower"),
    ("repro.inference.engine", "execute_program_wave", "ap.wave"),
)

#: Layer keys timed during set-up (Session construction, compile, deploy).
SETUP_KEYS = (
    "core.compile",
    "core.cse",
    "core.schedule",
    "core.codegen",
    "runtime.build_plan",
    "arch.deploy",
    "inference.engine_init",
    "ap.wave_lower",
)

#: The key whose results are tallied as wave instances / declines.
WAVE_KEY = "ap.wave"


class LayerClock:
    """Self-time and call accumulators for the patched layer functions."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Instances executed by accepted waves, and waves that declined.
        self.wave_instances = 0
        self.wave_declines = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def snapshot(self) -> Dict[str, object]:
        """A copy of every accumulator (subtract two to get a phase)."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "wave_instances": self.wave_instances,
                "wave_declines": self.wave_declines,
            }

    def _timed(self, key: str, fn: Callable) -> Callable:
        clock = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack: List[float] = clock._local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            returned: list = []
            start = time.thread_time()
            try:
                result = fn(*args, **kwargs)
                returned.append(result)
                return result
            finally:
                elapsed = time.thread_time() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with clock._lock:
                    clock.self_s[key] += elapsed - nested
                    clock.calls[key] += 1
                    if key == WAVE_KEY and returned:
                        if returned[0] is None:
                            clock.wave_declines += 1
                        else:
                            clock.wave_instances += len(returned[0])

        return timed

    @contextmanager
    def installed(self) -> Iterator[List[Tuple[object, str, object]]]:
        """Patch every name in :data:`PATCHES` for the ``with`` block.

        Yields the ``(owner, name, original)`` list; on exit every original
        is put back, in reverse order, even if the block raised.
        """
        saved: List[Tuple[object, str, object]] = []
        try:
            for module_name, attribute, key in PATCHES:
                owner: object = importlib.import_module(module_name)
                *path, name = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[name]
                setattr(owner, name, self._timed(key, original))
                saved.append((owner, name, original))
            yield saved
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)


def all_restored(saved: List[Tuple[object, str, object]]) -> bool:
    """Whether every patched name is its original object again."""
    return all(vars(owner)[name] is original for owner, name, original in saved)


def phase(before: Dict[str, object], after: Dict[str, object]) -> Dict[str, object]:
    """Accumulator deltas between two :meth:`LayerClock.snapshot` calls."""
    keys = {key for _, _, key in PATCHES}
    return {
        "self_s": {
            key: after["self_s"].get(key, 0.0) - before["self_s"].get(key, 0.0)
            for key in keys
        },
        "calls": {
            key: after["calls"].get(key, 0) - before["calls"].get(key, 0)
            for key in keys
        },
        "wave_instances": after["wave_instances"] - before["wave_instances"],
        "wave_declines": after["wave_declines"] - before["wave_declines"],
    }
