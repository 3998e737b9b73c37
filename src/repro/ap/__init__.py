"""Associative processor (AP) substrate.

Implements the execution model of paper Sec. II-B and III: bulk-bitwise,
bit-serial / word-parallel arithmetic on a CAM array, driven by lookup tables
(LUTs) of masked-search and tagged-write phases (paper Table I).

Public pieces:

* :mod:`repro.ap.lut` - the Table-I LUTs for in-place / out-of-place addition
  and subtraction, including validation helpers.
* :mod:`repro.ap.isa` - the AP instruction set (column regions, opcodes,
  instructions, programs).
* :mod:`repro.ap.cost` - per-instruction phase/search/write/shift cost model
  shared by the functional simulator and the analytical performance model.
* :mod:`repro.ap.core` - the functional AP that executes programs on a
  :class:`~repro.cam.array.CAMArray` and produces bit-exact results.
* :mod:`repro.ap.backends` - pluggable execution backends: the bit-exact
  ``reference`` interpreter and the ``batched`` NumPy engine, both
  producing identical results and identical event counters.
"""

from repro.ap.lut import (
    LookupTable,
    LUTEntry,
    inplace_add_lut,
    inplace_sub_lut,
    outofplace_add_lut,
    outofplace_sub_lut,
    get_lut,
    validate_lut,
)
from repro.ap.isa import APInstruction, APOpcode, APProgram, ColumnRegion
from repro.ap.cost import InstructionCost, instruction_cost, program_cost
from repro.ap.backends import (
    DEFAULT_BACKEND,
    ExecutionBackend,
    ReferenceBackend,
    available_backends,
    register_backend,
)
from repro.ap.core import AssociativeProcessor

__all__ = [
    "LookupTable",
    "LUTEntry",
    "inplace_add_lut",
    "inplace_sub_lut",
    "outofplace_add_lut",
    "outofplace_sub_lut",
    "get_lut",
    "validate_lut",
    "APInstruction",
    "APOpcode",
    "APProgram",
    "ColumnRegion",
    "InstructionCost",
    "instruction_cost",
    "program_cost",
    "AssociativeProcessor",
    "DEFAULT_BACKEND",
    "ExecutionBackend",
    "ReferenceBackend",
    "available_backends",
    "register_backend",
]
