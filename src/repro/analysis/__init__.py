"""Static analysis for the repro stack: verifiers and concurrency lints.

Three checkers, one diagnostic vocabulary (stable ``RPA*`` codes, see
:mod:`repro.analysis.diagnostics`):

* :mod:`repro.analysis.program` - abstract interpretation of
  :class:`~repro.ap.isa.APProgram` / runtime tile programs against the CAM
  geometry (``RPA1xx``);
* :mod:`repro.analysis.plan` - whole-plan verification of
  :class:`~repro.runtime.plan.ExecutionPlan`: addresses, resident AP groups,
  tile coordinates and CAM geometry (``RPA2xx``);
* :mod:`repro.analysis.lint_locks` - AST lint of the source tree for lock
  and executor discipline (``RPA3xx``).

Everything is surfaced through ``repro check`` and the ``verify=True`` hooks
of :func:`repro.runtime.plan.build_execution_plan` /
:meth:`repro.session.session.Session.deploy`.
"""

from repro.analysis.diagnostics import (
    CODES,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Diagnostic,
    VerificationReport,
)
from repro.analysis.lint_locks import CleanupIndex, lint_file, lint_source, lint_tree
from repro.analysis.plan import verify_execution_plan
from repro.analysis.program import (
    verify_all_luts,
    verify_lut,
    verify_program,
    verify_tile_program,
)

__all__ = [
    "CODES",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "Diagnostic",
    "VerificationReport",
    "CleanupIndex",
    "lint_file",
    "lint_source",
    "lint_tree",
    "verify_execution_plan",
    "verify_all_luts",
    "verify_lut",
    "verify_program",
    "verify_tile_program",
]
