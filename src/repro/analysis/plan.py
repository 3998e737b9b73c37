"""Static verification of execution plans.

The plan verifier proves an :class:`~repro.runtime.plan.ExecutionPlan`
well-formed *before* anything executes or pins CAM state: every
:data:`~repro.arch.accelerator.APAddress` inside the accelerator hierarchy,
resident layers on disjoint AP groups, tile coordinates unique and
consistent, and row/column demands within the CAM geometry.  Findings are
:class:`~repro.analysis.diagnostics.Diagnostic` values with stable
``RPA2xx`` codes and layer/tile locations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

from repro.analysis.diagnostics import VerificationReport
from repro.analysis.program import verify_tile_program

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.arch.accelerator import Accelerator, APAddress
    from repro.core.compiler import CompiledModel
    from repro.runtime.plan import ExecutionPlan


def verify_execution_plan(
    plan: "ExecutionPlan",
    accelerator: Optional["Accelerator"] = None,
    compiled: Optional["CompiledModel"] = None,
    report: Optional[VerificationReport] = None,
    check_programs: bool = True,
) -> VerificationReport:
    """Statically verify one execution plan end to end.

    Args:
        plan: the plan to verify.
        accelerator: hardware the plan will run on; when omitted the plan's
            own recorded architecture bounds the address space.
        compiled: the compiled model the plan was built from; when given,
            resident plans are additionally checked against
            :func:`~repro.runtime.plan.resident_aps_required` (``RPA205``).
        report: report to append to; a fresh one is created when omitted.
        check_programs: also abstractly interpret every tile's AP programs
            (the ``RPA1xx`` family); disable for address-only checks.

    Returns:
        The report; callers pick
        :meth:`~repro.analysis.diagnostics.VerificationReport.describe` or
        :meth:`~repro.analysis.diagnostics.VerificationReport.raise_for_errors`.
    """
    report = report if report is not None else VerificationReport(subject=f"plan {plan.name!r}")
    architecture = accelerator.config if accelerator is not None else plan.architecture

    # --- RPA207: column demand against the CAM word width -----------------
    if plan.required_columns > architecture.ap.columns:
        report.add(
            "RPA207",
            f"plan needs {plan.required_columns} CAM columns but the "
            f"architecture provides {architecture.ap.columns}",
        )

    seen_coordinates: Dict[Tuple[int, int, int], str] = {}
    addresses_by_layer: Dict[int, Set["APAddress"]] = {}
    rows_by_address: Dict["APAddress", int] = {}
    for layer in plan.layers:
        layer_addresses = addresses_by_layer.setdefault(layer.layer_index, set())
        for tile in layer.tiles:
            coordinates = (tile.layer_index, tile.row_tile, tile.channel_group)

            # --- RPA208: coordinate uniqueness and consistency ------------
            if tile.layer_index != layer.layer_index or tile.layer_name != layer.name:
                report.add(
                    "RPA208",
                    f"tile carries layer identity ({tile.layer_index}, "
                    f"{tile.layer_name!r}) but sits in layer "
                    f"({layer.layer_index}, {layer.name!r})",
                    layer=layer.name,
                    tile=coordinates,
                )
            if coordinates in seen_coordinates:
                report.add(
                    "RPA208",
                    f"duplicate tile coordinates; already used by layer "
                    f"{seen_coordinates[coordinates]!r}",
                    layer=tile.layer_name,
                    tile=coordinates,
                )
            else:
                seen_coordinates[coordinates] = tile.layer_name

            # --- RPA201: address inside the accelerator hierarchy ---------
            bank, tile_index, ap = tile.address
            if not (
                0 <= bank < architecture.num_banks
                and 0 <= tile_index < architecture.tiles_per_bank
                and 0 <= ap < architecture.aps_per_tile
            ):
                report.add(
                    "RPA201",
                    f"address {tuple(tile.address)} outside the "
                    f"{architecture.num_banks}x{architecture.tiles_per_bank}"
                    f"x{architecture.aps_per_tile} hierarchy",
                    layer=tile.layer_name,
                    tile=coordinates,
                )

            layer_addresses.add(tile.address)

            # --- RPA209: one resident AP, one row geometry ----------------
            if plan.placement == "resident":
                previous_rows = rows_by_address.get(tile.address)
                if previous_rows is not None and previous_rows != tile.rows:
                    report.add(
                        "RPA209",
                        f"AP {tuple(tile.address)} holds tiles of "
                        f"{previous_rows} and {tile.rows} rows; a pinned "
                        f"lease has one row geometry",
                        layer=tile.layer_name,
                        tile=coordinates,
                    )
                else:
                    rows_by_address[tile.address] = tile.rows

            # --- RPA1xx + RPA206: the tile's programs and row demand ------
            if check_programs:
                verify_tile_program(tile, architecture, report)
            elif not (1 <= tile.rows <= architecture.ap.rows):
                report.add(
                    "RPA206",
                    f"tile activates {tile.rows} rows but the CAM provides "
                    f"{architecture.ap.rows}",
                    layer=tile.layer_name,
                    tile=coordinates,
                )

    # --- RPA202: resident layers own disjoint AP groups -------------------
    if plan.placement == "resident":
        owners: Dict["APAddress", int] = {}
        layer_names = {layer.layer_index: layer.name for layer in plan.layers}
        for layer_index in sorted(addresses_by_layer):
            for address in sorted(addresses_by_layer[layer_index]):
                if address in owners:
                    report.add(
                        "RPA202",
                        f"AP {tuple(address)} is claimed by resident layers "
                        f"{layer_names.get(owners[address], owners[address])!r} "
                        f"and {layer_names.get(layer_index, layer_index)!r}",
                        layer=layer_names.get(layer_index),
                    )
                else:
                    owners[address] = layer_index

        # --- RPA205: usage consistent with resident_aps_required ----------
        if compiled is not None:
            from repro.runtime.plan import resident_aps_required

            required = resident_aps_required(compiled)
            used = len({a for group in addresses_by_layer.values() for a in group})
            if used > required:
                report.add(
                    "RPA205",
                    f"plan occupies {used} resident APs but "
                    f"resident_aps_required predicts at most {required}; the "
                    f"sizing contract auto-size relies on is broken",
                )
    return report
