"""Adversarial corpus for the plan verifier (RPA2xx codes).

Every malformed fixture starts from a *real* plan built by
``build_execution_plan`` and corrupts exactly one property, so each test
pins one ``RPA*`` code to one well-defined defect.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import verify_execution_plan
from repro.arch.accelerator import Accelerator
from repro.arch.allocator import LayerDemand, allocate_layer
from repro.arch.config import APConfig, ArchitectureConfig
from repro.errors import AnalysisError, CapacityError
from repro.runtime.plan import build_execution_plan


def _unused_address(plan, accelerator):
    used = {tile.address for layer in plan.layers for tile in layer.tiles}
    for address in accelerator.ap_addresses():
        if address not in used:
            return address
    raise AssertionError("fixture plan exhausts the accelerator")


class TestWellFormedPlans:
    def test_fresh_plans_verify_clean(self, compiled_pair, accelerator):
        for placement in ("shared", "resident"):
            plan = build_execution_plan(
                compiled_pair, accelerator, placement=placement
            )
            report = verify_execution_plan(
                plan, accelerator, compiled=compiled_pair
            )
            assert report.ok and not report.diagnostics, report.describe()

    def test_verify_hook_accepts_fresh_plans(self, compiled_pair, accelerator):
        plan = build_execution_plan(
            compiled_pair, accelerator, placement="resident", verify=True
        )
        assert plan.num_tiles > 0


class TestAddressing:
    def test_address_outside_hierarchy_is_rpa201(self, resident_plan, accelerator):
        layer = resident_plan.layers[0]
        layer.tiles[0] = dataclasses.replace(layer.tiles[0], address=(99, 0, 0))
        report = verify_execution_plan(resident_plan, accelerator)
        assert "RPA201" in report.codes()

    def test_resident_group_overlap_is_rpa202(self, resident_plan, accelerator):
        first = resident_plan.layers[0].tiles[0]
        second_layer = resident_plan.layers[1]
        second_layer.tiles[0] = dataclasses.replace(
            second_layer.tiles[0], address=first.address
        )
        report = verify_execution_plan(resident_plan, accelerator)
        assert "RPA202" in report.codes()

    def test_shared_placement_may_reuse_addresses(self, shared_plan, accelerator):
        report = verify_execution_plan(shared_plan, accelerator)
        assert "RPA202" not in report.codes()

    def test_duplicate_tile_coordinates_is_rpa208(self, resident_plan, accelerator):
        layer = resident_plan.layers[0]
        if len(layer.tiles) < 2:
            layer.tiles.append(layer.tiles[0])
        else:
            reference = layer.tiles[0]
            layer.tiles[1] = dataclasses.replace(
                layer.tiles[1],
                row_tile=reference.row_tile,
                channel_group=reference.channel_group,
            )
        report = verify_execution_plan(resident_plan, accelerator)
        assert "RPA208" in report.codes()

    def test_mismatched_layer_identity_is_rpa208(self, resident_plan, accelerator):
        layer = resident_plan.layers[0]
        layer.tiles[0] = dataclasses.replace(layer.tiles[0], layer_name="impostor")
        report = verify_execution_plan(resident_plan, accelerator)
        assert "RPA208" in report.codes()

    def test_mixed_row_geometry_on_resident_ap_is_rpa209(
        self, resident_plan, accelerator
    ):
        layer = resident_plan.layers[0]
        anchor = layer.tiles[0]
        layer.tiles.append(
            dataclasses.replace(
                anchor,
                row_tile=anchor.row_tile + 100,
                rows=max(1, anchor.rows - 1),
            )
        )
        report = verify_execution_plan(resident_plan, accelerator)
        assert "RPA209" in report.codes()

    def test_resident_overuse_is_rpa205(self, resident_plan, compiled_pair, accelerator):
        layer = resident_plan.layers[0]
        anchor = layer.tiles[0]
        layer.tiles.append(
            dataclasses.replace(
                anchor,
                address=_unused_address(resident_plan, accelerator),
                row_tile=anchor.row_tile + 100,
            )
        )
        report = verify_execution_plan(
            resident_plan, accelerator, compiled=compiled_pair
        )
        assert "RPA205" in report.codes()

    def test_column_overflow_is_rpa207(self, compiled_pair):
        narrow = Accelerator(
            ArchitectureConfig(ap=APConfig(rows=256, columns=8, reserved_columns=2))
        )
        plan = build_execution_plan(compiled_pair, placement="shared")
        report = verify_execution_plan(plan, narrow, check_programs=False)
        assert "RPA207" in report.codes()


class TestVerifyHook:
    def test_corrupted_plan_fails_raise_for_errors(self, resident_plan, accelerator):
        layer = resident_plan.layers[0]
        layer.tiles[0] = dataclasses.replace(layer.tiles[0], address=(99, 0, 0))
        report = verify_execution_plan(resident_plan, accelerator)
        with pytest.raises(AnalysisError) as excinfo:
            report.raise_for_errors()
        assert any(
            getattr(diagnostic, "code", None) == "RPA201"
            for diagnostic in excinfo.value.diagnostics
        )

    def test_session_deploy_with_verify(self, compiled_pair):
        from repro.session import Session, SessionConfig

        config = SessionConfig(model="vgg9", width=0.125, slices=1, verify=True)
        with Session(config) as session:
            session.compile().deploy()
            assert session.plan is not None


class TestStructuredCapacityErrors:
    def test_allocator_carries_requested_and_available(self):
        demand = LayerDemand(name="wide", row_tiles=5, channel_groups=1)
        with pytest.raises(CapacityError) as excinfo:
            allocate_layer(demand, available_aps=2)
        assert excinfo.value.requested == 5
        assert excinfo.value.available == 2
        assert excinfo.value.resident_aps_required is None

    def test_resident_oversubscription_carries_all_fields(self, compiled_pair):
        single_ap = Accelerator(
            ArchitectureConfig(aps_per_tile=1, tiles_per_bank=1, num_banks=1)
        )
        with pytest.raises(CapacityError) as excinfo:
            build_execution_plan(compiled_pair, single_ap, placement="resident")
        error = excinfo.value
        assert error.resident_aps_required is not None
        assert error.requested is not None and error.available == 1
        # The message keeps the machine-readable hint for log scrapers.
        assert f"resident_aps_required={error.resident_aps_required}" in str(error)
