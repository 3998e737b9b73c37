"""Cross-backend equivalence: batched vs. vectorized vs. reference execution.

The contract of :mod:`repro.ap.backends` is that every backend leaves the
CAM in a byte-identical state and accumulates identical
:class:`~repro.cam.stats.CAMStats` counters.  These tests enforce it with a
deterministic opcode matrix, targeted edge cases (sign extension, narrow
extra destinations, partial rows, fallback layouts) and a randomized
program fuzz.  The wave tests additionally pin the layer-level contract of
the ``batched`` backend: :func:`~repro.ap.backends.batched.
execute_program_wave` either reproduces per-instance execution byte for
byte or declines (returns ``None``) so the caller falls back.
"""

import numpy as np
import pytest

from repro.ap.backends import (
    DEFAULT_BACKEND,
    BatchedBackend,
    ReferenceBackend,
    VectorizedBackend,
    available_backends,
    create_backend,
    register_backend,
    resolve_backend,
)
from repro.ap.backends.batched import (
    StagedWaveInputs,
    execute_program_wave,
    wave_staging_plan,
)
from repro.ap.backends.harness import (
    compare_backends,
    random_inputs,
    random_program,
)
from repro.ap.backends.vectorized import lut_truth_matrix
from repro.ap.core import AssociativeProcessor
from repro.ap.isa import APInstruction, APOpcode, APProgram, ColumnRegion
from repro.ap.lut import all_luts, simulate_lut_passes
from repro.errors import ConfigurationError
from repro.rtm.timing import RTMTechnology


def run_both(program, inputs, rows=16, columns=16):
    comparison = compare_backends(program, inputs, rows=rows, columns=columns)
    assert comparison.equivalent, comparison.describe()
    return comparison


def single_instruction_program(instruction, input_regions, output_regions):
    program = APProgram(name="unit", carry_column=0)
    program.input_columns = input_regions
    program.output_columns = output_regions
    program.append(instruction)
    return program


class TestRegistry:
    def test_available_backends(self):
        assert "reference" in available_backends()
        assert "vectorized" in available_backends()
        assert "batched" in available_backends()
        # The fast backend is the default; the interpreter stays the
        # ground truth and can be forced via REPRO_AP_BACKEND (which CI
        # uses for a full-suite ground-truth run).
        import os

        expected = os.environ.get("REPRO_AP_BACKEND", "").strip() or "vectorized"
        assert DEFAULT_BACKEND == expected

    def test_resolve_by_name_and_class(self):
        assert resolve_backend("vectorized") is VectorizedBackend
        assert resolve_backend("batched") is BatchedBackend
        assert resolve_backend(ReferenceBackend) is ReferenceBackend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("warp-drive")
        with pytest.raises(ConfigurationError):
            AssociativeProcessor(rows=4, columns=4, backend="warp-drive")

    def test_register_requires_name(self):
        class Nameless(ReferenceBackend):
            name = "abstract"

        with pytest.raises(ConfigurationError):
            register_backend(Nameless)

    def test_create_backend_binds_array(self):
        ap = AssociativeProcessor(rows=4, columns=4, backend="vectorized")
        assert ap.backend.name == "vectorized"
        assert ap.backend.array is ap.array
        backend = create_backend("reference", ap.array, 0)
        assert backend.array is ap.array


class TestTruthTensors:
    @pytest.mark.parametrize("lut", all_luts(), ids=lambda lut: lut.name)
    def test_truth_matrix_matches_pass_simulation(self, lut):
        """Each truth-tensor row reproduces the firing passes of one state."""
        matrix = lut_truth_matrix(lut.kind, lut.inplace)
        assert matrix.shape == (8, len(lut.entries))
        for state in range(8):
            carry, b, a = (state >> 2) & 1, (state >> 1) & 1, state & 1
            # Re-simulate and count matches independently.
            state_carry, state_b, state_r = carry, b, 0
            fired = []
            for entry in lut.entries:
                if (state_carry, state_b, a) == entry.search:
                    fired.append(1)
                    if lut.inplace:
                        state_carry, state_b = entry.write
                    else:
                        state_carry, state_r = entry.write
                else:
                    fired.append(0)
            assert list(matrix[state]) == fired
            # And the final state agrees with the ordered pass simulation.
            got_carry, got_result = simulate_lut_passes(lut, carry, b, a)
            assert (got_carry, got_result) == (
                state_carry,
                state_b if lut.inplace else state_r,
            )


class TestOpcodeMatrix:
    """Every opcode/placement combination, field-by-field equivalence."""

    @pytest.mark.parametrize("kind", ["add", "sub"])
    @pytest.mark.parametrize("inplace", [False, True])
    @pytest.mark.parametrize("width", [1, 4, 9])
    def test_arithmetic(self, rng, kind, inplace, width):
        a = ColumnRegion(column=1, width=width)
        b = ColumnRegion(column=2, width=width)
        if inplace:
            dest = b
            opcode = APOpcode.ADD_INPLACE if kind == "add" else APOpcode.SUB_INPLACE
        else:
            dest = ColumnRegion(column=3, width=width)
            opcode = (
                APOpcode.ADD_OUTOFPLACE if kind == "add" else APOpcode.SUB_OUTOFPLACE
            )
        program = single_instruction_program(
            APInstruction(opcode=opcode, dest=dest, src_a=a, src_b=b),
            {"a": a, "b": b},
            {"y": dest},
        )
        inputs = random_inputs(program, 16, rng)
        run_both(program, inputs)

    def test_inplace_add_overwriting_src_a(self, rng):
        """The commutative swap path (dest == src_a) stays equivalent."""
        a = ColumnRegion(column=1, width=6)
        b = ColumnRegion(column=2, width=6)
        program = single_instruction_program(
            APInstruction(opcode=APOpcode.ADD_INPLACE, dest=a, src_a=a, src_b=b),
            {"a": a, "b": b},
            {"y": a},
        )
        run_both(program, random_inputs(program, 16, rng))

    def test_sign_extended_narrow_source(self, rng):
        narrow = ColumnRegion(column=1, width=3)
        wide = ColumnRegion(column=2, width=9)
        dest = ColumnRegion(column=3, width=9)
        program = single_instruction_program(
            APInstruction(
                opcode=APOpcode.SUB_OUTOFPLACE, dest=dest, src_a=narrow, src_b=wide
            ),
            {"a": narrow, "b": wide},
            {"y": dest},
        )
        run_both(program, random_inputs(program, 16, rng))

    def test_multi_destination_write(self, rng):
        a = ColumnRegion(column=1, width=5)
        b = ColumnRegion(column=2, width=5)
        dest = ColumnRegion(column=3, width=6)
        extra = ColumnRegion(column=4, width=6, domain_offset=2)
        program = single_instruction_program(
            APInstruction(
                opcode=APOpcode.ADD_OUTOFPLACE,
                dest=dest,
                src_a=a,
                src_b=b,
                extra_dests=(extra,),
            ),
            {"a": a, "b": b},
            {"y": dest, "y2": extra},
        )
        run_both(program, random_inputs(program, 16, rng))

    def test_narrow_extra_destination_keeps_stale_bits(self, rng):
        """Extra dests narrower than the instruction expose stale-bit rules."""
        a = ColumnRegion(column=1, width=5)
        b = ColumnRegion(column=2, width=5)
        dest = ColumnRegion(column=3, width=9)
        extra = ColumnRegion(column=4, width=3)
        seed_extra = APInstruction(
            opcode=APOpcode.COPY, dest=ColumnRegion(column=4, width=9), src_a=b
        )
        program = APProgram(name="stale", carry_column=0)
        program.input_columns = {"a": a, "b": b}
        program.output_columns = {"y": dest}
        program.append(seed_extra)  # leave stale bits above the extra region
        program.append(
            APInstruction(
                opcode=APOpcode.SUB_OUTOFPLACE,
                dest=dest,
                src_a=a,
                src_b=b,
                extra_dests=(extra,),
            )
        )
        run_both(program, random_inputs(program, 16, rng))

    @pytest.mark.parametrize("widths", [(5, 5), (3, 7), (9, 4)])
    def test_copy(self, rng, widths):
        src_width, dest_width = widths
        src = ColumnRegion(column=1, width=src_width)
        dest = ColumnRegion(column=2, width=dest_width)
        program = single_instruction_program(
            APInstruction(opcode=APOpcode.COPY, dest=dest, src_a=src),
            {"x": src},
            {"y": dest},
        )
        run_both(program, random_inputs(program, 16, rng))

    def test_clear(self, rng):
        region = ColumnRegion(column=1, width=6, domain_offset=1)
        program = single_instruction_program(
            APInstruction(opcode=APOpcode.CLEAR, dest=region),
            {"x": region},
            {"y": region},
        )
        run_both(program, random_inputs(program, 16, rng))

    def test_partial_rows(self, rng):
        a = ColumnRegion(column=1, width=5)
        b = ColumnRegion(column=2, width=5)
        dest = ColumnRegion(column=3, width=6)
        program = single_instruction_program(
            APInstruction(opcode=APOpcode.ADD_OUTOFPLACE, dest=dest, src_a=a, src_b=b),
            {"a": a, "b": b},
            {"y": dest},
        )
        run_both(program, random_inputs(program, 5, rng), rows=16)


class TestFallbackLayouts:
    """Degenerate layouts route through the embedded interpreter untouched."""

    def test_copy_onto_itself(self, rng):
        region = ColumnRegion(column=1, width=5)
        program = single_instruction_program(
            APInstruction(opcode=APOpcode.COPY, dest=region, src_a=region),
            {"x": region},
            {"y": region},
        )
        run_both(program, random_inputs(program, 8, rng))

    def test_wide_words_fall_back(self, rng):
        a = ColumnRegion(column=1, width=62)
        b = ColumnRegion(column=2, width=62)
        dest = ColumnRegion(column=3, width=62)
        program = single_instruction_program(
            APInstruction(opcode=APOpcode.ADD_OUTOFPLACE, dest=dest, src_a=a, src_b=b),
            {"a": a, "b": b},
            {"y": dest},
        )
        inputs = {
            "a": rng.integers(-(2**40), 2**40, 6),
            "b": rng.integers(-(2**40), 2**40, 6),
        }
        run_both(program, inputs, rows=6)


class TestRandomizedPrograms:
    """Fuzz: whole random programs, every observable compared."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_program_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        num_instructions = int(rng.integers(8, 32))
        columns = int(rng.integers(10, 28))
        program = random_program(
            rng, num_instructions=num_instructions, columns=columns, max_width=11
        )
        rows = int(rng.integers(1, 48))
        inputs = random_inputs(program, rows, rng)
        run_both(program, inputs, rows=rows, columns=columns)

    @pytest.mark.parametrize("seed", range(6))
    def test_batched_backend_per_instruction_equivalence(self, seed):
        """The registered ``batched`` backend (per-instruction entry points
        used whenever a wave declines) matches the reference interpreter."""
        rng = np.random.default_rng(1000 + seed)
        program = random_program(rng, num_instructions=16, columns=14, max_width=9)
        rows = int(rng.integers(1, 32))
        inputs = random_inputs(program, rows, rng)
        comparison = compare_backends(
            program, inputs, rows=rows, columns=14, candidate="batched"
        )
        assert comparison.equivalent, comparison.describe()

    def test_vectorized_matches_numpy_semantics(self, rng):
        """End to end: the vectorized AP still computes exact integer math."""
        ap = AssociativeProcessor(rows=32, columns=16, backend="vectorized")
        a = rng.integers(-100, 100, 32)
        b = rng.integers(-100, 100, 32)
        assert np.array_equal(ap.add_vectors(a, b, width=9), a + b)
        assert np.array_equal(ap.sub_vectors(a, b, width=9), a - b)


class TestAcceleratorThreading:
    def test_functional_ap_inherits_backend(self, tiny_architecture):
        from repro.arch.accelerator import Accelerator

        accelerator = Accelerator(config=tiny_architecture, backend="vectorized")
        ap = accelerator.functional_ap((0, 0, 0))
        assert ap.backend.name == "vectorized"

    def test_default_backend_is_the_session_default(self, tiny_architecture):
        from repro.ap.backends import DEFAULT_BACKEND
        from repro.arch.accelerator import Accelerator

        accelerator = Accelerator(config=tiny_architecture)
        ap = accelerator.functional_ap((0, 0, 0))
        assert ap.backend.name == DEFAULT_BACKEND

    def test_env_override_selects_default(self, monkeypatch):
        from repro.ap import backends as backends_module

        monkeypatch.setenv(backends_module.BACKEND_ENV_VARIABLE, "reference")
        assert backends_module._default_backend() == "reference"
        monkeypatch.setenv(backends_module.BACKEND_ENV_VARIABLE, "no-such")
        with pytest.raises(ConfigurationError):
            backends_module._default_backend()
        monkeypatch.delenv(backends_module.BACKEND_ENV_VARIABLE)
        assert backends_module._default_backend() == "vectorized"


class TestCostModelCrosscheck:
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_crosscheck_consistent(self, backend):
        from repro.perf.model import PerformanceModelConfig, crosscheck_cost_model

        result = crosscheck_cost_model(
            config=PerformanceModelConfig(execution_backend=backend)
        )
        assert result.backend == backend
        assert result.consistent

    def test_backends_measure_identical_events(self):
        from repro.perf.model import PerformanceModelConfig, crosscheck_cost_model

        runs = [
            crosscheck_cost_model(
                config=PerformanceModelConfig(execution_backend=backend)
            )
            for backend in available_backends()
        ]
        measured = {
            (run.measured_search_phases, run.measured_write_phases) for run in runs
        }
        assert len(measured) == 1


def per_instance_wave_baseline(
    programs, inputs_per_instance, rows, columns, backend="vectorized"
):
    """Ground truth of one wave: each instance alone on a fresh AP."""
    results = []
    for instance_inputs in inputs_per_instance:
        ap = AssociativeProcessor(rows=rows, columns=columns, backend=backend)
        outputs_list = []
        checksum = 0
        for program, inputs in zip(programs, instance_inputs):
            outputs = ap.run_program(program, inputs, num_rows=rows)
            converted = {}
            for name in sorted(outputs):
                values = np.asarray(outputs[name], dtype=np.int64)
                checksum += int(values.sum())
                converted[name] = values
            outputs_list.append(converted)
        results.append((ap.reset_stats(), outputs_list, checksum))
    return results


def assert_wave_matches_baseline(wave_results, baseline):
    assert len(wave_results) == len(baseline)
    for got, expected in zip(wave_results, baseline):
        got_stats, got_outputs, got_checksum, stacked = got
        expected_stats, expected_outputs, expected_checksum = expected
        assert got_stats == expected_stats
        assert got_checksum == expected_checksum
        assert len(got_outputs) == len(expected_outputs)
        flat_rows = []
        for got_programs, expected_programs in zip(got_outputs, expected_outputs):
            assert sorted(got_programs) == sorted(expected_programs)
            for name in expected_programs:
                assert np.array_equal(got_programs[name], expected_programs[name])
            for name in sorted(got_programs):
                flat_rows.append(np.asarray(got_programs[name], dtype=np.int64))
        # The stacked matrix is the same data in (program order, sorted-name
        # within program) row order - the bulk-reduction contract.
        assert stacked.shape == (len(flat_rows), len(flat_rows[0]) if flat_rows else 0)
        for row, values in zip(stacked, flat_rows):
            assert np.array_equal(row, values)


def add_tile(width, columns=4):
    """One-add tile: ``y = a + b`` at the given operand width."""
    a = ColumnRegion(column=1, width=width)
    b = ColumnRegion(column=2, width=width)
    dest = ColumnRegion(column=3, width=width)
    program = single_instruction_program(
        APInstruction(opcode=APOpcode.ADD_OUTOFPLACE, dest=dest, src_a=a, src_b=b),
        {"a": a, "b": b},
        {"y": dest},
    )
    return [program], columns


def stage_values(programs, inputs, rows):
    """The host-staged form of per-instance input dicts."""
    values = [
        {
            name: np.stack(
                [
                    np.asarray(instance[program_index][name], dtype=np.int64)
                    for instance in inputs
                ]
            )
            for name in inputs[0][program_index]
        }
        for program_index in range(len(programs))
    ]
    return StagedWaveInputs(len(inputs), rows, values=values)


def region_program(opcode, a, b, dest, extra_dests=()):
    """One arithmetic instruction over hand-placed regions."""
    return single_instruction_program(
        APInstruction(
            opcode=opcode, dest=dest, src_a=a, src_b=b, extra_dests=extra_dests
        ),
        {"a": a, "b": b},
        {"y": dest, **{f"e{index}": extra for index, extra in enumerate(extra_dests)}},
    )


def signed_inputs(program, rows, instances, rng):
    """Per-instance inputs spanning each input region's full signed range,
    with both extremes present."""
    inputs = []
    for _ in range(instances):
        values = random_inputs(program, rows, rng)
        for name, region in program.input_columns.items():
            values[name][0] = -(2 ** (region.width - 1))
            if rows > 1:
                values[name][1] = 2 ** (region.width - 1) - 1
        inputs.append([values])
    return inputs


class TestGeneratedWaves:
    """Seeded random tiles: the wave equals per-instance execution.

    Each block draws 25 tiles of 1-3 ``harness.random_program`` programs
    (adds, subs, copies and clears, with and without extra destinations,
    operands up to 40 bits) over 1-6 instances and 1-40 rows, and checks
    outputs, ``CAMStats``, checksums and the stacked output rows.  Odd
    seeds hand the inputs over in the host-staged form.  The generator
    only emits shapes inside the wave subset, so every tile must run as a
    wave.
    """

    @pytest.mark.parametrize("block", range(8))
    def test_random_tiles_match_per_instance(self, block):
        for seed in range(25 * block, 25 * block + 25):
            rng = np.random.default_rng(7000 + seed)
            columns = int(rng.integers(6, 20))
            max_width = int(rng.integers(2, 41))
            programs = [
                random_program(
                    rng,
                    num_instructions=int(rng.integers(1, 16)),
                    columns=columns,
                    max_width=max_width,
                    extra_dest_probability=float(rng.uniform(0.0, 0.5)),
                    name=f"p{index}",
                )
                for index in range(int(rng.integers(1, 4)))
            ]
            rows = int(rng.integers(1, 41))
            inputs = [
                [random_inputs(program, rows, rng) for program in programs]
                for _ in range(int(rng.integers(1, 7)))
            ]
            wave_inputs = (
                stage_values(programs, inputs, rows) if seed % 2 else inputs
            )
            wave = execute_program_wave(programs, wave_inputs, rows, columns)
            assert wave is not None, f"seed {seed} declined"
            assert_wave_matches_baseline(
                wave, per_instance_wave_baseline(programs, inputs, rows, columns)
            )


class TestWaveExecution:
    """Layer-wave contract: byte-identity to per-instance runs, or decline.

    ``execute_program_wave`` is the mega-kernel entry point the inference
    engine dispatches whole layers through; every
    test here checks it against instances executed one at a time on a fresh
    AP (the exact semantics of pool-worker dispatch).
    """

    def _tile_inputs(self, programs, rows, instances, rng):
        return [
            [random_inputs(program, rows, rng) for program in programs]
            for _ in range(instances)
        ]

    def test_multi_program_wave_matches_per_instance(self, rng):
        """Several programs back to back, several divergent instances."""
        programs = [
            random_program(rng, num_instructions=10, columns=12, max_width=8,
                           name=f"slice{index}")
            for index in range(3)
        ]
        rows = 9
        inputs = self._tile_inputs(programs, rows, instances=4, rng=rng)
        wave = execute_program_wave(programs, inputs, rows, columns=12)
        if wave is None:
            pytest.skip("fuzzed program drew a shape outside the wave subset")
        assert_wave_matches_baseline(
            wave, per_instance_wave_baseline(programs, inputs, rows, 12)
        )

    def test_fuzzed_waves_accept_or_match(self):
        """Across many seeds the wave either declines or is byte-identical -
        and it must accept a healthy share (the compiler-emitted shapes)."""
        accepted = 0
        for seed in range(10):
            rng = np.random.default_rng(2000 + seed)
            columns = int(rng.integers(8, 20))
            programs = [
                random_program(rng, num_instructions=8, columns=columns,
                               max_width=8, name=f"p{index}")
                for index in range(int(rng.integers(1, 4)))
            ]
            rows = int(rng.integers(1, 24))
            inputs = self._tile_inputs(
                programs, rows, instances=int(rng.integers(1, 4)), rng=rng
            )
            wave = execute_program_wave(programs, inputs, rows, columns=columns)
            if wave is None:
                continue
            accepted += 1
            assert_wave_matches_baseline(
                wave, per_instance_wave_baseline(programs, inputs, rows, columns)
            )
        assert accepted >= 5, f"wave accepted only {accepted}/10 fuzzed tiles"

    @pytest.mark.parametrize("width", [8, 30, 34, 60])
    def test_word_widths(self, rng, width):
        """Operand widths up to the 60-bit limit reproduce the interpreter
        exactly, including near the value bounds."""
        programs, columns = add_tile(width)
        rows = 6
        bound = 2 ** (width - 1) - 1
        inputs = []
        for instance in range(3):
            values_a = rng.integers(-bound, bound, rows)
            values_b = rng.integers(-bound // 2, bound // 2, rows)
            values_a[0], values_b[0] = bound // 2, bound // 2 - 1
            inputs.append([{"a": values_a, "b": values_b}])
        wave = execute_program_wave(programs, inputs, rows, columns)
        assert wave is not None
        assert_wave_matches_baseline(
            wave, per_instance_wave_baseline(programs, inputs, rows, columns)
        )

    @pytest.mark.parametrize(
        "opcode",
        [
            APOpcode.ADD_OUTOFPLACE,
            APOpcode.SUB_OUTOFPLACE,
            APOpcode.ADD_INPLACE,
            APOpcode.SUB_INPLACE,
        ],
    )
    def test_regions_ending_at_the_word_top(self, rng, opcode):
        """Regions with ``offset + width == 64`` fill the nanowire word up
        to its top bit (no headroom above the sign)."""
        a = ColumnRegion(column=1, width=20, domain_offset=44)
        b = ColumnRegion(column=2, width=24, domain_offset=40)
        dest = b if opcode.is_inplace else ColumnRegion(
            column=3, width=24, domain_offset=40
        )
        program = region_program(opcode, a, b, dest)
        inputs = signed_inputs(program, rows=7, instances=3, rng=rng)
        wave = execute_program_wave([program], inputs, 7, 4)
        assert wave is not None
        assert_wave_matches_baseline(
            wave, per_instance_wave_baseline([program], inputs, 7, 4, "reference")
        )

    @pytest.mark.parametrize("inplace", [False, True])
    def test_msb_replay_of_negative_narrow_source(self, rng, inplace):
        """A 3-bit source under a 12-bit instruction replays its MSB into
        every higher bit position, like ``ColumnRegion.bit_position``."""
        a = ColumnRegion(column=1, width=3, domain_offset=5)
        b = ColumnRegion(column=2, width=12, domain_offset=1)
        if inplace:
            program = region_program(APOpcode.SUB_INPLACE, a, b, b)
        else:
            program = region_program(
                APOpcode.ADD_OUTOFPLACE,
                a,
                b,
                ColumnRegion(column=3, width=12, domain_offset=2),
                extra_dests=(ColumnRegion(column=4, width=5, domain_offset=0),),
            )
        rows = 6
        inputs = signed_inputs(program, rows, instances=2, rng=rng)
        for instance in inputs:
            instance[0]["a"][:] = [-4, -1, -3, -2, -4, -1]
        wave = execute_program_wave([program], inputs, rows, 5)
        assert wave is not None
        assert_wave_matches_baseline(
            wave, per_instance_wave_baseline([program], inputs, rows, 5, "reference")
        )

    @pytest.mark.parametrize(
        "opcode", [APOpcode.ADD_OUTOFPLACE, APOpcode.SUB_OUTOFPLACE]
    )
    def test_narrow_extra_destination_keeps_unfired_bits(self, rng, opcode):
        """Above a narrow extra destination's own width, only fired bits are
        written: an input loaded there and read back shows which bits the
        instruction's passes touched, row by row."""
        a = ColumnRegion(column=1, width=10, domain_offset=0)
        b = ColumnRegion(column=2, width=10, domain_offset=3)
        dest = ColumnRegion(column=3, width=10, domain_offset=1)
        extra = ColumnRegion(column=4, width=4, domain_offset=2)
        above = ColumnRegion(column=4, width=8, domain_offset=6)
        program = single_instruction_program(
            APInstruction(
                opcode=opcode, dest=dest, src_a=a, src_b=b, extra_dests=(extra,)
            ),
            {"a": a, "b": b, "h": above},
            {"y": dest, "e": extra, "h": above},
        )
        rows = 12
        inputs = signed_inputs(program, rows, instances=3, rng=rng)
        for instance in inputs:
            instance[0]["h"][:] = -1  # every domain above the extra is 1
        wave = execute_program_wave([program], inputs, rows, 5)
        assert wave is not None
        assert_wave_matches_baseline(
            wave, per_instance_wave_baseline([program], inputs, rows, 5, "reference")
        )

    def test_declines_nanowires_longer_than_a_word(self, rng, monkeypatch):
        """65 domains do not fit one uint64 word: the wave declines through
        ``_decline("geometry")`` and the staging pre-flight refuses too."""
        from repro.ap.backends import batched as batched_module

        reasons = []
        monkeypatch.setattr(
            batched_module, "_decline", lambda reason, **_: reasons.append(reason)
        )
        programs, columns = add_tile(5)
        inputs = self._tile_inputs(programs, 4, instances=2, rng=rng)
        technology = RTMTechnology(domains_per_nanowire=65)
        assert (
            execute_program_wave(programs, inputs, 4, columns, technology=technology)
            is None
        )
        assert reasons == ["geometry"]
        assert wave_staging_plan(programs, columns, technology=technology) is None

    def test_per_instance_stats_diverge_with_data(self):
        """Write-phase counters are data-dependent and tracked per instance."""
        programs, columns = add_tile(6)
        rows = 8
        busy = [{"a": np.full(rows, 17), "b": np.full(rows, 13)}]
        idle = [{"a": np.zeros(rows, dtype=np.int64),
                 "b": np.zeros(rows, dtype=np.int64)}]
        wave = execute_program_wave(programs, [busy, idle], rows, columns)
        assert wave is not None
        busy_stats, _, busy_checksum, _ = wave[0]
        idle_stats, _, idle_checksum, _ = wave[1]
        assert busy_stats.write_phases > idle_stats.write_phases
        assert busy_checksum != idle_checksum
        # Data-independent counters stay identical across instances.
        assert busy_stats.search_phases == idle_stats.search_phases

    def test_chunked_wave_byte_identical(self, rng, monkeypatch):
        """Chunking (bounded stacked state) must not change any observable."""
        from repro.ap.backends import batched as batched_module

        programs, columns = add_tile(7)
        rows = 5
        inputs = self._tile_inputs(programs, rows, instances=6, rng=rng)
        whole = execute_program_wave(programs, inputs, rows, columns)
        monkeypatch.setattr(batched_module, "_MAX_WAVE_STATE_BYTES", 1)
        chunked = execute_program_wave(programs, inputs, rows, columns)
        assert whole is not None and chunked is not None
        for left, right in zip(whole, chunked):
            assert left[0] == right[0]
            assert left[2] == right[2]
            assert np.array_equal(left[3], right[3])

    def test_empty_wave_returns_empty(self):
        programs, columns = add_tile(5)
        assert execute_program_wave(programs, [], 4, columns) == []

    def test_declines_degenerate_geometry(self, rng):
        programs, columns = add_tile(5)
        inputs = self._tile_inputs(programs, 4, instances=1, rng=rng)
        assert execute_program_wave(programs, inputs, 0, columns) is None
        assert execute_program_wave(programs, inputs, 4, 0) is None

    def test_declines_carry_column_mismatch(self, rng):
        programs, columns = add_tile(5)
        inputs = self._tile_inputs(programs, 4, instances=1, rng=rng)
        assert (
            execute_program_wave(programs, inputs, 4, columns, carry_column=1)
            is None
        )

    def test_declines_malformed_inputs(self, rng):
        """Wrong-length, out-of-range, missing or miscounted input vectors
        all force the per-instance fallback instead of corrupting the wave."""
        programs, columns = add_tile(5)
        rows = 4
        good = self._tile_inputs(programs, rows, instances=2, rng=rng)

        wrong_length = [list(good[0]), [{**good[1][0], "a": np.zeros(rows + 1)}]]
        assert execute_program_wave(programs, wrong_length, rows, columns) is None

        out_of_range = [list(good[0]), [{**good[1][0], "a": np.full(rows, 2**10)}]]
        assert execute_program_wave(programs, out_of_range, rows, columns) is None

        missing_name = [list(good[0]), [{"a": good[1][0]["a"]}]]
        assert execute_program_wave(programs, missing_name, rows, columns) is None

        miscounted = [list(good[0]), []]
        assert execute_program_wave(programs, miscounted, rows, columns) is None

        non_integer = [list(good[0]), [{**good[1][0], "a": np.zeros(rows) + 0.5}]]
        assert execute_program_wave(programs, non_integer, rows, columns) is None


class TestStagedWaveExecution:
    """Host-staged operand forms: byte-identity to the per-instance dicts.

    The wave-native host dataflow hands ``execute_program_wave`` one
    :class:`StagedWaveInputs` per layer group instead of ``instances``
    payload dicts; the staged integer batches must reproduce the legacy form
    bit for bit, and malformed staging must decline (return ``None``) rather
    than corrupt the wave.
    """

    def test_staged_values_match_per_instance(self, rng):
        programs, columns = add_tile(7)
        rows = 6
        inputs = [
            [random_inputs(program, rows, rng) for program in programs]
            for _ in range(4)
        ]
        baseline = execute_program_wave(programs, inputs, rows, columns)
        staged = execute_program_wave(
            programs, stage_values(programs, inputs, rows), rows, columns
        )
        assert baseline is not None and staged is not None
        for legacy, wave in zip(baseline, staged):
            assert legacy[0] == wave[0]
            assert legacy[2] == wave[2]
            assert np.array_equal(legacy[3], wave[3])

    def test_staging_plan_reports_load_widths(self):
        programs, columns = add_tile(7)
        assert wave_staging_plan(programs, columns) == [{"a": 7, "b": 7}]

    def test_staging_plan_declines_bad_geometry(self):
        programs, _ = add_tile(7)
        assert wave_staging_plan(programs, 0) is None
        assert wave_staging_plan(programs, 4, carry_column=3) is None

    def test_staged_chunking_byte_identical(self, rng, monkeypatch):
        from repro.ap.backends import batched as batched_module

        programs, columns = add_tile(7)
        rows = 5
        inputs = [
            [random_inputs(program, rows, rng) for program in programs]
            for _ in range(6)
        ]
        staged = stage_values(programs, inputs, rows)
        whole = execute_program_wave(programs, staged, rows, columns)
        monkeypatch.setattr(batched_module, "_MAX_WAVE_STATE_BYTES", 1)
        chunked = execute_program_wave(programs, staged, rows, columns)
        assert whole is not None and chunked is not None
        for left, right in zip(whole, chunked):
            assert left[0] == right[0]
            assert left[2] == right[2]
            assert np.array_equal(left[3], right[3])

    def test_staged_malformed_declines(self, rng):
        """Shape, dtype, range and arity mismatches all decline cleanly."""
        programs, columns = add_tile(5)
        rows = 4
        inputs = [
            [random_inputs(program, rows, rng) for program in programs]
            for _ in range(2)
        ]
        good = stage_values(programs, inputs, rows)

        bad_shape = StagedWaveInputs(
            2, rows, values=[{**good.values[0], "a": np.zeros((2, rows + 1))}]
        )
        assert execute_program_wave(programs, bad_shape, rows, columns) is None

        out_of_range = StagedWaveInputs(
            2,
            rows,
            values=[{**good.values[0], "a": np.full((2, rows), 2**10)}],
        )
        assert (
            execute_program_wave(programs, out_of_range, rows, columns) is None
        )

        missing = StagedWaveInputs(
            2, rows, values=[{"a": good.values[0]["a"]}]
        )
        assert execute_program_wave(programs, missing, rows, columns) is None

        non_integer = StagedWaveInputs(
            2, rows, values=[{**good.values[0], "a": np.zeros((2, rows)) + 0.5}]
        )
        assert (
            execute_program_wave(programs, non_integer, rows, columns) is None
        )
