"""Cross-backend equivalence: batched vs. reference execution.

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

from collections import Counter

import numpy as np
import pytest

from repro.ap.backends import (
    DEFAULT_BACKEND,
    BatchedBackend,
    ReferenceBackend,
    available_backends,
    create_backend,
    register_backend,
    resolve_backend,
)
from repro.ap.backends import batched as batched_module
from repro.ap.backends.batched import (
    StagedWaveInputs,
    compile_program_wave,
    execute_program_wave,
    lut_truth_matrix,
    wave_staging_plan,
)
from repro.ap.backends.harness import (
    compare_backends,
    random_inputs,
    random_program,
)
from repro.ap.core import AssociativeProcessor
from repro.ap.isa import APInstruction, APOpcode, APProgram, ColumnRegion
from repro.ap.lut import all_luts, simulate_lut_passes
from repro.errors import ConfigurationError
from repro.nn.models.resnet import build_resnet18
from repro.nn.models.vgg import build_vgg9
from repro.rtm.timing import DEFAULT_RTM_TECHNOLOGY, RTMTechnology
from repro.session import Session


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
        assert available_backends() == ["batched", "reference"]
        # The fast backend is the default; the interpreter stays the
        # ground truth and can be forced via REPRO_AP_BACKEND (which CI
        # uses for a full-suite ground-truth run).
        import os

        expected = os.environ.get("REPRO_AP_BACKEND", "").strip() or "batched"
        assert DEFAULT_BACKEND == expected

    def test_resolve_by_name_and_class(self):
        assert resolve_backend("batched") is BatchedBackend
        assert resolve_backend("reference") is ReferenceBackend
        assert resolve_backend(ReferenceBackend) is ReferenceBackend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("warp-drive")
        with pytest.raises(ConfigurationError):
            AssociativeProcessor(rows=4, columns=4, backend="warp-drive")

    def test_removed_vectorized_name_is_rejected(self):
        """The per-tile ``vectorized`` backend was folded into ``batched``:
        its name is an unknown backend, and the error lists the survivors."""
        with pytest.raises(ConfigurationError, match="available: batched, reference"):
            resolve_backend("vectorized")
        with pytest.raises(ConfigurationError, match="available: batched, reference"):
            AssociativeProcessor(rows=4, columns=4, backend="vectorized")
        from repro.arch.accelerator import Accelerator

        with pytest.raises(ConfigurationError, match="available: batched, reference"):
            Accelerator(backend="vectorized")

    def test_removed_vectorized_env_value_is_rejected(self, monkeypatch):
        from repro.ap import backends as backends_module

        monkeypatch.setenv(backends_module.BACKEND_ENV_VARIABLE, "vectorized")
        with pytest.raises(ConfigurationError, match="available: batched, reference"):
            backends_module._default_backend()

    def test_register_requires_name(self):
        class Nameless(ReferenceBackend):
            name = "abstract"

        with pytest.raises(ConfigurationError):
            register_backend(Nameless)

    def test_create_backend_binds_array(self):
        ap = AssociativeProcessor(rows=4, columns=4, backend="batched")
        assert ap.backend.name == "batched"
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

    def test_batched_matches_numpy_semantics(self, rng):
        """End to end: the batched AP still computes exact integer math."""
        ap = AssociativeProcessor(rows=32, columns=16, backend="batched")
        a = rng.integers(-100, 100, 32)
        b = rng.integers(-100, 100, 32)
        assert np.array_equal(ap.add_vectors(a, b, width=9), a + b)
        assert np.array_equal(ap.sub_vectors(a, b, width=9), a - b)


class TestAcceleratorThreading:
    def test_functional_ap_inherits_backend(self, tiny_architecture):
        from repro.arch.accelerator import Accelerator

        accelerator = Accelerator(config=tiny_architecture, backend="reference")
        ap = accelerator.functional_ap((0, 0, 0))
        assert ap.backend.name == "reference"

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
        assert backends_module._default_backend() == "batched"


class TestCostModelCrosscheck:
    @pytest.mark.parametrize("backend", ["reference", "batched"])
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
    programs, inputs_per_instance, rows, columns, backend="batched"
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


def lowered(programs, columns):
    """Each program's wave lowering on the default technology."""
    domains = DEFAULT_RTM_TECHNOLOGY.domains_per_nanowire
    return [compile_program_wave(program, columns, domains) for program in programs]


def wave_outputs(programs, stacked, columns):
    """One ``{name: row vector}`` dict per program from a wave instance's
    stacked outputs: rows follow each lowered program's ``read_names``."""
    rows = iter(stacked)
    return [
        {name: next(rows) for name in program.read_names}
        for program in lowered(programs, columns)
    ]


def assert_wave_matches_baseline(wave_results, baseline, programs, columns):
    assert len(wave_results) == len(baseline)
    total_outputs = sum(len(program.output_columns) for program in programs)
    for got, expected in zip(wave_results, baseline):
        got_stats, got_checksum, stacked = got
        expected_stats, expected_outputs, expected_checksum = expected
        assert got_stats == expected_stats
        assert got_checksum == expected_checksum
        assert stacked.dtype == np.int64
        assert stacked.shape[0] == total_outputs
        got_outputs = wave_outputs(programs, stacked, columns)
        assert len(got_outputs) == len(expected_outputs)
        for got_programs, expected_programs in zip(got_outputs, expected_outputs):
            # Stacked rows are in sorted-name order within each program.
            assert list(got_programs) == sorted(expected_programs)
            for name in expected_programs:
                assert np.array_equal(got_programs[name], expected_programs[name])


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
                wave,
                per_instance_wave_baseline(programs, inputs, rows, columns),
                programs,
                columns,
            )


def _domains(region):
    return ((1 << region.width) - 1) << region.domain_offset


def self_contained_program(rng, columns, max_width, num_instructions, name):
    """A random program that reads only domains it defined itself.

    Mirrors the wave lowering's definedness rule domain by domain: loads,
    clears and written destinations define their domains, and the bits of a
    narrow extra destination above its own width stay as defined as they
    were.  Sources and outputs are drawn only from fully defined regions.
    The program mixes in-place and out-of-place adds and subs, copies,
    clears and narrow extra destinations, and one column may hold two
    inputs at different offsets.
    """
    program = APProgram(name=name, carry_column=0)
    defined = {}
    regions = []

    def region(column, width=None, offset=None):
        width = int(rng.integers(2, max_width + 1)) if width is None else width
        offset = int(rng.integers(0, 4)) if offset is None else offset
        return ColumnRegion(column=column, width=width, domain_offset=offset)

    def define(target):
        defined[target.column] = defined.get(target.column, 0) | _domains(target)
        if target not in regions:
            regions.append(target)

    def is_defined(target):
        return defined.get(target.column, 0) & _domains(target) == _domains(target)

    shared = int(rng.integers(1, columns))
    low = region(shared, offset=0)
    high = region(shared, offset=low.width + int(rng.integers(0, 3)))
    inputs = {"x0": low, "x1": high}
    for index in range(2, int(rng.integers(2, 5))):
        inputs[f"x{index}"] = region(int(rng.integers(1, columns)))
    program.input_columns = inputs
    for target in inputs.values():
        define(target)

    for _ in range(num_instructions):
        sources = [r for r in regions if is_defined(r)]
        kind = rng.choice(
            ["add", "sub", "copy", "clear"], p=[0.35, 0.35, 0.15, 0.15]
        )
        if kind in ("add", "sub") and len({r.column for r in sources}) >= 2:
            src_a = sources[int(rng.integers(len(sources)))]
            others = [r for r in sources if r.column != src_a.column]
            src_b = others[int(rng.integers(len(others)))]
            if rng.random() < 0.4:
                opcode = (
                    APOpcode.ADD_INPLACE if kind == "add" else APOpcode.SUB_INPLACE
                )
                dest = src_a if kind == "add" and rng.random() < 0.5 else src_b
                instruction = APInstruction(
                    opcode=opcode, dest=dest, src_a=src_a, src_b=src_b
                )
                define(dest)
            else:
                opcode = (
                    APOpcode.ADD_OUTOFPLACE
                    if kind == "add"
                    else APOpcode.SUB_OUTOFPLACE
                )
                free = [
                    column
                    for column in range(1, columns)
                    if column not in (src_a.column, src_b.column)
                ]
                picks = rng.permutation(free)[:2]
                dest = region(int(picks[0]))
                extra_dests = ()
                if len(picks) > 1 and rng.random() < 0.4:
                    # Often narrower than the instruction: a narrow extra
                    # destination.
                    width = int(rng.integers(1, dest.width + 2))
                    extra_dests = (region(int(picks[1]), width=width),)
                instruction = APInstruction(
                    opcode=opcode,
                    dest=dest,
                    src_a=src_a,
                    src_b=src_b,
                    extra_dests=extra_dests,
                )
                define(dest)
                for extra in extra_dests:
                    define(extra)
        elif kind == "copy":
            src = sources[int(rng.integers(len(sources)))]
            free = [c for c in range(1, columns) if c != src.column]
            dest = region(int(rng.choice(free)))
            instruction = APInstruction(opcode=APOpcode.COPY, dest=dest, src_a=src)
            define(dest)
        else:
            target = region(int(rng.integers(1, columns)))
            instruction = APInstruction(opcode=APOpcode.CLEAR, dest=target)
            define(target)
        program.append(instruction)
    readable = [r for r in regions if is_defined(r)]
    picks = rng.permutation(len(readable))[: int(rng.integers(1, 5))]
    program.output_columns = {
        f"y{index}": readable[pick] for index, pick in enumerate(picks)
    }
    program.output_negated = {
        name: bool(rng.random() < 0.25) for name in program.output_columns
    }
    return program


def self_contained_tile(rng):
    """2-40 self-contained programs of unequal lengths over one geometry."""
    columns = int(rng.integers(6, 16))
    max_width = int(rng.integers(2, 25))
    programs = [
        self_contained_program(
            rng, columns, max_width, int(rng.integers(1, 13)), f"s{index}"
        )
        for index in range(int(rng.integers(2, 41)))
    ]
    return programs, columns


def random_program_tile(rng):
    """2-8 ``harness.random_program`` programs: they read regions no load or
    write of their own defined, so later ones start seeded blocks."""
    columns = int(rng.integers(6, 14))
    programs = [
        random_program(
            rng,
            num_instructions=int(rng.integers(1, 10)),
            columns=columns,
            max_width=int(rng.integers(2, 20)),
            extra_dest_probability=0.3,
            name=f"r{index}",
        )
        for index in range(int(rng.integers(2, 9)))
    ]
    return programs, columns


class TestLockstepWaves:
    """Program-lockstep blocks against per-instance execution.

    Self-contained programs run side by side in zeroed slices; programs
    that read what a predecessor left start seeded blocks.  Forcing narrow
    blocks (``_BLOCK_WORDS``) and one-instance chunks
    (``_WAVE_CHUNK_BYTES``) must not change any result or counter.
    """

    @pytest.mark.parametrize("block", range(4))
    def test_self_contained_tiles_match_per_instance(self, block):
        for seed in range(10 * block, 10 * block + 10):
            rng = np.random.default_rng(9100 + seed)
            programs, columns = self_contained_tile(rng)
            compiled = lowered(programs, columns)
            assert all(program.self_contained for program in compiled)
            rows = int(rng.integers(1, 7))
            inputs = [
                [random_inputs(program, rows, rng) for program in programs]
                for _ in range(int(rng.integers(1, 4)))
            ]
            wave_inputs = (
                stage_values(programs, inputs, rows) if seed % 2 else inputs
            )
            wave = execute_program_wave(programs, wave_inputs, rows, columns)
            assert wave is not None, f"seed {seed} declined"
            assert_wave_matches_baseline(
                wave,
                per_instance_wave_baseline(programs, inputs, rows, columns),
                programs,
                columns,
            )
            # Nothing to seed: every block starts from zeroed slices.
            schedule = batched_module._schedule(compiled, rows, columns)
            assert not any(block.seeded for block in schedule.blocks)

    @pytest.mark.parametrize(
        "block_words, chunk_bytes", [(None, None), (1, None), (200, 1)]
    )
    def test_random_program_tiles_seed_blocks(
        self, monkeypatch, block_words, chunk_bytes
    ):
        if block_words is not None:
            monkeypatch.setattr(batched_module, "_BLOCK_WORDS", block_words)
        if chunk_bytes is not None:
            monkeypatch.setattr(batched_module, "_WAVE_CHUNK_BYTES", chunk_bytes)
        seeded = 0
        for seed in range(16):
            rng = np.random.default_rng(9500 + seed)
            programs, columns = random_program_tile(rng)
            rows = int(rng.integers(1, 9))
            inputs = [
                [random_inputs(program, rows, rng) for program in programs]
                for _ in range(int(rng.integers(1, 4)))
            ]
            wave = execute_program_wave(
                programs, stage_values(programs, inputs, rows), rows, columns
            )
            assert wave is not None, f"seed {seed} declined"
            assert_wave_matches_baseline(
                wave,
                per_instance_wave_baseline(programs, inputs, rows, columns),
                programs,
                columns,
            )
            schedule = batched_module._schedule(
                lowered(programs, columns), rows, columns
            )
            seeded += any(block.seeded and block.start for block in schedule.blocks)
        assert seeded, "no tile started a seeded block"

    def test_dirty_program_before_a_stale_reader(self, rng):
        """A narrow extra destination over domains its program never defined
        leaves stale-dependent bits (``clean`` is false); when a later
        program reads them, that program must run on the true AP state, so
        the dirty one cannot share a zeroed block."""
        h = ColumnRegion(column=4, width=8, domain_offset=6)
        keep = single_instruction_program(
            APInstruction(
                opcode=APOpcode.COPY,
                dest=ColumnRegion(column=5, width=8),
                src_a=h,
            ),
            {"h": h},
            {"o": ColumnRegion(column=5, width=8)},
        )
        a = ColumnRegion(column=1, width=10)
        b = ColumnRegion(column=2, width=10)
        narrow = ColumnRegion(column=4, width=4, domain_offset=2)
        dirty = region_program(
            APOpcode.ADD_OUTOFPLACE,
            a,
            b,
            ColumnRegion(column=3, width=10),
            extra_dests=(narrow,),
        )
        reader = single_instruction_program(
            APInstruction(opcode=APOpcode.CLEAR, dest=ColumnRegion(column=6, width=3)),
            {},
            {"h": h},
        )
        programs = [keep, dirty, reader]
        compiled = lowered(programs, 7)
        assert compiled[1].self_contained and not compiled[1].clean
        assert not compiled[2].self_contained
        rows = 12
        inputs = []
        for _ in range(3):
            values = random_inputs(dirty, rows, rng)
            inputs.append([{"h": np.full(rows, -1)}, values, {}])
        wave = execute_program_wave(programs, inputs, rows, 7)
        assert wave is not None
        assert_wave_matches_baseline(
            wave,
            per_instance_wave_baseline(programs, inputs, rows, 7, "reference"),
            programs,
            7,
        )
        schedule = batched_module._schedule(compiled, rows, 7)
        assert [block.start for block in schedule.blocks] == [0, 1, 2]

    @pytest.mark.parametrize("block_words", [1, 40, 400])
    def test_forced_block_and_chunk_splits(self, rng, monkeypatch, block_words):
        programs, columns = self_contained_tile(rng)
        rows = 3
        inputs = [
            [random_inputs(program, rows, rng) for program in programs]
            for _ in range(5)
        ]
        whole = execute_program_wave(programs, inputs, rows, columns)
        monkeypatch.setattr(batched_module, "_BLOCK_WORDS", block_words)
        monkeypatch.setattr(batched_module, "_WAVE_CHUNK_BYTES", 1)
        split = execute_program_wave(programs, inputs, rows, columns)
        compiled = lowered(programs, columns)
        schedule = batched_module._schedule(compiled, rows, columns)
        assert len(schedule.blocks) > 1
        plan = batched_module._ReplayPlan(compiled)
        assert schedule.chunk(rows, len(inputs), plan) == 1
        for left, right in zip(whole, split):
            assert left[0] == right[0]
            assert left[1] == right[1]
            assert np.array_equal(left[2], right[2])
        assert_wave_matches_baseline(
            split,
            per_instance_wave_baseline(programs, inputs, rows, columns),
            programs,
            columns,
        )


def program_records(program):
    """``(kind, source columns, target column)`` of each destination write of
    ``program`` in program order, read off its instructions: the records a
    lowering must run (an in-place add or sub writes only its ``dest``)."""
    for instruction in program.instructions:
        opcode = instruction.opcode
        if opcode.is_arithmetic:
            kind = batched_module._ARITH
            sources = (instruction.src_a.column, instruction.src_b.column)
            targets = instruction.all_dests
            if opcode.is_inplace:
                targets = (instruction.dest,)
        elif opcode is APOpcode.COPY:
            kind = batched_module._COPY
            sources = (instruction.src_a.column,)
            targets = instruction.all_dests
        else:
            kind = batched_module._CLEAR
            sources = ()
            targets = instruction.all_dests
        for region in targets:
            yield kind, sources, region.column


def assert_schedule_invariants(programs, schedule, columns):
    """Every group of ``schedule`` writes distinct words and reads none of
    the other records' targets, and every record reads and overwrites the
    same versions of its words as in program order.

    A word's version counts the writes to it so far.  Walking each block's
    programs in program order gives every record a read signature: its
    kind, its source words and its target word, each with the version it
    sees.  Walking the block's groups in schedule order - a group gathers
    all its sources before it scatters any target - must give the same
    multiset of signatures, which holds exactly when the schedule keeps
    every RAW, WAW and WAR order on words.
    """
    for block in schedule.blocks:
        versions = {}
        expected = Counter()
        for index in range(block.start, block.stop):
            base = (index - block.start) * columns
            for kind, sources, target in program_records(programs[index]):
                reads = frozenset(
                    (base + column, versions.get(base + column, 0))
                    for column in sources
                )
                word = base + target
                expected[kind, reads, word, versions.get(word, 0)] += 1
                versions[word] = versions.get(word, 0) + 1
        versions = {}
        scheduled = Counter()
        first_record = block.records[0]
        for kind, lo, hi, _ in schedule.groups[slice(*block.groups)].tolist():
            targets = schedule.t_idx[first_record + lo : first_record + hi].tolist()
            assert len(set(targets)) == len(targets), "a group writes a word twice"
            sources = schedule.src_idx[
                2 * first_record + 2 * lo : 2 * first_record + 2 * hi
            ].tolist()
            for position, word in enumerate(targets):
                if kind == batched_module._CLEAR:
                    reads = ()
                else:
                    # B regions first, then A regions (a copy's source sits
                    # in both).
                    reads = {sources[position], sources[hi - lo + position]}
                    assert not reads & (set(targets) - {word}), (
                        "a group reads a word another of its records writes"
                    )
                signature = frozenset((read, versions.get(read, 0)) for read in reads)
                scheduled[kind, signature, word, versions.get(word, 0)] += 1
            for word in targets:
                versions[word] = versions.get(word, 0) + 1
        assert scheduled == expected


def deployed_tiles(model, input_shape):
    """Each distinct ``(programs, rows)`` tile of ``model``'s deployed plan,
    with the plan's lease columns."""
    session = Session(
        model=model,
        input_shape=input_shape,
        bits=4,
        signed=False,
        backend="batched",
        executor="serial",
    )
    try:
        session.compile().deploy()
        plan = session.plan
    finally:
        session.close()
    tiles = {}
    for layer in plan.layers:
        for tile in layer.tiles:
            tiles.setdefault((tuple(map(id, tile.programs)), tile.rows), tile)
    return list(tiles.values()), plan.lease_columns


class TestLevelSchedule:
    """Lockstep groups are dataflow levels of each block's records.

    Generated tiles (self-contained, seeded, forced into narrow blocks) and
    every tile of the benchmark models must satisfy
    :func:`assert_schedule_invariants`; levels also fold a program's
    independent additions into shared groups.
    """

    @pytest.mark.parametrize("block_words", [None, 40])
    def test_generated_tiles_keep_word_order(self, monkeypatch, block_words):
        if block_words is not None:
            monkeypatch.setattr(batched_module, "_BLOCK_WORDS", block_words)
        for seed in range(24):
            rng = np.random.default_rng(13000 + seed)
            make_tile = self_contained_tile if seed % 2 else random_program_tile
            programs, columns = make_tile(rng)
            rows = int(rng.integers(1, 9))
            schedule = batched_module._schedule(
                lowered(programs, columns), rows, columns
            )
            assert_schedule_invariants(programs, schedule, columns)

    @pytest.mark.parametrize(
        "build, input_shape",
        [
            (
                lambda: build_vgg9(
                    width_multiplier=1 / 16, input_size=16, sparsity=0.85, rng=0
                ),
                (3, 16, 16),
            ),
            (
                lambda: build_resnet18(
                    num_classes=10, base_width=8, sparsity=0.8, rng=0
                ),
                (3, 32, 32),
            ),
        ],
        ids=["vgg9", "resnet18w8"],
    )
    def test_benchmark_tiles_keep_word_order(self, build, input_shape):
        tiles, columns = deployed_tiles(build(), input_shape)
        widest = 0
        for tile in tiles:
            schedule = batched_module._schedule(
                lowered(tile.programs, columns), tile.rows, columns
            )
            assert_schedule_invariants(tile.programs, schedule, columns)
            sizes = schedule.groups[:, 2] - schedule.groups[:, 1]
            widest = max(widest, int(sizes.max()) / len(tile.programs))
        # Independent additions of one adder tree share groups: some group
        # holds several records per program of its tile.
        assert widest > 1

    def test_independent_adds_share_a_group(self):
        """``y = (a + b) + (c + d)``: both inner adds run at level 0."""
        regions = [ColumnRegion(column=column, width=4) for column in range(1, 5)]
        left = ColumnRegion(column=5, width=5)
        right = ColumnRegion(column=6, width=5)
        total = ColumnRegion(column=7, width=6)
        program = APProgram(name="tree", carry_column=0)
        program.input_columns = {
            name: region for name, region in zip("abcd", regions)
        }
        program.output_columns = {"y": total}
        for dest, src_a, src_b in (
            (left, regions[0], regions[1]),
            (right, regions[2], regions[3]),
            (total, left, right),
        ):
            program.append(
                APInstruction(
                    opcode=APOpcode.ADD_OUTOFPLACE, dest=dest, src_a=src_a, src_b=src_b
                )
            )
        schedule = batched_module._schedule(lowered([program], 8), 3, 8)
        assert schedule.groups[:, 1:3].tolist() == [[0, 2], [2, 3]]
        assert_schedule_invariants([program], schedule, 8)


#: Deepest domains either side of each word boundary, and the word each
#: must run in: the narrowest with a spare bit above the deepest domain,
#: ``uint64`` up to the 60-bit operand limit.
WORD_CASES = [
    (7, np.uint8),
    (8, np.uint16),
    (15, np.uint16),
    (16, np.uint32),
    (31, np.uint32),
    (32, np.uint64),
    (60, np.uint64),
]


def deep_program(rng, columns, deepest, name, stale):
    """A random program whose regions reach exactly domain ``deepest``.

    Columns 1 and 2 hold full-width (``deepest``-bit) regions.  The first
    is loaded and also read back negated, so the most negative load becomes
    a value one bit wider than its region.  The second receives a
    ``deepest``-bit add or sub whose minterms therefore reach the deepest
    domain, blended into a narrow extra destination on column 3.  The other
    columns hold narrower regions placed anywhere below ``deepest``.  Random
    adds, subs, copies and clears follow; a narrow extra destination is only
    placed where its blend over the instruction width stays below
    ``deepest``.  A ``stale`` program also reads regions it never defined
    (so it starts a seeded block); otherwise it reads only regions it
    defined itself.
    """
    full = ColumnRegion(column=1, width=deepest)
    top = ColumnRegion(column=2, width=deepest)
    narrow = ColumnRegion(column=3, width=int(rng.integers(1, deepest)))
    regions = [full, top, narrow]
    for column in range(4, columns):
        width = int(rng.integers(2, min(deepest, 24) + 1))
        offset = int(rng.integers(0, deepest - width + 1))
        regions.append(ColumnRegion(column=column, width=width, domain_offset=offset))
    program = APProgram(name=name, carry_column=0)
    picks = rng.permutation(range(3, columns - 1))[:2]
    loaded = [full] + [regions[index] for index in picks]
    program.input_columns = {f"x{index}": region for index, region in enumerate(loaded)}
    defined = {}

    def define(region):
        defined[region.column] = defined.get(region.column, 0) | _domains(region)

    def readable():
        return [
            region
            for region in regions
            if stale
            or defined.get(region.column, 0) & _domains(region) == _domains(region)
        ]

    for region in loaded:
        define(region)
    if rng.random() < 0.7:
        # Define column 3 in full first: the blend above the narrow extra
        # destination then leaves the program clean, and clean programs
        # share the blocks the kernel composes.
        clear = ColumnRegion(column=3, width=deepest)
        program.append(APInstruction(opcode=APOpcode.CLEAR, dest=clear))
    source = [region for region in readable() if region.column > 3][0]
    program.append(
        APInstruction(
            opcode=rng.choice([APOpcode.ADD_OUTOFPLACE, APOpcode.SUB_OUTOFPLACE]),
            dest=top,
            src_a=source,
            src_b=full,
            extra_dests=(narrow,),
        )
    )
    define(top)
    define(narrow)
    for _ in range(int(rng.integers(2, 9))):
        sources = readable()
        kind = rng.choice(["add", "sub", "copy", "clear"], p=[0.35, 0.35, 0.15, 0.15])
        if kind in ("add", "sub"):
            src_a = sources[int(rng.integers(len(sources)))]
            others = [region for region in sources if region.column != src_a.column]
            src_b = others[int(rng.integers(len(others)))]
            if rng.random() < 0.4:
                opcode = APOpcode.ADD_INPLACE if kind == "add" else APOpcode.SUB_INPLACE
                dest = src_a if kind == "add" and rng.random() < 0.5 else src_b
                instruction = APInstruction(
                    opcode=opcode, dest=dest, src_a=src_a, src_b=src_b
                )
                written = (dest,)
            else:
                used = (src_a.column, src_b.column)
                free = [region for region in regions if region.column not in used]
                picks = rng.permutation(len(free))[:2]
                dest = free[picks[0]]
                extras = tuple(
                    free[pick]
                    for pick in picks[1:]
                    if free[pick].domain_offset + dest.width <= deepest
                    and rng.random() < 0.5
                )
                opcode = (
                    APOpcode.ADD_OUTOFPLACE
                    if kind == "add"
                    else APOpcode.SUB_OUTOFPLACE
                )
                instruction = APInstruction(
                    opcode=opcode,
                    dest=dest,
                    src_a=src_a,
                    src_b=src_b,
                    extra_dests=extras,
                )
                written = (dest,) + extras
        elif kind == "copy":
            src = sources[int(rng.integers(len(sources)))]
            free = [region for region in regions if region.column != src.column]
            dest = free[int(rng.integers(len(free)))]
            instruction = APInstruction(opcode=APOpcode.COPY, dest=dest, src_a=src)
            written = (dest,)
        else:
            dest = regions[int(rng.integers(len(regions)))]
            instruction = APInstruction(opcode=APOpcode.CLEAR, dest=dest)
            written = (dest,)
        program.append(instruction)
        for region in written:
            define(region)
    outputs = readable()
    picks = rng.permutation(len(outputs))[: int(rng.integers(1, 4))]
    outputs = [outputs[pick] for pick in picks]
    undefined = [
        region
        for region in regions
        if defined.get(region.column, 0) & _domains(region) != _domains(region)
    ]
    if stale and undefined:
        outputs.append(undefined[int(rng.integers(len(undefined)))])
    program.output_columns = {
        "n": full,
        **{f"y{index}": region for index, region in enumerate(outputs)},
    }
    program.output_negated = {
        "n": True,
        **{f"y{index}": bool(rng.random() < 0.3) for index in range(len(outputs))},
    }
    return program


class TestWordWidths:
    """Generated tiles on every word dtype against the ``reference``
    interpreter.

    Each tile reaches exactly the case's deepest domain (either side of the
    8-, 16- and 32-bit word boundaries, and up to the 60-bit operand limit),
    so its schedule must pick the case's word.  Every tile has a
    full-width add or sub (its minterms reach the deepest domain), a
    negated full-width output loaded with the most negative value, narrow
    extra destinations, and - mixed over the seeds - stale readers that
    start seeded blocks after blocks whose true state the kernel composes.
    """

    @pytest.mark.parametrize(
        "deepest, word", WORD_CASES, ids=[str(deepest) for deepest, _ in WORD_CASES]
    )
    def test_generated_tiles_match_reference(self, deepest, word):
        seeded = composed = 0
        for seed in range(8):
            rng = np.random.default_rng(12000 + 100 * deepest + seed)
            columns = int(rng.integers(6, 10))
            count = int(rng.integers(2, 7))
            programs = [
                deep_program(
                    rng,
                    columns,
                    deepest,
                    f"d{index}",
                    stale=index == count - 1 or bool(rng.random() < 0.2),
                )
                for index in range(count)
            ]
            rows = int(rng.integers(2, 7))
            inputs = [
                [signed_inputs(program, rows, 1, rng)[0][0] for program in programs]
                for _ in range(int(rng.integers(1, 4)))
            ]
            wave_inputs = stage_values(programs, inputs, rows) if seed % 2 else inputs
            wave = execute_program_wave(programs, wave_inputs, rows, columns)
            assert wave is not None, f"seed {seed} declined"
            assert_wave_matches_baseline(
                wave,
                per_instance_wave_baseline(
                    programs, inputs, rows, columns, "reference"
                ),
                programs,
                columns,
            )
            schedule = batched_module._schedule(
                lowered(programs, columns), rows, columns
            )
            assert schedule.word == np.dtype(word)
            seeded += any(block.seeded and block.start for block in schedule.blocks)
            composed += any(
                block.tracks and block.stop - block.start > 1
                for block in schedule.blocks
            )
        assert seeded and composed, (seeded, composed)

    @pytest.mark.parametrize("deepest, word", [(7, np.uint8), (8, np.uint16)])
    def test_narrow_extra_destination_counts_at_instruction_width(
        self, rng, deepest, word
    ):
        """A narrow extra destination is blended over the instruction width,
        so that width, not its own, sets how deep the tile reaches."""
        a = ColumnRegion(column=1, width=4)
        b = ColumnRegion(column=2, width=4)
        dest = ColumnRegion(column=3, width=4)
        extra = ColumnRegion(column=4, width=2, domain_offset=deepest - 4)
        program = region_program(
            APOpcode.ADD_OUTOFPLACE, a, b, dest, extra_dests=(extra,)
        )
        inputs = signed_inputs(program, rows=6, instances=2, rng=rng)
        wave = execute_program_wave([program], inputs, 6, 5)
        assert wave is not None
        assert_wave_matches_baseline(
            wave,
            per_instance_wave_baseline([program], inputs, 6, 5, "reference"),
            [program],
            5,
        )
        schedule = batched_module._schedule(lowered([program], 5), 6, 5)
        assert schedule.word == np.dtype(word)

    def test_matched_bits_beyond_uint16_count_in_int64(self, rng):
        """Matched-bit counts sum over rows in ``uint16`` only while ``rows x
        word bits < 2**16``; a 15-bit add on 16384 rows matches more bits
        than ``uint16`` holds, so its tile counts in ``int64``."""
        programs, columns = add_tile(15)
        rows = 16384
        schedule = batched_module._schedule(lowered(programs, columns), rows, columns)
        assert schedule.word == np.dtype(np.uint16)
        assert schedule.count_dtype(rows) == np.dtype(np.int64)
        assert schedule.count_dtype(4095) == np.dtype(np.uint16)
        inputs = signed_inputs(programs[0], rows, 1, rng)
        wave = execute_program_wave(programs, inputs, rows, columns)
        baseline = per_instance_wave_baseline(programs, inputs, rows, columns)
        # Each matched bit writes the destination and the carry column.
        assert baseline[0][0].written_bits - rows > 2 << 16
        assert_wave_matches_baseline(wave, baseline, programs, columns)


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
            wave,
            per_instance_wave_baseline(programs, inputs, rows, 12),
            programs,
            12,
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
                wave,
                per_instance_wave_baseline(programs, inputs, rows, columns),
                programs,
                columns,
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
            wave,
            per_instance_wave_baseline(programs, inputs, rows, columns),
            programs,
            columns,
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
            wave,
            per_instance_wave_baseline([program], inputs, 7, 4, "reference"),
            [program],
            4,
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
            wave,
            per_instance_wave_baseline([program], inputs, rows, 5, "reference"),
            [program],
            5,
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
            wave,
            per_instance_wave_baseline([program], inputs, rows, 5, "reference"),
            [program],
            5,
        )

    def test_declines_nanowires_longer_than_a_word(self, rng, monkeypatch):
        """65 domains do not fit one uint64 word: the wave declines through
        ``_decline("geometry")`` and the staging pre-flight refuses too."""
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
        assert wave_staging_plan(programs, columns, 4, technology=technology) is None

    def test_per_instance_stats_diverge_with_data(self):
        """Write-phase counters are data-dependent and tracked per instance."""
        programs, columns = add_tile(6)
        rows = 8
        busy = [{"a": np.full(rows, 17), "b": np.full(rows, 13)}]
        idle = [{"a": np.zeros(rows, dtype=np.int64),
                 "b": np.zeros(rows, dtype=np.int64)}]
        wave = execute_program_wave(programs, [busy, idle], rows, columns)
        assert wave is not None
        busy_stats, busy_checksum, _ = wave[0]
        idle_stats, idle_checksum, _ = wave[1]
        assert busy_stats.write_phases > idle_stats.write_phases
        assert busy_checksum != idle_checksum
        # Data-independent counters stay identical across instances.
        assert busy_stats.search_phases == idle_stats.search_phases

    def test_chunked_wave_byte_identical(self, rng, monkeypatch):
        """Chunking (bounded stacked state) must not change any observable."""
        programs, columns = add_tile(7)
        rows = 5
        inputs = self._tile_inputs(programs, rows, instances=6, rng=rng)
        whole = execute_program_wave(programs, inputs, rows, columns)
        monkeypatch.setattr(batched_module, "_WAVE_CHUNK_BYTES", 1)
        chunked = execute_program_wave(programs, inputs, rows, columns)
        assert whole is not None and chunked is not None
        for left, right in zip(whole, chunked):
            assert left[0] == right[0]
            assert left[1] == right[1]
            assert np.array_equal(left[2], right[2])

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
            assert legacy[1] == wave[1]
            assert np.array_equal(legacy[2], wave[2])

    def test_staging_plan_reports_load_widths(self):
        programs, columns = add_tile(7)
        assert wave_staging_plan(programs, columns, 6) == [{"a": 7, "b": 7}]
        # The tile's lockstep schedule is built here, at deploy, not by the
        # first request.
        sequences = programs[0].__dict__["_wave_sequences"].values()
        assert any(
            isinstance(sequence.schedule, batched_module._Schedule)
            for sequence in sequences
        )

    def test_staging_plan_declines_bad_geometry(self):
        programs, _ = add_tile(7)
        assert wave_staging_plan(programs, 0, 4) is None
        assert wave_staging_plan(programs, 4, 0) is None
        assert wave_staging_plan(programs, 4, 4, carry_column=3) is None

    def test_staged_chunking_byte_identical(self, rng, monkeypatch):
        programs, columns = add_tile(7)
        rows = 5
        inputs = [
            [random_inputs(program, rows, rng) for program in programs]
            for _ in range(6)
        ]
        staged = stage_values(programs, inputs, rows)
        whole = execute_program_wave(programs, staged, rows, columns)
        monkeypatch.setattr(batched_module, "_WAVE_CHUNK_BYTES", 1)
        chunked = execute_program_wave(programs, staged, rows, columns)
        assert whole is not None and chunked is not None
        for left, right in zip(whole, chunked):
            assert left[0] == right[0]
            assert left[1] == right[1]
            assert np.array_equal(left[2], right[2])

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
