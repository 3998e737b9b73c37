"""Event counters for CAM arrays.

The functional simulator counts the primitive events (search phases, write
phases, compared bits, written bits, lockstep shifts) so that the exact energy
and latency of a small kernel can be computed and cross-checked against the
analytical performance model used for full networks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.rtm.timing import RTMTechnology


@dataclass
class CAMStats:
    """Primitive event counters accumulated by a :class:`~repro.cam.array.CAMArray`."""

    #: Number of parallel search phases issued.
    search_phases: int = 0
    #: Total number of cell comparisons performed (masked columns x rows).
    searched_bits: int = 0
    #: Number of tagged parallel write phases issued.
    write_phases: int = 0
    #: Total number of cells written (selected columns x tagged rows).
    written_bits: int = 0
    #: Total lockstep shift steps (one step moves every track of a column).
    lockstep_shift_steps: int = 0
    #: Total per-track shift events (steps x rows of the shifted column).
    track_shifts: int = 0
    #: Bits read out of the array through the access ports.
    read_bits: int = 0
    #: Bits loaded into the array from outside (input placement).
    loaded_bits: int = 0

    def merge(self, other: "CAMStats") -> "CAMStats":
        """Return the element-wise sum of two counter sets."""
        return CAMStats(
            search_phases=self.search_phases + other.search_phases,
            searched_bits=self.searched_bits + other.searched_bits,
            write_phases=self.write_phases + other.write_phases,
            written_bits=self.written_bits + other.written_bits,
            lockstep_shift_steps=self.lockstep_shift_steps + other.lockstep_shift_steps,
            track_shifts=self.track_shifts + other.track_shifts,
            read_bits=self.read_bits + other.read_bits,
            loaded_bits=self.loaded_bits + other.loaded_bits,
        )

    # ------------------------------------------------------------------
    def energy_fj(self, technology: RTMTechnology) -> float:
        """Total energy (fJ) implied by the counters under ``technology``."""
        return (
            self.searched_bits * technology.search_energy_fj_per_bit
            + self.written_bits * technology.write_energy_fj_per_bit
            + self.track_shifts * technology.shift_energy_fj
            + self.read_bits * technology.read_energy_fj_per_bit
        )

    def latency_ns(self, technology: RTMTechnology) -> float:
        """Total latency (ns) implied by the counters under ``technology``.

        Search and write phases are serialized within one AP.  Lockstep shifts
        that re-align the nanowires overlap with the phases of the previous
        bit position (the controller prefetches the alignment), so the visible
        latency is the maximum of the phase time and the shift time.
        """
        phase_time = (
            self.search_phases * technology.search_latency_ns
            + self.write_phases * technology.write_latency_ns
        )
        shift_time = self.lockstep_shift_steps * technology.shift_latency_ns
        return max(phase_time, shift_time)

    @property
    def total_phases(self) -> int:
        """Search plus write phases (the AP 'cycles' of the paper's Table I)."""
        return self.search_phases + self.write_phases


#: ``CAMStats`` field names in order: the last axis of a counter matrix
#: (one int64 row per tile or instance, see
#: :func:`repro.runtime.scheduler.aggregate_layer_run`).
COUNTER_FIELDS = tuple(counter.name for counter in fields(CAMStats))
