"""Functional model of a CAM array backed by RTM nanowires.

The array exposes exactly the two primitives associative processing is built
from (paper Sec. II-B):

* ``masked_search`` - compare a key against the currently aligned bit of a set
  of columns in every row in parallel; rows where every compared bit matches
  are returned as the *tag* vector.
* ``tagged_write`` - write a data pattern into a set of columns of every
  tagged row in parallel.

Each column is one domain-wall block cluster: the bit position (domain) of a
column that is visible to search/write is the column's current port
alignment, and changing it costs lockstep shifts.

For tractability the cell contents are stored in a single NumPy bit tensor of
shape ``(rows, columns, domains)`` instead of ``rows*columns``
:class:`~repro.rtm.nanowire.Nanowire` objects; the per-event accounting is
identical and is cross-checked against the nanowire model in the tests.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

import numpy as np

from repro.errors import CapacityError, SimulationError
from repro.cam.stats import CAMStats
from repro.rtm.timing import RTMTechnology
from repro.utils.bitops import bit_matrix_to_vector, vector_to_bit_matrix


class CAMArray:
    """A ``rows x columns`` CAM whose cells are multi-bit RTM nanowires.

    Args:
        rows: number of CAM rows (SIMD lanes / match lines).
        columns: number of CAM columns (operand registers).
        technology: RTM figures of merit; defines domains per cell.
    """

    def __init__(
        self,
        rows: int = 256,
        columns: int = 256,
        technology: Optional[RTMTechnology] = None,
    ) -> None:
        if rows <= 0 or columns <= 0:
            raise CapacityError(f"CAM dimensions must be positive, got {rows}x{columns}")
        self.rows = rows
        self.columns = columns
        self.technology = technology or RTMTechnology()
        self.domains = self.technology.domains_per_nanowire
        self._bits = np.zeros((rows, columns, self.domains), dtype=np.uint8)
        self._port_positions = np.zeros(columns, dtype=np.int64)
        self.stats = CAMStats()

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def _check_column(self, column: int) -> None:
        if not (0 <= column < self.columns):
            raise CapacityError(
                f"column {column} out of range [0, {self.columns})"
            )

    def _check_domain(self, position: int) -> None:
        if not (0 <= position < self.domains):
            raise CapacityError(
                f"domain position {position} out of range [0, {self.domains})"
            )

    def _check_rows(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows)
        if rows.dtype == bool:
            if rows.size != self.rows:
                raise SimulationError(
                    f"tag vector length {rows.size} does not match {self.rows} rows"
                )
            return rows
        raise SimulationError("tag must be a boolean vector of length rows")

    # ------------------------------------------------------------------
    # Alignment (shifting)
    # ------------------------------------------------------------------
    def align(self, column: int, position: int) -> int:
        """Shift ``column`` so that domain ``position`` is at the access ports.

        Returns the number of lockstep shift steps performed.
        """
        self._check_column(column)
        self._check_domain(position)
        steps = int(abs(position - self._port_positions[column]))
        if steps:
            self.stats.lockstep_shift_steps += steps
            self.stats.track_shifts += steps * self.rows
            self._port_positions[column] = position
        return steps

    def align_run(self, column: int, first: int, last: int) -> int:
        """Account a monotonic alignment run ``first -> last`` on one column.

        Equivalent to calling :meth:`align` for every position of a
        non-decreasing sequence starting at ``first`` and ending at ``last``
        (the access pattern of bit-serial execution), but in O(1): the step
        count is ``|first - port| + (last - first)``.  Used by the batched
        backend to charge shift events without replaying every position.

        Returns the number of lockstep shift steps performed.
        """
        self._check_column(column)
        self._check_domain(first)
        self._check_domain(last)
        if last < first:
            raise SimulationError(
                f"align_run needs first <= last, got {first} > {last}"
            )
        steps = int(abs(first - self._port_positions[column])) + (last - first)
        if steps:
            self.stats.lockstep_shift_steps += steps
            self.stats.track_shifts += steps * self.rows
            self._port_positions[column] = last
        return steps

    def port_position(self, column: int) -> int:
        """Domain currently aligned at the access ports of ``column``."""
        self._check_column(column)
        return int(self._port_positions[column])

    # ------------------------------------------------------------------
    # AP primitives
    # ------------------------------------------------------------------
    def masked_search(self, key: Mapping[int, int], positions: Mapping[int, int]) -> np.ndarray:
        """Parallel masked search.

        Args:
            key: mapping ``column -> expected bit`` (the masked search key).
            positions: mapping ``column -> domain position`` to align before
                comparing.  Every column in ``key`` must have a position.

        Returns:
            Boolean match vector of length ``rows`` (the tag register input).
        """
        if not key:
            raise SimulationError("masked_search requires at least one keyed column")
        match = np.ones(self.rows, dtype=bool)
        for column, bit in key.items():
            if bit not in (0, 1):
                raise SimulationError(f"search key bits must be 0/1, got {bit!r}")
            if column not in positions:
                raise SimulationError(f"no domain position supplied for column {column}")
            self.align(column, positions[column])
            aligned = self._bits[:, column, positions[column]]
            match &= aligned == bit
        self.stats.search_phases += 1
        self.stats.searched_bits += len(key) * self.rows
        return match

    def tagged_write(
        self,
        tag: np.ndarray,
        values: Mapping[int, int],
        positions: Mapping[int, int],
    ) -> int:
        """Parallel write of ``values`` into every tagged row.

        Args:
            tag: boolean vector selecting the rows to update.
            values: mapping ``column -> bit`` to write.
            positions: mapping ``column -> domain position``.

        Returns:
            The number of cells actually written (tagged rows x columns).
        """
        tag = self._check_rows(tag)
        if not values:
            raise SimulationError("tagged_write requires at least one column value")
        tagged_rows = int(tag.sum())
        for column, bit in values.items():
            if bit not in (0, 1):
                raise SimulationError(f"write bits must be 0/1, got {bit!r}")
            if column not in positions:
                raise SimulationError(f"no domain position supplied for column {column}")
            self.align(column, positions[column])
            self._bits[tag, column, positions[column]] = bit
        self.stats.write_phases += 1
        written = tagged_rows * len(values)
        self.stats.written_bits += written
        return written

    # ------------------------------------------------------------------
    # Operand-level helpers (bulk load / readout)
    # ------------------------------------------------------------------
    def load_operand(
        self,
        column: int,
        values: Iterable[int],
        bitwidth: int,
        domain_offset: int = 0,
        row_offset: int = 0,
    ) -> None:
        """Load a signed operand vector into ``column`` (one value per row).

        This models placing activations into the CAM before computation.  The
        energy of this transfer is charged by the performance model as data
        movement, not as AP search/write work, so only ``loaded_bits`` is
        counted here.
        """
        self._check_column(column)
        values = list(values)
        if row_offset < 0 or row_offset + len(values) > self.rows:
            raise CapacityError(
                f"cannot place {len(values)} values at row offset {row_offset} "
                f"in a CAM with {self.rows} rows"
            )
        if domain_offset < 0 or domain_offset + bitwidth > self.domains:
            raise CapacityError(
                f"operand of {bitwidth} bits at domain offset {domain_offset} "
                f"exceeds {self.domains} domains per cell"
            )
        bit_matrix = vector_to_bit_matrix(values, bitwidth)
        self._bits[
            row_offset : row_offset + len(values),
            column,
            domain_offset : domain_offset + bitwidth,
        ] = bit_matrix
        self.stats.loaded_bits += len(values) * bitwidth

    def clear_operand(self, column: int, bitwidth: int, domain_offset: int = 0) -> None:
        """Zero out an operand region of ``column`` in every row (bulk reset)."""
        self._check_column(column)
        if domain_offset < 0 or domain_offset + bitwidth > self.domains:
            raise CapacityError(
                f"operand of {bitwidth} bits at domain offset {domain_offset} "
                f"exceeds {self.domains} domains per cell"
            )
        self._bits[:, column, domain_offset : domain_offset + bitwidth] = 0

    def read_operand(
        self,
        column: int,
        bitwidth: int,
        domain_offset: int = 0,
        row_offset: int = 0,
        num_rows: Optional[int] = None,
        signed: bool = True,
    ) -> np.ndarray:
        """Read an operand vector back out of ``column`` (access-port readout)."""
        self._check_column(column)
        num_rows = self.rows - row_offset if num_rows is None else num_rows
        if row_offset < 0 or row_offset + num_rows > self.rows:
            raise CapacityError(
                f"cannot read {num_rows} rows at offset {row_offset} from a CAM "
                f"with {self.rows} rows"
            )
        if domain_offset < 0 or domain_offset + bitwidth > self.domains:
            raise CapacityError(
                f"operand of {bitwidth} bits at domain offset {domain_offset} "
                f"exceeds {self.domains} domains per cell"
            )
        bit_matrix = self._bits[
            row_offset : row_offset + num_rows,
            column,
            domain_offset : domain_offset + bitwidth,
        ]
        self.stats.read_bits += num_rows * bitwidth
        return bit_matrix_to_vector(bit_matrix, signed=signed)

    # ------------------------------------------------------------------
    # Backend-internal state access (no hardware events)
    # ------------------------------------------------------------------
    def peek_operand_bits(
        self,
        column: int,
        bitwidth: int,
        domain_offset: int = 0,
        num_rows: Optional[int] = None,
    ) -> np.ndarray:
        """Observe an operand region's raw bits without modelling any event.

        Execution backends that compute results word-parallel use this to
        inspect the model state; they remain responsible for accounting the
        search/write/shift events the modelled hardware would have performed.
        Returns a read-only ``(num_rows, bitwidth)`` uint8 view (LSB first).
        """
        self._check_column(column)
        num_rows = self.rows if num_rows is None else num_rows
        if not (0 <= num_rows <= self.rows):
            raise CapacityError(
                f"cannot peek {num_rows} rows from a CAM with {self.rows} rows"
            )
        if domain_offset < 0 or domain_offset + bitwidth > self.domains:
            raise CapacityError(
                f"operand of {bitwidth} bits at domain offset {domain_offset} "
                f"exceeds {self.domains} domains per cell"
            )
        view = self._bits[:num_rows, column, domain_offset : domain_offset + bitwidth]
        view = view.view()
        view.flags.writeable = False
        return view

    def poke_operand_bits(
        self,
        column: int,
        bits: np.ndarray,
        domain_offset: int = 0,
        row_offset: int = 0,
    ) -> None:
        """Overwrite an operand region's raw bits without modelling any event.

        Counterpart of :meth:`peek_operand_bits` for execution backends: the
        caller has already accounted the tagged-write events analytically and
        commits the resulting state in bulk.  ``bits`` must be a
        ``(num_rows, bitwidth)`` 0/1 matrix (LSB first).
        """
        self._check_column(column)
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 2:
            raise SimulationError(f"expected a 2-D bit matrix, got shape {bits.shape}")
        num_rows, bitwidth = bits.shape
        if row_offset < 0 or row_offset + num_rows > self.rows:
            raise CapacityError(
                f"cannot poke {num_rows} rows at offset {row_offset} in a CAM "
                f"with {self.rows} rows"
            )
        if domain_offset < 0 or domain_offset + bitwidth > self.domains:
            raise CapacityError(
                f"operand of {bitwidth} bits at domain offset {domain_offset} "
                f"exceeds {self.domains} domains per cell"
            )
        self._bits[
            row_offset : row_offset + num_rows,
            column,
            domain_offset : domain_offset + bitwidth,
        ] = bits

    def peek_bit(self, row: int, column: int, position: int) -> int:
        """Observe one stored bit without modelling any hardware event."""
        self._check_column(column)
        self._check_domain(position)
        if not (0 <= row < self.rows):
            raise CapacityError(f"row {row} out of range [0, {self.rows})")
        return int(self._bits[row, column, position])

    def reset(self) -> None:
        """Wipe stored bits, port positions and event counters.

        Restores the array to its just-constructed state so that a pooled
        array can be leased to a new workload and produce byte-identical
        results (state *and* counters) to a freshly constructed array.
        """
        self._bits.fill(0)
        self._port_positions.fill(0)
        self.stats = CAMStats()

    def reset_stats(self) -> CAMStats:
        """Return the accumulated counters and reset them to zero."""
        stats = self.stats
        self.stats = CAMStats()
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"CAMArray(rows={self.rows}, columns={self.columns}, "
            f"domains={self.domains})"
        )
