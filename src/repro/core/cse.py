"""Common-subexpression elimination over ternary weight slices (paper Sec. IV-A).

The CSE pass looks for two-term patterns (``x_i + x_j`` or ``x_i - x_j``, up
to overall negation) that occur in several output-channel expressions of the
same weight slice, extracts the most frequent pattern into a temporary, and
repeats until no pattern occurs at least twice.  Because the AP provides
negative-output operations at the same cost, a pattern and its negation are
interchangeable and are counted together.

This greedy two-term elimination is the classic Hartley-style CSE used for
multiple-constant multiplication and reproduces the paper's Eq. 1 example
exactly: the 6x6 ternary MVM drops from ~20 operations to 7.

Implementation note: the entry point takes folded
:class:`~repro.core.expr.LinearExpression` rows or the ternary weight slice
itself and returns expressions, but the search runs on an integer-encoded
representation with an incremental pattern index and a bucket queue of
pattern counts (`_FastCSE`), because networks like ResNet-18 contain
thousands of weight slices and a naive re-count per extraction is far too
slow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.expr import LinearExpression, SignedTerm, Term
from repro.errors import CompilationError
from repro.utils.validation import check_ternary

#: Canonical pair key: ((term_a, sign_a), (term_b, sign_b)) with term_a < term_b
#: and the first sign normalised to +1.
PairKey = Tuple[SignedTerm, SignedTerm]


@dataclass
class CSEDefinition:
    """One extracted temporary: ``temp = sign_a * a + sign_b * b``."""

    temp: Term
    first: SignedTerm
    second: SignedTerm

    @property
    def expression(self) -> LinearExpression:
        """The two-term defining expression."""
        return LinearExpression([self.first, self.second])

    def __repr__(self) -> str:
        return f"{self.temp.symbol} = {self.expression!r}"


@dataclass
class CSEResult:
    """Outcome of CSE on one weight slice."""

    #: Extracted temporaries in definition order (each is one add/sub).
    definitions: List[CSEDefinition] = field(default_factory=list)
    #: Output-channel expressions rewritten in terms of inputs and temporaries.
    rows: List[LinearExpression] = field(default_factory=list)
    #: Operation count before elimination (standalone-MVM convention).
    original_operations: int = 0

    # ------------------------------------------------------------------
    @property
    def num_definitions(self) -> int:
        """Number of extracted temporaries (one operation each)."""
        return len(self.definitions)

    @property
    def row_operations(self) -> int:
        """Operations needed for the rewritten rows (standalone-MVM convention)."""
        return sum(row.num_operations for row in self.rows)

    @property
    def total_operations(self) -> int:
        """Definitions plus row operations (the paper's Eq. 1 counting)."""
        return self.num_definitions + self.row_operations

    @property
    def fused_row_operations(self) -> int:
        """Row operations when every term is accumulated directly into the OFM.

        In a convolution the row result is added into the output channel's
        running partial sum, so an ``n``-term row costs ``n`` operations
        instead of ``n - 1``.
        """
        return sum(len(row) for row in self.rows)

    @property
    def fused_total_operations(self) -> int:
        """Definitions plus fused-accumulation row operations."""
        return self.num_definitions + self.fused_row_operations

    @property
    def reduction_ratio(self) -> float:
        """Fraction of operations eliminated (standalone-MVM convention)."""
        if self.original_operations == 0:
            return 0.0
        return 1.0 - self.total_operations / self.original_operations

    def temp_use_counts(self) -> Dict[Term, int]:
        """How many times each temporary is consumed (rows plus definitions)."""
        counts: Dict[Term, int] = {definition.temp: 0 for definition in self.definitions}
        for expression in list(self.rows) + [d.expression for d in self.definitions]:
            for term, _ in expression:
                if term.kind == "temp" and term in counts:
                    counts[term] += 1
        return counts


# ----------------------------------------------------------------------
# Fast integer-encoded engine
# ----------------------------------------------------------------------
#: Canonical integer pattern ``(a, b, relative_sign)`` with ``a < b``.
Pattern = Tuple[int, int, int]


class _FastCSE:
    """Greedy pair CSE on integer-encoded rows with an incremental index.

    Terms are encoded as non-negative integers: inputs are ``0 .. num_inputs-1``
    and temporaries continue from ``num_inputs``.  Each row is a dict
    ``code -> sign``.  The pattern index maps a canonical pattern
    ``(a, b, relative_sign)`` (with ``a < b``) to the set of rows containing
    it, and a bucket queue maps every occurrence count to the patterns that
    occur that often.  Both "find the most frequent pattern" and "rewrite the
    affected rows" are therefore proportional to the work actually done.
    """

    def __init__(self, rows: List[Dict[int, int]], num_inputs: int) -> None:
        self.rows = rows
        self.num_inputs = num_inputs
        self.next_code = num_inputs
        #: pattern -> set of row indices currently containing it.
        self.index: Dict[Pattern, Set[int]] = {}
        #: occurrence count -> patterns with that many rows (no empty buckets).
        self.buckets: Dict[int, Set[Pattern]] = {}
        #: extracted definitions: (temp_code, a_code, b_code, relative_sign).
        self.definitions: List[Tuple[int, int, int, int]] = []
        index = self.index
        for row_index, row in enumerate(rows):
            items = sorted(row.items())
            for i, (a, sign_a) in enumerate(items):
                for b, sign_b in items[i + 1 :]:
                    index.setdefault((a, b, sign_a * sign_b), set()).add(row_index)
        for key, key_rows in index.items():
            self.buckets.setdefault(len(key_rows), set()).add(key)

    # ------------------------------------------------------------------
    def _move(self, key: Pattern, old_count: int, new_count: int) -> None:
        """Move ``key`` from the ``old_count`` bucket to the ``new_count`` one."""
        buckets = self.buckets
        if old_count:
            bucket = buckets[old_count]
            bucket.discard(key)
            if not bucket:
                del buckets[old_count]
        if new_count:
            buckets.setdefault(new_count, set()).add(key)

    def _index_add(self, row_index: int, a: int, b: int) -> None:
        row = self.rows[row_index]
        key = (a, b, row[a] * row[b]) if a < b else (b, a, row[a] * row[b])
        rows = self.index.setdefault(key, set())
        if row_index not in rows:
            rows.add(row_index)
            self._move(key, len(rows) - 1, len(rows))

    def _index_remove(self, row_index: int, a: int, b: int) -> None:
        row = self.rows[row_index]
        key = (a, b, row[a] * row[b]) if a < b else (b, a, row[a] * row[b])
        rows = self.index.get(key)
        if rows is not None and row_index in rows:
            rows.discard(row_index)
            self._move(key, len(rows) + 1, len(rows))
            if not rows:
                del self.index[key]

    # ------------------------------------------------------------------
    def run(self, min_occurrences: int, max_temporaries: Optional[int]) -> None:
        """Extract patterns until none occurs at least ``min_occurrences`` times.

        Each step extracts the most frequent pattern, the smallest key among
        equally frequent ones.
        """
        buckets = self.buckets
        while max_temporaries is None or len(self.definitions) < max_temporaries:
            if not buckets:
                break
            best_count = max(buckets)
            if best_count < min_occurrences:
                break
            self._extract(min(buckets[best_count]))

    def _extract(self, key: Pattern) -> None:
        a, b, relative_sign = key
        temp_code = self.next_code
        self.next_code += 1
        self.definitions.append((temp_code, a, b, relative_sign))
        affected = list(self.index.get(key, ()))
        for row_index in affected:
            row = self.rows[row_index]
            if a not in row or b not in row or row[a] * row[b] != relative_sign:
                continue
            polarity = row[a]
            # Remove every indexed pattern that involves a or b in this row.
            others = [code for code in row if code not in (a, b)]
            for other in others:
                self._index_remove(row_index, a, other)
                self._index_remove(row_index, b, other)
            self._index_remove(row_index, a, b)
            del row[a]
            del row[b]
            # Insert the temporary and index its new patterns.
            row[temp_code] = polarity
            for other in others:
                self._index_add(row_index, temp_code, other)


def _encode_rows(
    rows: Sequence[LinearExpression],
) -> Tuple[List[Dict[int, int]], int]:
    """Encode LinearExpression rows (inputs only) into integer-keyed dicts."""
    max_input = -1
    encoded: List[Dict[int, int]] = []
    for row in rows:
        current: Dict[int, int] = {}
        for term, sign in row:
            if term.kind != "input":
                raise CompilationError(
                    "CSE expects folded rows over input terms only; run it "
                    "before building temporaries"
                )
            current[term.index] = sign
            max_input = max(max_input, term.index)
        encoded.append(current)
    return encoded, max_input + 1


def _encode_weight_slice(weight_slice: np.ndarray) -> Tuple[List[Dict[int, int]], int]:
    """Encode a ternary ``(Cout, K)`` weight slice into integer-keyed row dicts."""
    weight_slice = check_ternary(np.asarray(weight_slice), name="weight slice")
    if weight_slice.ndim != 2:
        raise CompilationError(
            f"weight slice must be 2-D (Cout, Fh*Fw), got shape {weight_slice.shape}"
        )
    rows, columns = np.nonzero(weight_slice)
    encoded: List[Dict[int, int]] = [{} for _ in range(weight_slice.shape[0])]
    for row, column, sign in zip(
        rows.tolist(), columns.tolist(), weight_slice[rows, columns].tolist()
    ):
        encoded[row][column] = sign
    return encoded, weight_slice.shape[1]


def _build_result(
    engine: _FastCSE,
    original_operations: int,
    first_temp_index: int,
) -> CSEResult:
    """Translate the engine state back into the public CSEResult form."""
    # Temporaries are numbered in definition order.  Every reference gets
    # its own Term object.
    num_inputs = engine.num_inputs
    temp_base = first_temp_index - num_inputs

    def decode(code: int) -> Term:
        if code < num_inputs:
            return Term("input", code)
        return Term("temp", code + temp_base)

    definitions = [
        CSEDefinition(
            temp=Term("temp", temp_code + temp_base),
            first=(decode(a), 1),
            second=(decode(b), relative_sign),
        )
        for temp_code, a, b, relative_sign in engine.definitions
    ]
    rows = [
        LinearExpression.from_unique_terms(
            {decode(code): sign for code, sign in row.items()}
        )
        for row in engine.rows
    ]
    return CSEResult(
        definitions=definitions,
        rows=rows,
        original_operations=original_operations,
    )


# ----------------------------------------------------------------------
# Public entry point
# ----------------------------------------------------------------------
def eliminate_common_subexpressions(
    rows: Union[Sequence[LinearExpression], np.ndarray],
    min_occurrences: int = 2,
    max_temporaries: Optional[int] = None,
    first_temp_index: int = 0,
) -> CSEResult:
    """Greedy two-term CSE over the output-channel expressions of one slice.

    Args:
        rows: folded expressions (one per output channel) over input terms
            only, or the ternary ``(Cout, Fh*Fw)`` weight slice they fold
            from - the whole-network compiler passes the slice and never
            builds the expression objects.  The inputs are not modified.
        min_occurrences: a pattern must occur at least this often (counting a
            pattern and its negation together) to be extracted.
        max_temporaries: optional cap on extracted temporaries.
        first_temp_index: index given to the first temporary (useful when a
            caller numbers temporaries globally).

    Returns:
        A :class:`CSEResult` with the definitions and rewritten rows.
    """
    if min_occurrences < 2:
        raise CompilationError(f"min_occurrences must be >= 2, got {min_occurrences}")
    if isinstance(rows, np.ndarray):
        encoded, num_inputs = _encode_weight_slice(rows)
    else:
        encoded, num_inputs = _encode_rows(rows)
    original_operations = sum(max(0, len(row) - 1) for row in encoded)
    engine = _FastCSE(encoded, num_inputs)
    engine.run(min_occurrences, max_temporaries)
    return _build_result(engine, original_operations, first_temp_index)
