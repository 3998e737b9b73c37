"""Signed linear expressions over input patch elements and CSE temporaries.

After constant weight folding, every output channel of a weight slice is a
*linear expression*: a sum of patch elements ``x_k`` with coefficients in
{-1, +1} (zero-weight terms disappear).  CSE introduces temporaries ``t_j``
that are themselves two-term expressions.  This module provides the small
algebra the folding and CSE passes operate on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import CompilationError


@dataclass(frozen=True, order=True)
class Term:
    """A reference to a value: an input patch element or a CSE temporary.

    Attributes:
        kind: ``"input"`` for patch elements ``x_k``; ``"temp"`` for CSE
            temporaries ``t_j``.
        index: the element / temporary index.
    """

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in ("input", "temp"):
            raise CompilationError(f"unknown term kind {self.kind!r}")
        if self.index < 0:
            raise CompilationError(f"term index must be >= 0, got {self.index}")

    @property
    def symbol(self) -> str:
        """Short printable name (``x3`` or ``t1``)."""
        prefix = "x" if self.kind == "input" else "t"
        return f"{prefix}{self.index}"

    @classmethod
    def input(cls, index: int) -> "Term":
        """Input patch element ``x_index``."""
        return cls(kind="input", index=index)

    @classmethod
    def temp(cls, index: int) -> "Term":
        """CSE temporary ``t_index``."""
        return cls(kind="temp", index=index)


#: A signed term: (term, sign) with sign in {-1, +1}.
SignedTerm = Tuple[Term, int]


class LinearExpression:
    """A signed sum of terms with unit coefficients.

    The expression is stored as an ordered mapping ``term -> sign``.  Ternary
    folding guarantees each term appears at most once per expression (a weight
    is a single value in {-1, 0, +1}), and the CSE pass preserves this
    invariant.
    """

    def __init__(self, terms: Optional[Iterable[SignedTerm]] = None) -> None:
        self._terms: Dict[Term, int] = {}
        for term, sign in terms or ():
            self.add_term(term, sign)

    @classmethod
    def from_unique_terms(cls, terms: Dict[Term, int]) -> "LinearExpression":
        """Wrap a ``term -> sign`` mapping that already satisfies the invariants.

        The mapping (distinct terms, signs in {-1, +1}) is adopted as is,
        without a copy or per-term checks - the CSE pass builds its rewritten
        rows this way.
        """
        expression = cls.__new__(cls)
        expression._terms = terms
        return expression

    # ------------------------------------------------------------------
    def add_term(self, term: Term, sign: int) -> None:
        """Add a signed term; opposite signs cancel, equal signs are an error.

        Ternary weight folding never produces repeated terms; a repeat with
        the same sign would mean a coefficient of +/-2, which the AP's
        add/sub-only instruction set cannot represent in one term.
        """
        if sign not in (-1, 1):
            raise CompilationError(f"term sign must be +/-1, got {sign}")
        if term in self._terms:
            if self._terms[term] == sign:
                raise CompilationError(
                    f"term {term.symbol} would get coefficient 2; expressions must "
                    "stay ternary"
                )
            del self._terms[term]
            return
        self._terms[term] = sign

    def remove_term(self, term: Term) -> int:
        """Remove a term and return its sign."""
        try:
            return self._terms.pop(term)
        except KeyError as exc:
            raise CompilationError(f"term {term.symbol} not present") from exc

    def sign_of(self, term: Term) -> Optional[int]:
        """Sign of ``term`` in the expression, or ``None`` when absent."""
        return self._terms.get(term)

    def __contains__(self, term: Term) -> bool:
        return term in self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[SignedTerm]:
        return iter(self._terms.items())

    def terms(self) -> List[SignedTerm]:
        """The signed terms in insertion order."""
        return list(self._terms.items())

    def copy(self) -> "LinearExpression":
        """Shallow copy of the expression."""
        return LinearExpression(self.terms())

    # ------------------------------------------------------------------
    @property
    def num_operations(self) -> int:
        """Add/sub operations needed to evaluate the expression in isolation.

        ``n`` terms need ``n - 1`` binary operations; empty and single-term
        expressions are free (a zero output or a (possibly negated) copy).
        This is the counting convention under which the paper's Eq. 1 example
        costs 7 operations after CSE.
        """
        return max(0, len(self._terms) - 1)

    def substitute_pair(
        self, first: SignedTerm, second: SignedTerm, replacement: Term
    ) -> Optional[int]:
        """Replace the pair ``first, second`` (or its negation) by ``replacement``.

        Returns the sign given to ``replacement`` (+1 when the pair appears
        with the stored polarity, -1 when it appears fully negated), or
        ``None`` if the pair is not present.
        """
        first_term, first_sign = first
        second_term, second_sign = second
        got_first = self.sign_of(first_term)
        got_second = self.sign_of(second_term)
        if got_first is None or got_second is None:
            return None
        if got_first == first_sign and got_second == second_sign:
            polarity = 1
        elif got_first == -first_sign and got_second == -second_sign:
            polarity = -1
        else:
            return None
        self.remove_term(first_term)
        self.remove_term(second_term)
        self.add_term(replacement, polarity)
        return polarity

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts: List[str] = []
        for index, (term, sign) in enumerate(self._terms.items()):
            if index == 0:
                parts.append(("-" if sign < 0 else "") + term.symbol)
            else:
                parts.append(("- " if sign < 0 else "+ ") + term.symbol)
        return " ".join(parts)
