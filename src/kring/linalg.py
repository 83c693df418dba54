"""Exact linear algebra over the rationals, run on integers.

Deterministic reduced row-echelon form and canonical subspaces of Q^n.
Every elimination runs on integer rows: a rational row is first scaled by
the least common multiple of its denominators, which changes neither its
span nor the RREF, and one fraction-free Gauss-Jordan core (``_bareiss``)
reduces the integer rows with exact integer divisions only; ``_rref_rows``
puts its result in canonical form.  The model's Fourier inverse, the
Vandermonde determinant and the pushforward relations run on that core
too.  Determinism matters here: each elimination step pivots on the first
nonzero column and, within it, the smallest candidate row index.

A ``Subspace`` stores its RREF basis with zero rows dropped, each row as
integer numerators over one positive denominator in lowest terms, so the
numerator at the row's pivot equals its denominator.  That form is unique,
hence two subspaces are equal exactly when their stored rows coincide.
``Subspace.span``, ``reduce`` and ``contains`` take a model ``Element``
(read through its ``nums`` and ``den``) as well as a rational sequence, so
no ``Fraction`` is built between the two; ``basis`` hands the rows out as
``Fraction``s.  ``span`` eliminates one primitive integer row per
direction, as the RREF depends neither on the rows' order nor on their
multiplicity or scale, and ``Subspace.coordinate`` writes the span of unit
vectors down in RREF form without elimination.

Everything is immutable after construction and safe to share between
threads.  The convention 0**0 = 1 applies when building power matrices, so
degree-zero rows behave like constant functions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DomainError, StructureError

Vector = tuple[Fraction, ...]

# one canonical RREF row: integer numerators over a positive denominator,
# in lowest terms, with the numerator at the pivot equal to the denominator
Row = tuple[tuple[int, ...], int]


def vector(entries: Iterable) -> Vector:
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def _fractions(nums: Sequence[int], den: int) -> Vector:
    return tuple(Fraction(n, den) for n in nums)


def _integer_row(v) -> tuple[Sequence[int], int]:
    """Integer numerators and a positive denominator of the vector ``v``: an
    ``Element``'s own ``nums`` and ``den``, an ``int`` sequence over 1, or a
    rational sequence over the least common multiple of its denominators."""
    nums = getattr(v, "nums", None)
    if nums is not None:
        return nums, v.den
    v = tuple(v)
    if all(type(c) is int for c in v):
        return v, 1
    cs = vector(v)
    den = lcm(*(c.denominator for c in cs))
    return tuple(c.numerator * (den // c.denominator) for c in cs), den


def _bareiss(rows: list[Sequence[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer ``rows``, in place.

    With lead the pivot row, p its pivot entry and prev the pivot of the
    step before (1 at the first step), every other row r becomes
    (p * r - r[col] * lead) / prev.  Each entry stays a minor of the input,
    so every division is exact (Bareiss, Math. Comp. 22, 1968), and after
    the last step each pivot row is the last pivot times its RREF row; the
    rows below the rank are zero.  Returns the pivot columns and the last
    pivot, negated once per row swap: for a square nonsingular matrix, its
    determinant.
    """
    prev, sign = 1, 1
    pivots: list[int] = []
    n = len(rows)
    for col in range(ncols):
        pivot_row = len(pivots)
        if pivot_row == n:
            break
        hit = next((r for r in range(pivot_row, n) if rows[r][col]), None)
        if hit is None:
            continue
        if hit != pivot_row:
            rows[pivot_row], rows[hit] = rows[hit], rows[pivot_row]
            sign = -sign
        lead = rows[pivot_row]
        p = lead[col]
        for r, row in enumerate(rows):
            if r == pivot_row:
                continue
            f = row[col]
            if f:
                rows[r] = [(p * a - f * b) // prev for a, b in zip(row, lead)]
            elif p != prev:
                rows[r] = [p * a // prev for a in row]
        prev = p
        pivots.append(col)
    return pivots, sign * prev


def _rref_rows(rows: list[Sequence[int]], ncols: int) -> tuple[list[Row], list[int]]:
    """The nonzero RREF rows of the integer ``rows`` in canonical form, and
    their pivot columns."""
    pivots, _ = _bareiss(rows, ncols)
    out = []
    for row, col in zip(rows, pivots):
        g = gcd(*row)
        if row[col] < 0:
            g = -g
        out.append((tuple(a // g for a in row), row[col] // g))
    return out, pivots


def _integer_kernel(rows: list[Sequence[int]], ncols: int) -> list[tuple[list[int], int]]:
    """Basis of {x : rows . x = 0}, one pair (x, s) per free column f, with
    x an integer vector whose entry at f is s > 0: x / s is the kernel
    vector with 1 at f."""
    reduced, pivots = _rref_rows(rows, ncols)
    pivot_set = set(pivots)
    out = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        s = lcm(*(den for nums, den in reduced if nums[f]))
        x = [0] * ncols
        x[f] = s
        for (nums, den), p in zip(reduced, pivots):
            x[p] = -nums[f] * (s // den)
        out.append((x, s))
    return out


def _reduce(
    rows: Sequence[Row], pivots: Sequence[int], v, ncols: int
) -> tuple[Sequence[int], int]:
    """Integer numerators and a positive denominator of ``v`` minus its part
    in the span of ``rows``, each a row (numerators, denominator) whose
    numerator at its pivot equals its denominator and which is zero at the
    pivots of the rows before it."""
    out, den = _integer_row(v)
    if len(out) != ncols:
        raise StructureError("vector length does not match ambient dimension")
    for (row, row_den), p in zip(rows, pivots):
        c = out[p]
        if c:
            # out/den - (c/den) (row/row_den), over den * row_den
            out = [row_den * a - c * b for a, b in zip(out, row)]
            den *= row_den
    return out, den


def _insert(rows: list[Row], pivots: list[int], v, ncols: int) -> tuple[int, ...] | None:
    """Append to the echelon ``rows`` / ``pivots`` (see ``_reduce``) the
    remainder of ``v``, made primitive with a positive pivot at its first
    nonzero entry, and return its numerators; None if ``v`` is in the span."""
    out = _reduce(rows, pivots, v, ncols)[0]
    p = next((k for k, a in enumerate(out) if a), None)
    if p is None:
        return None
    g = gcd(*out) if out[p] > 0 else -gcd(*out)
    row = tuple(a // g for a in out)
    rows.append((row, row[p]))
    pivots.append(p)
    return row


class Subspace:
    """A linear subspace of Q^n in canonical (RREF basis) form: ``rows``
    holds one canonical integer row (numerators, denominator) per basis
    vector, ``pivots`` their pivot columns."""

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim: int, rows: tuple[Row, ...], pivots: tuple[int, ...]):
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable) -> "Subspace":
        """Span of ``vectors``: ``Element``s or rational sequences.  Only one
        row per direction is eliminated: its primitive integer row (gcd 1,
        first nonzero entry positive), in order of first occurrence."""
        rows = {}
        for v in vectors:
            nums = _integer_row(v)[0]
            if len(nums) != ambient_dim:
                raise StructureError("vector length does not match ambient dimension")
            g = gcd(*nums)
            if g:
                g = g if next(a for a in nums if a) > 0 else -g
                rows.setdefault(nums if g == 1 else tuple(a // g for a in nums))
        reduced, pivots = _rref_rows(list(rows), ambient_dim)
        return cls(ambient_dim, tuple(reduced), tuple(pivots))

    @classmethod
    def coordinate(cls, ambient_dim: int, indices: Iterable[int]) -> "Subspace":
        """Span of the unit vectors e_i, i in ``indices``: already in RREF."""
        pivots = tuple(sorted(set(indices)))
        if pivots and not 0 <= pivots[0] <= pivots[-1] < ambient_dim:
            raise StructureError("coordinate index outside the ambient dimension")
        rows = tuple(((0,) * i + (1,) + (0,) * (ambient_dim - i - 1), 1) for i in pivots)
        return cls(ambient_dim, rows, pivots)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls.coordinate(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.coordinate(ambient_dim, range(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[Vector, ...]:
        """The RREF basis as rows of ``Fraction``s."""
        return tuple(_fractions(nums, den) for nums, den in self.rows)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise StructureError("ambient dimensions differ")

    def reduce(self, v) -> Row:
        """Canonical representative of v (an ``Element`` or a rational
        sequence) modulo this subspace, as integer numerators over one
        positive denominator in lowest terms."""
        out, den = _reduce(self.rows, self.pivots, v, self.ambient_dim)
        g = gcd(den, *out)
        return tuple(a // g for a in out), den // g

    def contains(self, v) -> bool:
        return not any(self.reduce(v)[0])

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.span(
            self.ambient_dim, [nums for nums, _ in self.rows + other.rows]
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """The vectors sum_i lam_i a_i over the kernel vectors lam of the
        transposed stack of both bases, a_i running over this basis."""
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        stacked = [nums for nums, _ in self.rows + other.rows]
        vectors = []
        for lam, _ in _integer_kernel(list(zip(*stacked)), len(stacked)):
            combo = [0] * self.ambient_dim
            for c, (row, _) in zip(lam, self.rows):
                if c:
                    combo = [a + c * b for a, b in zip(combo, row)]
            vectors.append(combo)
        return Subspace.span(self.ambient_dim, vectors)

    def is_subspace_of(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(other.contains(nums) for nums, _ in self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def vandermonde_matrix(g: int) -> tuple[tuple[int, ...], ...]:
    """The (2g+1) x (2g+1) integer rows with entry m**k at (row m, column k)."""
    if g < 1:
        raise DomainError("g must be at least 1")
    size = 2 * g + 1
    return tuple(tuple(m**k for k in range(size)) for m in range(size))


def vandermonde_det(g: int) -> int:
    """Determinant of the power matrix (m**k), 0 <= m, k <= 2g: the last
    Bareiss pivot, since distinct nodes make the matrix nonsingular."""
    return _bareiss(list(vandermonde_matrix(g)), 2 * g + 1)[1]
