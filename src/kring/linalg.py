"""Exact linear algebra over the rationals.

Dense matrices with ``Fraction`` entries, deterministic reduced row-echelon
form, and canonical subspaces of Q^n.  Determinism matters here: each
elimination step pivots on the first nonzero column and, within it, the
smallest candidate row index, so the RREF of a matrix is unique.  A
``Subspace`` stores its basis in RREF with zero rows dropped, hence two
subspaces are equal exactly when their representations coincide.

Everything is immutable after construction and safe to share between
threads.  The convention 0**0 = 1 applies when building power matrices, so
degree-zero rows behave like constant functions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, StructureError

Vector = tuple[Fraction, ...]


def vector(entries: Iterable) -> Vector:
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def _rref_rows(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    pivot_row = 0
    pivots: list[int] = []
    for col in range(ncols):
        hit = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col]:
                hit = r
                break
        if hit is None:
            continue
        rows[pivot_row], rows[hit] = rows[hit], rows[pivot_row]
        inv = rows[pivot_row][col] ** -1
        rows[pivot_row] = [c * inv for c in rows[pivot_row]]
        lead = rows[pivot_row]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], lead)]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return rows, pivots


class Matrix:
    """Immutable dense matrix over Q."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence], ncols: int | None = None):
        norm = tuple(vector(r) for r in rows)
        if norm:
            width = len(norm[0])
            if any(len(r) != width for r in norm):
                raise StructureError("rows have inconsistent lengths")
            if ncols is not None and ncols != width:
                raise StructureError("explicit column count disagrees with rows")
        elif ncols is None:
            raise StructureError("an empty matrix needs an explicit column count")
        else:
            width = ncols
        self.rows = norm
        self.nrows = len(norm)
        self.ncols = width

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"Matrix({[list(map(str, r)) for r in self.rows]})"

    def transpose(self) -> "Matrix":
        return Matrix(
            [[self.rows[r][c] for r in range(self.nrows)] for c in range(self.ncols)],
            ncols=self.nrows,
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise StructureError("inner dimensions do not match")
        cols = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        out = [
            [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols]
            for row in self.rows
        ]
        return Matrix(out, ncols=other.ncols)

    def vec_mul(self, v: Sequence[Fraction]) -> Vector:
        """Row-vector times matrix: (v M)_j = sum_i v_i M[i][j]."""
        if len(v) != self.nrows:
            raise StructureError("vector length does not match row count")
        out = [Fraction(0)] * self.ncols
        for vi, row in zip(v, self.rows):
            if vi:
                for j, m in enumerate(row):
                    if m:
                        out[j] += vi * m
        return tuple(out)

    def mat_vec(self, v: Sequence[Fraction]) -> Vector:
        """Matrix times column vector."""
        if len(v) != self.ncols:
            raise StructureError("vector length does not match column count")
        return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in self.rows)

    def rref(self) -> "Matrix":
        rows, _ = _rref_rows([list(r) for r in self.rows], self.ncols)
        return Matrix(rows, ncols=self.ncols)

    def rref_with_pivots(self) -> tuple["Matrix", tuple[int, ...]]:
        rows, pivots = _rref_rows([list(r) for r in self.rows], self.ncols)
        return Matrix(rows, ncols=self.ncols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref_with_pivots()[1])

    def det(self) -> Fraction:
        if self.nrows != self.ncols:
            raise StructureError("determinant of a non-square matrix")
        n = self.nrows
        m = [list(r) for r in self.rows]
        result = Fraction(1)
        for col in range(n):
            hit = next((r for r in range(col, n) if m[r][col]), None)
            if hit is None:
                return Fraction(0)
            if hit != col:
                m[col], m[hit] = m[hit], m[col]
                result = -result
            result *= m[col][col]
            inv = m[col][col] ** -1
            lead = m[col]
            for r in range(col + 1, n):
                if m[r][col]:
                    f = m[r][col] * inv
                    m[r] = [a - f * b for a, b in zip(m[r], lead)]
        return result

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise StructureError("inverse of a non-square matrix")
        n = self.nrows
        ident = Matrix.identity(n)
        aug = [list(r) + list(i) for r, i in zip(self.rows, ident.rows)]
        reduced, pivots = _rref_rows(aug, 2 * n)
        if list(pivots) != list(range(n)):
            raise StructureError("matrix is singular")
        return Matrix([row[n:] for row in reduced], ncols=n)

    def kernel(self) -> tuple[Vector, ...]:
        """Basis of the right null space {x : M x = 0}."""
        reduced, pivots = self.rref_with_pivots()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for f in free:
            sol = [Fraction(0)] * self.ncols
            sol[f] = Fraction(1)
            for r, p in enumerate(pivots):
                sol[p] = -reduced.rows[r][f]
            basis.append(tuple(sol))
        return tuple(basis)

    def solve(self, rhs: Sequence[Fraction]) -> Vector:
        """Unique solution of M x = rhs; requires full column rank."""
        if len(rhs) != self.nrows:
            raise StructureError("right-hand side length does not match")
        aug = [list(r) + [Fraction(b)] for r, b in zip(self.rows, rhs)]
        reduced, pivots = _rref_rows(aug, self.ncols + 1)
        if self.ncols in pivots:
            raise StructureError("inconsistent linear system")
        if len(pivots) != self.ncols:
            raise StructureError("system is underdetermined")
        sol = [Fraction(0)] * self.ncols
        for r, p in enumerate(pivots):
            sol[p] = reduced[r][self.ncols]
        return tuple(sol)


def rref(m: Matrix) -> Matrix:
    """Unique reduced row-echelon form of ``m``."""
    return m.rref()


class Subspace:
    """A linear subspace of Q^n in canonical (RREF basis) form."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Matrix, pivots: tuple[int, ...]):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [vector(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise StructureError("vector length does not match ambient dimension")
        reduced, pivots = Matrix(rows, ncols=ambient_dim).rref_with_pivots()
        kept = [reduced.rows[i] for i in range(len(pivots))]
        return cls(ambient_dim, Matrix(kept, ncols=ambient_dim), pivots)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls.span(ambient_dim, [])

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.span(ambient_dim, Matrix.identity(ambient_dim).rows)

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def basis_vectors(self) -> tuple[Vector, ...]:
        return self.basis.rows

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise StructureError("ambient dimensions differ")

    def reduce(self, v: Sequence) -> Vector:
        """Canonical representative of v modulo this subspace."""
        out = list(vector(v))
        if len(out) != self.ambient_dim:
            raise StructureError("vector length does not match ambient dimension")
        for row, p in zip(self.basis.rows, self.pivots):
            c = out[p]
            if c:
                out = [a - c * b for a, b in zip(out, row)]
        return tuple(out)

    def contains(self, v: Sequence) -> bool:
        return not any(self.reduce(v))

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.span(self.ambient_dim, self.basis.rows + other.basis.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        stacked = Matrix(self.basis.rows + other.basis.rows, ncols=self.ambient_dim)
        vectors = []
        for lam in stacked.transpose().kernel():
            combo = [Fraction(0)] * self.ambient_dim
            for c, row in zip(lam[: self.dim], self.basis.rows):
                if c:
                    for j, b in enumerate(row):
                        combo[j] += c * b
            vectors.append(tuple(combo))
        return Subspace.span(self.ambient_dim, vectors)

    def is_subspace_of(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(other.contains(row) for row in self.basis.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def span(ambient_dim: int, vectors: Iterable[Sequence]) -> Subspace:
    return Subspace.span(ambient_dim, vectors)


def vandermonde_matrix(g: int) -> Matrix:
    """The (2g+1) x (2g+1) matrix with entry m**k at (row m, column k)."""
    if g < 1:
        raise DomainError("g must be at least 1")
    size = 2 * g + 1
    return Matrix(
        [[Fraction(m) ** k for k in range(size)] for m in range(size)]
    )


def vandermonde_det(g: int) -> Fraction:
    """Determinant of the power matrix (m**k), 0 <= m, k <= 2g; never zero."""
    return vandermonde_matrix(g).det()
