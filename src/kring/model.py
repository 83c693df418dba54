"""Finite-dimensional bigraded models of a rational Grothendieck ring.

A model is a commutative, associative Q-algebra with a distinguished basis,
each basis vector carrying a bidegree (p, q), 0 <= p, q <= g.  The product
obeys the bidegree law

    K^a_b . K^c_d  is contained in  K^{a+c}_{b+d-g},

and is forced to vanish when a+c > g or b+d-g < 0.  The unit spans the line
K^0_g, a second distinguished class (the origin class, unit of the
convolution product) spans K^g_0, and an invertible Fourier operator
exchanges the two gradings and squares to (-1)^g times the inversion
pullback (the diagonal operator with eigenvalue (-1)^{g+p-q} on K^p_q).
The derived index j = p + q - g ranges over -g .. g and is additive under
multiplication.

The constructor refuses a product index outside the basis and a bidegree
outside 0..g, so every pullback and pushforward weight g -+ (p - q) is
>= 0.  ``validate`` machine-checks every other constraint and reports a
witness for each violation; the bundled builders construct admissible
models and re-verify themselves instead of trusting their own formulas.
It runs on the integer structure constants below, never on ``Element``s
or dense ``Fraction`` matrices.  Associativity is checked as
``TruncatedSeries.exp`` needs it: for i <= j <= k the three bracketings
(e_i e_j) e_k, (e_i e_k) e_j and (e_j e_k) e_i agree, i.e. the associators
of (i, j, k) and, for distinct indices, of (i, k, j) vanish.

Arithmetic is exact and runs on integers.  An ``Element`` stores a tuple
of ``int`` numerators ``nums`` over one positive ``int`` denominator
``den``, always in lowest terms: gcd(den, *nums) == 1, and the zero vector
is (0, ..., 0) over 1.  So two elements are equal exactly when their
numerators and denominators are, and every operation ends with one gcd
over the whole vector instead of one per coordinate.  The structure
constants of both products and of the Fourier operator and its inverse
are likewise integers over one model-wide denominator (``ScaledTable``),
built once per model: the multiplication table and the Fourier operator at
construction, the convolution table and the inverse on first use.  That
table is the Fourier operator's only form: the constructor scales the dense
rows it is given straight into it, the inverse is the RREF of the integer
rows [F * den | den * I], and export writes the dense rows back from it.
``Element.coords`` hands the coordinates out as ``Fraction``s.  On first use
each product gets its ``Product`` record: its table, partner masks and unit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DomainError, StructureError
from .linalg import _bareiss, _integer_row, _rref_rows

MulTable = Mapping[tuple[int, int], Mapping[int, Fraction]]

FOREIGN = "elements belong to different models"


class Bidegree(NamedTuple):
    p: int
    q: int

    def beauville_index(self, g: int) -> int:
        return self.p + self.q - g


class Violation(NamedTuple):
    code: str
    message: str
    witness: tuple = ()


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)

    def __str__(self) -> str:
        if self.ok:
            return "admissible"
        lines = [f"{v.code}: {v.message}" for v in self.violations]
        return "\n".join(lines)


class Element:
    """An exact rational coordinate vector over a model's basis.

    ``Element(model, nums, den)`` takes ``int`` numerators over a nonzero
    ``int`` denominator and stores them in lowest terms (see the module
    docstring); ``ModelAlgebra.from_coords`` and ``element`` coerce
    ``int``, ``str`` or ``Fraction`` coordinates.
    """

    __slots__ = ("model", "nums", "den")

    def __init__(self, model: "ModelAlgebra", nums: Sequence[int], den: int):
        if not den:
            raise DomainError("an element needs a nonzero denominator")
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        nums = tuple(nums) if g == 1 else tuple(n // g for n in nums)
        den //= g
        if len(nums) != model.dim:
            raise StructureError("coordinate length does not match the model")
        self.model = model
        self.nums = nums
        self.den = den

    @property
    def coords(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    def _check_model(self, other: "Element") -> None:
        if self.model is not other.model:
            raise StructureError(FOREIGN)

    def __add__(self, other: "Element") -> "Element":
        self._check_model(other)
        a, b = self.den, other.den
        if a == b:
            return Element(self.model, [x + y for x, y in zip(self.nums, other.nums)], a)
        return Element(
            self.model, [x * b + y * a for x, y in zip(self.nums, other.nums)], a * b
        )

    def __sub__(self, other: "Element") -> "Element":
        self._check_model(other)
        a, b = self.den, other.den
        if a == b:
            return Element(self.model, [x - y for x, y in zip(self.nums, other.nums)], a)
        return Element(
            self.model, [x * b - y * a for x, y in zip(self.nums, other.nums)], a * b
        )

    def __neg__(self) -> "Element":
        return Element(self.model, [-n for n in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.model.multiply(self, other)
        if isinstance(other, int):
            return Element(self.model, [other * n for n in self.nums], self.den)
        if isinstance(other, Fraction):
            p = other.numerator
            nums = [p * n for n in self.nums]
            return Element(self.model, nums, self.den * other.denominator)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int) -> "Element":
        if not isinstance(n, int) or n < 0:
            raise DomainError("powers take non-negative integer exponents")
        result = self.model.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.model is other.model
            and self.den == other.den
            and self.nums == other.nums
        )

    __hash__ = None

    def is_zero(self) -> bool:
        return not any(self.nums)

    def coefficient(self, i: int) -> Fraction:
        return Fraction(self.nums[i], self.den)

    def component(self, p: int, q: int) -> "Element":
        """Projection onto the K^p_q coordinate block."""
        keep = self.model.indices_by_bidegree(p, q)
        return self.model.project(self, keep)

    def beauville_component(self, j: int) -> "Element":
        keep = self.model.indices_by_index(j)
        return self.model.project(self, keep)

    def __repr__(self) -> str:
        return f"Element({self})"

    def __str__(self) -> str:
        parts = []
        for c, label in zip(self.coords, self.model.labels):
            if not c:
                continue
            if c == 1:
                term = label
            elif c == -1:
                term = f"-{label}"
            else:
                term = f"{c}*{label}"
            parts.append(term)
        if not parts:
            return "0"
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


class ScaledTable(NamedTuple):
    """Sparse integer structure constants over one positive denominator.

    For a bilinear product, ``rows[i]`` lists (j, ((k, c), ...)) for every
    nonzero product e_i . e_j, whose coefficient on e_k is c / den.  For a
    linear operator, ``rows[i]`` lists (j, c): the image of e_i has
    coefficient c / den on e_j.
    """

    rows: tuple
    den: int

    def upper_entries(self) -> Iterator[tuple[int, int, tuple]]:
        """(i, j, ((k, c), ...)) for each entry (i, j), j >= i, of a bilinear table, by rows."""
        for i, row in enumerate(self.rows):
            for j, entries in row:
                if j >= i:
                    yield i, j, entries


def _scaled_table(
    table: Mapping[tuple[int, int], Sequence[tuple[int, Fraction]]], dim: int
) -> ScaledTable:
    """``table`` (entry (i, j) lists the nonzero (k, c) of e_i . e_j) over
    the least common denominator of its constants."""
    den = lcm(*(c.denominator for entries in table.values() for _, c in entries))
    rows: list[list] = [[] for _ in range(dim)]
    for (i, j), entries in sorted(table.items()):
        scaled = tuple((k, c.numerator * (den // c.denominator)) for k, c in entries)
        rows[i].append((j, scaled))
    return ScaledTable(tuple(map(tuple, rows)), den)


def _scaled_rows(rows: Sequence[tuple[Sequence[int], int]]) -> ScaledTable:
    """The linear operator whose row i is nums / d for (nums, d) = rows[i],
    as its nonzero entries over their least common denominator."""
    den = lcm(*(d // gcd(d, *nums) for nums, d in rows))
    return ScaledTable(
        tuple(tuple((j, a * den // d) for j, a in enumerate(nums) if a) for nums, d in rows),
        den,
    )


def _dense(table: ScaledTable, width: int) -> list[list[int]]:
    """The numerators of the linear operator ``table`` as dense integer rows
    of length ``width``, zero-padded on the right."""
    out = [[0] * width for _ in table.rows]
    for dense, row in zip(out, table.rows):
        for j, c in row:
            dense[j] = c
    return out


def support(x: Element) -> int:
    """The bitmask of the indices where x has a nonzero coordinate."""
    return sum(1 << i for i, n in enumerate(x.nums) if n)


def reach(partners: Sequence[int], mask: int) -> int:
    """The OR of the partner masks over the indices in ``mask``: the j for
    which some i in the mask has a table entry (i, j)."""
    out = 0
    for i, partner in enumerate(partners):
        if mask >> i & 1:
            out |= partner
    return out


def _accumulate(
    model: "ModelAlgebra", table: ScaledTable, out: list, f: int, x: Element, y: Element, unit=None
) -> Element | None:
    """Add f times the numerators of sum_ij x_i y_j (e_i . e_j) by ``table``,
    over x.den * y.den * table.den, into the list ``out``.  If a factor is
    ``unit`` (a two-sided unit's numerators), return the other, adding none."""
    if x.model is not model or y.model is not model:
        raise StructureError(FOREIGN)
    if unit is not None and x.den == 1 and x.nums == unit:
        return y
    if unit is not None and y.den == 1 and y.nums == unit:
        return x
    ys = y.nums
    for xi, row in zip(x.nums, table.rows):
        if xi:
            for j, entries in row:
                if ys[j]:
                    fxy = f * xi * ys[j]
                    for k, c in entries:
                        out[k] += fxy * c


class Product(NamedTuple):
    """One model product: its table, the numerators of its two-sided unit
    (or None) and its partner masks (entry i: the bitmask of the j with a
    table entry (i, j)).  It multiplies, and it is the series engine's
    kernel, whose ``accumulate`` adds products over x.den * y.den * ``den``."""

    model: "ModelAlgebra"
    table: ScaledTable
    unit: tuple[int, ...] | None
    partners: tuple[int, ...]

    @classmethod
    def of(cls, model: "ModelAlgebra", table: ScaledTable, u: int) -> "Product":
        """The product of ``table``; its unit is e_u if e_u e_i = e_i = e_i e_u for all i."""
        rows, den = table
        ones = tuple((i, ((i, den),)) for i in range(len(rows)))
        unital = rows[u] == ones and all(dict(r).get(u) == c for r, (_, c) in zip(rows, ones))
        unit = tuple(int(i == u) for i in range(len(rows))) if unital else None
        return cls(model, table, unit, tuple(sum(1 << j for j, _ in row) for row in rows))

    @property
    def den(self) -> int:
        return self.table.den

    def multiply(self, x: Element, y: Element) -> Element:
        """One product of ``_accumulate`` as an ``Element``, or its other factor."""
        model, table = self.model, self.table
        out = [0] * model.dim
        other = _accumulate(model, table, out, 1, x, y, self.unit)
        return other if other is not None else Element(model, out, x.den * y.den * table.den)

    def accumulate(self, out: list[int], f: int, x: Element, y: Element) -> None:
        other = _accumulate(self.model, self.table, out, f, x, y, self.unit)
        for k, n in enumerate(other.nums if other is not None else ()):
            out[k] += f * self.table.den * n

    def split(self, x: Element) -> tuple[tuple[int, ...], int]:
        if x.model is not self.model:
            raise StructureError(FOREIGN)
        return x.nums, x.den

    def build(self, nums: list[int], den: int) -> Element:
        return Element(self.model, nums, den)

    def sum(self, terms: Sequence[tuple[int | Fraction, Element]], den: int) -> Element:
        """sum c * x over ``terms`` (c, x), over ``den``, as one integer vector
        over the lcm of the denominators and one gcd; a lone 1 * x is x."""
        dens = [c.denominator * self.split(x)[1] for c, x in terms]
        if len(terms) == 1 and den == 1 and terms[0][0] == 1:
            return terms[0][1]
        common = lcm(*dens)
        out = [0] * self.model.dim
        for (c, x), d in zip(terms, dens):
            f = c.numerator * (common // d)
            out = [o + f * n for o, n in zip(out, x.nums)]
        return Element(self.model, out, common * den)


def _linear(model: "ModelAlgebra", matrix: ScaledTable, x: Element) -> Element:
    """Row vector x times the operator ``matrix`` (row i = image of e_i)."""
    if x.model is not model:
        raise StructureError(FOREIGN)
    out = [0] * model.dim
    for xi, row in zip(x.nums, matrix.rows):
        if xi:
            for j, c in row:
                out[j] += xi * c
    return Element(model, out, x.den * matrix.den)


class ModelAlgebra:
    """A validated-on-demand bigraded algebra with a Fourier operator.

    Instances are immutable after construction (derived tables such as
    ``star_table`` are built once, on first use); ``validate`` never mutates.
    The multiplication table is stored sparsely: ``mul[(i, j)]`` maps basis
    index k to the coefficient of basis vector k in e_i . e_j, and absent
    pairs multiply to zero.  Products run on its ``ScaledTable`` form.
    """

    def __init__(
        self,
        g: int,
        basis: Sequence[tuple[str, tuple[int, int]]],
        mul: MulTable,
        fm: Sequence[Sequence],
        unit_index: int,
        star_unit_index: int,
    ):
        self.g = int(g)
        self.labels = tuple(label for label, _ in basis)
        self.bidegrees = tuple(Bidegree(int(p), int(q)) for _, (p, q) in basis)
        self.dim = len(self.labels)
        if len(set(self.labels)) != self.dim:
            raise StructureError("basis labels must be unique")
        for label, (p, q) in zip(self.labels, self.bidegrees):
            if not (0 <= p <= self.g and 0 <= q <= self.g):
                raise StructureError(
                    f"basis vector {label} has bidegree {(p, q)} outside 0..{self.g}"
                )
        self.unit_index = int(unit_index)
        self.star_unit_index = int(star_unit_index)
        if not (0 <= self.unit_index < self.dim and 0 <= self.star_unit_index < self.dim):
            raise StructureError("unit indices out of range")
        table: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
        dim = self.dim
        for (i, j), entries in mul.items():
            cleaned = tuple(
                (int(k), f)
                for k, c in sorted(entries.items())
                if (f := c if type(c) is Fraction else Fraction(c))
            )
            if cleaned:
                i, j, lo, hi = int(i), int(j), cleaned[0][0], cleaned[-1][0]
                if not (0 <= i < dim and 0 <= j < dim and 0 <= lo and hi < dim):
                    ks = [k for k, _ in cleaned]
                    raise StructureError(
                        f"mul entry ({i}, {j}) -> {ks} has an index outside 0..{dim - 1}"
                    )
                table[(i, j)] = cleaned
        self._mul = table
        self._table = _scaled_table(table, self.dim)
        # each row over the lcm of its denominators, one coercion per entry
        fm_rows = [_integer_row(row) for row in fm]
        if len(fm_rows) != self.dim or any(len(nums) != self.dim for nums, _ in fm_rows):
            raise StructureError("Fourier matrix must be square of the basis size")
        self._fm = _scaled_rows(fm_rows)
        self._index_of = {label: i for i, label in enumerate(self.labels)}
        # the ``Ring`` of each product by ``star``, built once by ``adams.kind_ring``
        self._rings: dict[bool, object] = {}

    # -- basic accessors -------------------------------------------------

    @property
    def default_series_order(self) -> int:
        return self.g * self.g + 2

    def index_of(self, label: str) -> int:
        try:
            return self._index_of[label]
        except KeyError:
            raise DomainError(f"no basis vector labelled {label!r}") from None

    def beauville_index_of(self, i: int) -> int:
        return self.bidegrees[i].beauville_index(self.g)

    def indices_by_bidegree(self, p: int, q: int) -> tuple[int, ...]:
        return tuple(
            i for i, bd in enumerate(self.bidegrees) if bd.p == p and bd.q == q
        )

    def indices_by_index(self, j: int) -> tuple[int, ...]:
        return tuple(
            i for i in range(self.dim) if self.beauville_index_of(i) == j
        )

    # -- element factories ------------------------------------------------

    def zero(self) -> Element:
        return Element(self, [0] * self.dim, 1)

    def basis_element(self, i: int) -> Element:
        nums = [0] * self.dim
        nums[i] = 1
        return Element(self, nums, 1)

    def one(self) -> Element:
        return self.basis_element(self.unit_index)

    def star_unit(self) -> Element:
        return self.basis_element(self.star_unit_index)

    def element(self, coefficients: Mapping[str, object]) -> Element:
        coords = [0] * self.dim
        for label, c in coefficients.items():
            coords[self.index_of(label)] = c
        return self.from_coords(coords)

    def from_coords(self, coords: Sequence) -> Element:
        return Element(self, *_integer_row(coords))

    def basis_elements(self) -> tuple[Element, ...]:
        return tuple(self.basis_element(i) for i in range(self.dim))

    def project(self, x: Element, keep: Iterable[int]) -> Element:
        keep = set(keep)
        return Element(self, [n if i in keep else 0 for i, n in enumerate(x.nums)], x.den)

    # -- products ----------------------------------------------------------

    def mul_basis(self, i: int, j: int) -> tuple[tuple[int, Fraction], ...]:
        return self._mul.get((i, j), ())

    def multiply(self, x: Element, y: Element) -> Element:
        return self.usual.multiply(x, y)

    def star_multiply(self, x: Element, y: Element) -> Element:
        """Convolution product, read off ``star_table``."""
        return self.convolution.multiply(x, y)

    @cached_property
    def usual(self) -> Product:
        """The ordinary product, over the multiplication table."""
        return Product.of(self, self._table, self.unit_index)

    @cached_property
    def convolution(self) -> Product:
        """The convolution product, over ``star_table``."""
        return Product.of(self, self.star_table, self.star_unit_index)

    def fourier(self, x: Element) -> Element:
        """Image under the Fourier operator (row i of ``_fm`` = image of e_i)."""
        return _linear(self, self._fm, x)

    def fourier_inverse(self, x: Element) -> Element:
        return _linear(self, self._fm_inverse, x)

    @cached_property
    def _fm_inverse(self) -> ScaledTable:
        """F^-1 from the RREF of the integer rows [F * den | den * I]."""
        n, den = self.dim, self._fm.den
        aug = _dense(self._fm, 2 * n)
        for i, row in enumerate(aug):
            row[n + i] = den
        reduced, pivots = _rref_rows(aug, 2 * n)
        if pivots != list(range(n)):
            raise StructureError(
                "the Fourier matrix is singular, so F^-1 and the convolution "
                "product F^-1(F x . F y) are undefined"
            )
        return _scaled_rows([(nums[n:], d) for nums, d in reduced])

    @cached_property
    def star_table(self) -> ScaledTable:
        """Structure constants of the convolution product, stored like the
        multiplication table: entry (i, j) holds the nonzero coordinates of
        F^-1(F e_i . F e_j).  Both sides are bilinear, so the convolution of
        any two elements is exactly the table's bilinear form.  Built on
        first use and owned by the model, so it lives as long as the model.
        A pair whose F e_i reaches (by the partner masks of ``usual``) no
        index in the support of F e_j has no product table entry to sum, so
        it is skipped as zero."""
        images = [self.fourier(self.basis_element(i)) for i in range(self.dim)]
        supports = [support(f) for f in images]
        reaches = [reach(self.usual.partners, s) for s in supports]
        table = {}
        for i, fi in enumerate(images):
            for j, fj in enumerate(images):
                if not reaches[i] & supports[j]:
                    continue
                z = self.fourier_inverse(self.usual.multiply(fi, fj))
                entries = tuple((k, z.coefficient(k)) for k, n in enumerate(z.nums) if n)
                if entries:
                    table[(i, j)] = entries
        return _scaled_table(table, self.dim)

    def __repr__(self) -> str:
        return f"ModelAlgebra(g={self.g}, dim={self.dim})"


def _inversion_sign(model: ModelAlgebra, i: int) -> int:
    p, q = model.bidegrees[i]
    return (-1) ** (model.g + p - q)


def _collect(terms: Iterable[tuple[int, int]]) -> dict[int, int]:
    """The (index, value) ``terms`` summed per index, zero sums dropped."""
    out: dict[int, int] = {}
    for k, v in terms:
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def validate(model: ModelAlgebra) -> ValidationReport:
    """Machine-check every model invariant; empty report iff admissible.
    The work is in proportion to the table entries: one associativity pass
    per left factor, and the Fourier rank only when the square law fails."""
    g = model.g
    violations: list[Violation] = []

    def flag(code: str, message: str, witness: tuple = ()):
        violations.append(Violation(code, message, witness))

    unit_bd = model.bidegrees[model.unit_index]
    if unit_bd != (0, g):
        flag("unit-bidegree", f"unit must lie in K^0_{g}, found {tuple(unit_bd)}")
    star_bd = model.bidegrees[model.star_unit_index]
    if star_bd != (g, 0):
        flag(
            "origin-bidegree",
            f"origin class must lie in K^{g}_0, found {tuple(star_bd)}",
        )
    unit_line = model.indices_by_bidegree(0, g)
    if len(unit_line) != 1:
        flag(
            "unit-line",
            "the K^0_g block must be the one-dimensional line of the unit",
            tuple(model.labels[i] for i in unit_line),
        )
    origin_line = model.indices_by_bidegree(g, 0)
    if len(origin_line) != 1:
        flag(
            "origin-line",
            "the K^g_0 block must be the one-dimensional line of the origin class",
            tuple(model.labels[i] for i in origin_line),
        )

    dim, labels, den = model.dim, model.labels, model._table.den
    # products[i][j]: the nonzero (k, c) of e_i . e_j, c over den
    products = [dict(row) for row in model._table.rows]

    u = model.unit_index
    for i in range(dim):
        if products[u].get(i) != ((i, den),):
            flag("unit-product", f"1 * {labels[i]} != {labels[i]}", (labels[i],))

    for i in range(dim):
        for j in range(i + 1, dim):
            if products[i].get(j, ()) != products[j].get(i, ()):
                flag(
                    "mul-commutativity",
                    f"{labels[i]} * {labels[j]} differs from the reversed product",
                    (labels[i], labels[j]),
                )

    for (i, j), entries in model._mul.items():
        a, b = model.bidegrees[i]
        c, d = model.bidegrees[j]
        tp, tq = a + c, b + d - g
        allowed = tp <= g and tq >= 0
        for k, _ in entries:
            if not allowed:
                flag(
                    "bidegree-law",
                    f"{labels[i]} * {labels[j]} must vanish "
                    f"(target bidegree ({tp},{tq}) is out of range)",
                    (labels[i], labels[j], labels[k]),
                )
            elif model.bidegrees[k] != (tp, tq):
                flag(
                    "bidegree-law",
                    f"{labels[i]} * {labels[j]} hits {labels[k]} outside K^{tp}_{tq}",
                    (labels[i], labels[j], labels[k]),
                )

    # for i <= j <= k, the bracketings (e_i e_j) e_k, (e_i e_k) e_j and
    # (e_j e_k) e_i must agree: the associators of (x, y, z) = (i, j, k) and,
    # for three distinct indices, of (i, k, j) vanish.  So x is the least
    # index, and (y, z) with y, z >= x is checked unless z = x < y.  The pass
    # of x sums (e_x e_y) e_z over the chains (x, y) -> m -> (m, z) and
    # e_x (e_y e_z) over (y, z) -> m -> (x, m) of the table.
    rows = model._table.rows
    for x in range(dim):
        # associator[(y, z, n)]: coefficient of e_n, over den^2
        associator: dict[tuple[int, int, int], int] = {}
        for y, entries in rows[x]:
            if y >= x:
                for m, c in entries:
                    for z, ends in rows[m]:
                        if z > x or z == y == x:
                            for n, d in ends:
                                key = (y, z, n)
                                associator[key] = associator.get(key, 0) + c * d
        left = products[x]
        for y in range(x, dim):
            for z, entries in rows[y]:
                if z > x or z == y == x:
                    for m, c in entries:
                        for n, d in left.get(m, ()):
                            key = (y, z, n)
                            associator[key] = associator.get(key, 0) - c * d
        broken = {(y, z) for (y, z, _), v in associator.items() if v}
        for y, z in sorted(broken, key=lambda yz: (min(yz), max(yz), yz[0] > yz[1])):
            flag(
                "mul-associativity",
                f"({labels[x]} * {labels[y]}) * {labels[z]} "
                f"!= {labels[x]} * ({labels[y]} * {labels[z]})",
                (labels[x], labels[y], labels[z]),
            )

    fm = model._fm
    # F^2 = +-den^2 times a diagonal sign matrix makes F invertible, so the
    # elimination runs only when some row breaks the square law
    unsquare = [
        i
        for i, row in enumerate(fm.rows)
        if _collect((k, c * d) for j, c in row for k, d in fm.rows[j])
        != {i: (-1) ** g * _inversion_sign(model, i) * fm.den**2}
    ]
    if unsquare and len(_bareiss(_dense(fm, dim), dim)[0]) != dim:
        flag("fm-invertible", "the Fourier matrix is singular")

    for i, row in enumerate(fm.rows):
        p, q = model.bidegrees[i]
        if any(model.bidegrees[k] != (q, p) for k, _ in row):
            flag(
                "fm-bidegree",
                f"the Fourier image of {labels[i]} leaks outside K^{q}_{p}",
                (labels[i],),
            )

    for i in unsquare:
        flag(
            "fm-involution",
            f"the Fourier square does not act as (-1)^{g} times the inversion "
            f"pullback on {labels[i]}",
            (labels[i],),
        )

    if fm.rows[model.star_unit_index] != ((u, fm.den),):
        flag(
            "fm-origin",
            "the Fourier image of the origin class must be the unit "
            "(this pins the Euler functional to rank after Fourier)",
            (labels[model.star_unit_index],),
        )

    return ValidationReport(tuple(violations))


def _self_check(model: ModelAlgebra, name: str) -> ModelAlgebra:
    report = validate(model)
    if not report.ok:
        raise StructureError(f"{name} builder produced an inadmissible model:\n{report}")
    return model


def _build(
    name: str,
    g: int,
    *,
    antisym: bool,
    pairs: Sequence[tuple[str, str, tuple[int, int]]],
    defect: bool,
) -> ModelAlgebra:
    """Shared core of the bundled builders.

    The theta block e_0 .. e_g (e_p in K^p_{g-p}) and, with ``antisym``,
    the anti-symmetric block a_0 = a, a_1 .. a_{g-1} (a_p in K^{p+1}_{g-p})
    are divided-power chains: the p-th entry times e_r is C(p+r, p) times
    the (p+r)-th entry, and the Fourier operator sends the p-th entry of a
    chain of length L to (-1)^{g-p} times its (L-1-p)-th entry.  Each pair
    (label, dual, (p, q)) adds a Fourier-paired couple in K^p_q and K^q_p
    that annihilates every non-unit class; fm(label) = dual, and fm(dual)
    carries the sign (-1)^{p-q} the Fourier square law forces.  ``defect``
    seeds a . v = z (or e_2 when there is no z).
    """
    basis = [(f"e{p}", (p, g - p)) for p in range(g + 1)]
    chains = [list(range(g + 1))]
    if antisym:
        basis.append(("a", (1, g)))
        basis += [(f"a{p}", (p + 1, g - p)) for p in range(1, g)]
        chains.append(list(range(g + 1, 2 * g + 1)))
    mul: dict[tuple[int, int], dict[int, Fraction]] = {}
    fm_entries: list[tuple[int, int, int]] = []
    for chain in chains:
        for x, i in enumerate(chain):
            for y in range(len(chain) - x):
                mul[(i, y)] = mul[(y, i)] = {chain[x + y]: Fraction(comb(x + y, x))}
            fm_entries.append((i, chain[-1 - x], (-1) ** (g - x)))
    for label, dual, (p, q) in pairs:
        i = len(basis)
        basis += [(label, (p, q)), (dual, (q, p))]
        for k in (i, i + 1):
            mul[(0, k)] = mul[(k, 0)] = {k: Fraction(1)}
        fm_entries += [(i, i + 1, 1), (i + 1, i, (-1) ** (p - q))]
    labels = [label for label, _ in basis]
    if defect:
        # the seeded defect: an index-1 class meets an index-(-1) class
        a, v = labels.index("a"), labels.index("v")
        target = labels.index("z") if "z" in labels else g
        mul[(a, v)] = mul[(v, a)] = {target: Fraction(1)}
    fm_rows = [[0] * len(basis) for _ in basis]
    for row, col, sign in fm_entries:
        fm_rows[row][col] = sign
    model = ModelAlgebra(g, basis, mul, fm_rows, unit_index=0, star_unit_index=g)
    return _self_check(model, name)


def theta_model(g: int) -> ModelAlgebra:
    """Divided-power model generated by a symmetric line-bundle class.

    Basis e_0 .. e_g with e_p in K^p_{g-p}; e_p stands for the p-th divided
    power of the degree-one class, so e_a . e_b = C(a+b, a) e_{a+b}.  The
    Fourier operator sends e_p to (-1)^{g-p} e_{g-p}; the signs are forced
    by the Fourier square law together with the origin-to-unit constraint,
    and the builder re-verifies them via ``validate``.
    """
    if g < 1:
        raise DomainError("g must be at least 1")
    return _build("theta", g, antisym=False, pairs=(), defect=False)


def antisym_model(g: int) -> ModelAlgebra:
    """Theta model extended by an anti-symmetric line-bundle direction.

    Adds a in K^1_g with a*a = 0 and the translates a_p = a . e_p in
    K^{p+1}_{g-p} for p <= g-1.  The Fourier operator maps a_p to
    (-1)^{g-p} a_{g-1-p} (with a_0 = a), the smallest consistent extension
    of the theta signs.
    """
    if g < 2:
        raise DomainError("g must be at least 2")
    return _build("antisym", g, antisym=True, pairs=(), defect=False)


def pathological_model(g: int) -> ModelAlgebra:
    """Theta model plus a Fourier-paired couple of negative-index classes.

    v sits in K^1_{g-2} and w in K^{g-2}_1 (both of derived index -1); they
    annihilate every non-unit basis vector.  fm(v) = w, and the sign of
    fm(w) is the one the Fourier square law forces.  The model passes
    ``validate`` and serves as a negative control for the conjecture
    checkers: no admissibility constraint rules such classes out.
    """
    if g < 2:
        raise DomainError("g must be at least 2")
    pairs = [("v", "w", (1, g - 2))]
    return _build("pathological", g, antisym=False, pairs=pairs, defect=False)


def violator_model(g: int) -> ModelAlgebra:
    """Pathological model plus the anti-symmetric direction and one seeded
    defect: a . v is a nonzero class of bidegree (2, g-2).

    The product is legal for the bidegree law (indices 1 and -1 meet in
    index 0), so the model still validates; only the index-product checker
    trips on it.  For g = 2 the target is the origin class e_2 (the only
    basis vector of bidegree (2, 0)); for g >= 3 a fresh annihilating pair
    z, zdual carries the product so associativity survives.
    """
    if g < 2:
        raise DomainError("g must be at least 2")
    pairs = [("v", "w", (1, g - 2))]
    if g >= 3:
        pairs.append(("z", "zdual", (2, g - 2)))
    return _build("violator", g, antisym=True, pairs=pairs, defect=True)
