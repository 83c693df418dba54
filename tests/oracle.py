"""The tests' reference oracle: kring's arithmetic taken from the
definitions, one small implementation per concept, on dense ``Fraction``
vectors.  A model is read through its definition only (``g``, ``dim``,
``bidegrees``, ``labels``, the unit and origin indices, ``mul_basis`` and
the Fourier rows of its exported document), and none of kring's arithmetic
is called, so a fast path compared with these functions is compared with
the definition, not with the loop it replaced.

A vector is a tuple of ``Fraction`` coordinates in the model's basis; a
series is a list of vectors, entry k the coefficient of t^k; Q is the
one-dimensional algebra ``RATIONALS``.
"""

import json
from fractions import Fraction as F
from functools import lru_cache
from math import comb, factorial, lcm

from kring import export_model

# -- linear algebra -------------------------------------------------------------


def rref(rows, ncols):
    """Gauss-Jordan elimination, pivoting on the first nonzero column and
    then the smallest row index; returns every row (the zero rows last) and
    the pivot columns."""
    rows, pivots = [list(r) for r in rows], []
    for col in range(ncols):
        top = len(pivots)
        hit = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if hit is None:
            continue
        rows[top], rows[hit] = rows[hit], rows[top]
        lead = rows[top] = [c / F(rows[top][col]) for c in rows[top]]
        for r, row in enumerate(rows):
            if r != top and row[col]:
                rows[r] = [a - row[col] * b for a, b in zip(row, lead)]
        pivots.append(col)
    return rows, pivots


def span(rows, ncols):
    """The reduced basis of the span of ``rows`` and its pivot columns."""
    reduced, pivots = rref(rows, ncols)
    return [tuple(r) for r in reduced[: len(pivots)]], pivots


def reduce(basis, pivots, v):
    """``v`` minus its part in the span of the reduced ``basis``."""
    out = list(v)
    for row, p in zip(basis, pivots):
        if out[p]:
            out = [a - out[p] * b for a, b in zip(out, row)]
    return tuple(out)


def inverse(rows):
    """The right half of the RREF of [rows | I]; ``ValueError`` if singular."""
    n = len(rows)
    reduced, pivots = rref([list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)], n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in reduced]


def times(x, rows):
    """The row vector ``x`` times the matrix ``rows``."""
    out = [F(0)] * len(rows[0])
    for c, row in zip(x, rows):
        if c:
            out = [a + c * b for a, b in zip(out, row)]
    return tuple(out)


# -- a model's products ---------------------------------------------------------


def basis_vector(m, i):
    return tuple(F(int(k == i)) for k in range(m.dim))


def fm_rows(m):
    """The dense Fourier rows of ``m``, read from its exported document (row
    i = image of e_i)."""
    return [[F(c) for c in row] for row in json.loads(export_model(m))["fm"]]


@lru_cache(maxsize=None)
def _fourier_rows(m, inverted):
    return inverse(_fourier_rows(m, False)) if inverted else fm_rows(m)


def fourier(m, x):
    return times(x, _fourier_rows(m, False))


def fourier_inverse(m, x):
    return times(x, _fourier_rows(m, True))


def _bilinear(table, x, y):
    """The sum of x_i y_j e_i e_j, with e_i e_j read from ``table``."""
    out, ys = [F(0)] * len(x), [(j, b) for j, b in enumerate(y) if b]
    for i, a in enumerate(x):
        for j, b in ys if a else ():
            for k, c in table.get((i, j), ()):
                out[k] += a * b * c
    return tuple(out)


@lru_cache(maxsize=None)
def structure(m, kind):
    """The structure tensor {(i, j): ((k, c), ...)} of the nonzero products
    e_i e_j = sum_k c e_k of an Adams family's ring: read off ``mul_basis``,
    or for ``star`` the convolution e_i * e_j = F^-1(F e_i . F e_j)."""
    pairs = [(i, j) for i in range(m.dim) for j in range(m.dim)]
    table = {ij: m.mul_basis(*ij) for ij in pairs if m.mul_basis(*ij)}
    if kind != "star":
        return table
    rows = _fourier_rows(m, False)
    images = {(i, j): fourier_inverse(m, _bilinear(table, rows[i], rows[j])) for i, j in pairs}
    return {ij: tuple((k, c) for k, c in enumerate(z) if c) for ij, z in images.items() if any(z)}


def product(m, x, y):
    return _bilinear(structure(m, "usual"), x, y)


def star_product(m, x, y):
    """The convolution F^-1(F x . F y), bilinear from the basis pairs."""
    return _bilinear(structure(m, "star"), x, y)


def ring(m, kind):
    """The product and unit an Adams family is a ring map for: convolution
    and the origin class for ``star``, the product and the unit otherwise."""
    table = structure(m, kind)
    unit = m.star_unit_index if kind == "star" else m.unit_index
    return (lambda x, y: _bilinear(table, x, y)), basis_vector(m, unit)


RATIONALS = (lambda x, y: (x[0] * y[0],), (F(1),))


# -- series ---------------------------------------------------------------------


def series_product(a, b, mul):
    """The Cauchy product of two series of one order, truncated at it."""
    out = [[F(0)] * len(a[0]) for _ in a]
    bs = [(j, y) for j, y in enumerate(b) if any(y)]
    for i, x in enumerate(a):
        for j, y in bs if any(x) else ():
            for k, c in enumerate(mul(x, y) if i + j < len(a) else ()):
                if c:
                    out[i + j][k] += c
    return [tuple(c) for c in out]


def exp(s, mul, one):
    """exp(s) = sum_k s^k / k! for a series with zero constant term."""
    assert not any(s[0]), "exp needs a zero constant term"
    total = [list(one)] + [[F(0)] * len(one) for _ in s[1:]]
    power = [one] + [tuple(F(0) for _ in one)] * (len(s) - 1)
    for k in range(1, len(s)):
        power = series_product(power, s, mul)
        if not any(map(any, power)):
            break
        for n, c in enumerate(power):
            if any(c):
                total[n] = [a + b / factorial(k) for a, b in zip(total[n], c)]
    return [tuple(c) for c in total]


def substitute(s):
    """s(t / (1 - t)), as (t / (1 - t))^n = sum_k C(k - 1, n - 1) t^k; each
    coordinate is summed on its numerators over one denominator."""
    out = [list(c) for c in s]
    for j in range(len(s[0])):
        column = [c[j] for c in s]
        den = lcm(*(c.denominator for c in column))
        nums = [c.numerator * (den // c.denominator) for c in column]
        for k in range(1, len(s)) if any(nums[1:]) else ():
            out[k][j] = F(sum(comb(k - 1, n - 1) * nums[n] for n in range(1, k + 1)), den)
    return [tuple(c) for c in out]


# -- Adams operations and the lambda and gamma series -----------------------------

WEIGHTS = {
    "usual": lambda p, q, g: p,
    "star": lambda p, q, g: q,
    "pi": lambda p, q, g: g - q,
    "composed": lambda p, q, g: p + q - g,
    "pi_star": lambda p, q, g: q - g,
}


def adams(m, kind, n, x):
    """psi^n: n^w on each basis vector of weight w."""
    return tuple(c and F(n) ** WEIGHTS[kind](p, q, m.g) * c for (p, q), c in zip(m.bidegrees, x))


def log_lambda(m, kind, x, order):
    """sum_n (-1)^(n-1) psi^n(x) t^n / n, truncated at ``order``."""
    terms = [(n, F((-1) ** (n - 1), n)) for n in range(1, order + 1)]
    return [tuple(F(0) for _ in x)] + [tuple(a and c * a for a in adams(m, kind, n, x)) for n, c in terms]


def lambda_series(m, kind, x, order):
    """lambda_t(x) = exp(sum_n (-1)^(n-1) psi^n(x) t^n / n)."""
    return exp(log_lambda(m, kind, x, order), *ring(m, kind))


def gamma_series(m, kind, x, order):
    """gamma_t(x) = lambda_{t / (1 - t)}(x)."""
    return exp(substitute(log_lambda(m, kind, x, order)), *ring(m, kind))


@lru_cache(maxsize=None)
def gamma_coefficients(d, order, m_max):
    """a(i; d, m) = [t^i x^m] exp(x S_d(t)) for i <= order, m <= m_max, where
    S_d = sum_n (-1)^(n-1) n^(d-1) u^n with u = t / (1 - t), evaluated by
    Horner in u; the x^m column is S_d^m / m!."""
    mul, one = RATIONALS
    u = [(F(0),)] + [one] * order
    s = [(F(0),)] * (order + 1)
    for n in range(order, 0, -1):
        s[0] = (s[0][0] + (-1) ** (n - 1) * F(n) ** (d - 1),)
        s = series_product(s, u, mul)
    power, columns = [one] + [(F(0),)] * order, []
    for m in range(m_max + 1):
        columns.append([c / factorial(m) for (c,) in power])
        power = series_product(power, s, mul)
    return tuple(zip(*columns))


# -- filtrations ------------------------------------------------------------------

FAMILY = {"gamma": "usual", "star": "star", "pi": "pi", "Gamma": "composed"}


def subring(m, kind):
    """The augmentation subring's basis: the unit line (gamma), the origin
    line (star), or the weight-0 block of the family (pi, Gamma)."""
    if kind in ("gamma", "star"):
        return (m.unit_index if kind == "gamma" else m.star_unit_index,)
    weight = WEIGHTS[FAMILY[kind]]
    return tuple(i for i, (p, q) in enumerate(m.bidegrees) if weight(p, q, m.g) == 0)


def kernel(m, kind):
    return tuple(i for i in range(m.dim) if i not in subring(m, kind))


def augmentation_witness(m, kind):
    """Whether the projection onto the subring respects the family's product
    on every basis pair (i, j), i <= j, walked in index order; the first
    pair where it does not is the witness, as ``(False, "(e_i, e_j)")``."""
    mul, keep = ring(m, FAMILY[kind])[0], subring(m, kind)
    basis = [basis_vector(m, i) for i in range(m.dim)]

    def project(x):
        return tuple(c if k in keep else F(0) for k, c in enumerate(x))

    for i in range(m.dim):
        for j in range(i, m.dim):
            if project(mul(basis[i], basis[j])) != mul(project(basis[i]), project(basis[j])):
                return False, f"({m.labels[i]}, {m.labels[j]})"
    return True, None


def _insert(basis, pivots, v):
    """Add ``v`` to the reduced ``basis`` in place; its remainder, or None
    when ``v`` already lies in the span."""
    r = reduce(basis, pivots, v)
    p = next((k for k, c in enumerate(r) if c), None)
    if p is None:
        return None
    r = tuple(c / F(r[p]) for c in r)
    basis[:] = [tuple(a - row[p] * b for a, b in zip(row, r)) if row[p] else row for row in basis]
    basis.append(r)
    pivots.append(p)
    return r


def _generators(m, kind, order):
    """Kernel elements: c e_k for c = 1 .. nu_k, nu_k the number of nonzero
    powers of e_k up to ``order``; the sums of neighbouring kernel vectors
    e_k + e_l; and two elements that mix every kernel vector."""
    mul, ks, out = ring(m, FAMILY[kind])[0], kernel(m, kind), []
    for k in ks:
        e = power = basis_vector(m, k)
        for c in range(1, order + 1):
            if not any(power):
                break
            out.append(tuple(c * a for a in e))
            power = mul(power, e)
    out += [tuple(F(int(i in pair)) for i in range(m.dim)) for pair in zip(ks, ks[1:])]
    for mix in (lambda i: F((-1) ** i * (i + 1), i % 3 + 1), lambda i: F(i % 2 + 1, i + 2)):
        out.append(tuple(mix(i) if i in ks else F(0) for i in range(m.dim)))
    return out


@lru_cache(maxsize=None)
def _images(m, kind, order):
    """Pairs (i, v): the v span the gamma images of weight i of the
    ``_generators``, i = 1 .. ``order``."""
    images = [gamma_series(m, FAMILY[kind], x, order) for x in _generators(m, kind, order)]
    spans = [span([s[i] for s in images if any(s[i])], m.dim)[0] for i in range(1, order + 1)]
    return [(i, v) for i, basis in enumerate(spans, 1) for v in basis]


@lru_cache(maxsize=None)
def stages(m, kind, n_max, order):
    """Stages 0 .. max(n_max, 1) of the ``kind`` filtration with gamma
    series of ``order``, each as its reduced basis.

    Stage 0 is everything and stage 1 the augmentation kernel.  Stage n >= 2
    is spanned by the words gamma^i1(x1) (gamma^i2(x2) (... gamma^ir(xr)))
    over kernel elements x of total weight i1 + ... + ir >= n, and by their
    products with the subring.  The words are closed under products weight
    by weight: a word of weight >= n_max lies in every stage, so its weight
    counts as n_max.  Coefficient i of a truncated series reads its terms
    up to t^i only, so the images of weight <= ``order`` are read off one
    expansion of the model's default order (or of ``order``, if higher)."""
    mul, dim, cap = ring(m, FAMILY[kind])[0], m.dim, max(n_max, 1)
    top = max(order, m.default_series_order)
    gens = [(i, v) for i, v in _images(m, kind, top) if i <= order]
    words = {w: ([], []) for w in range(1, cap + 1)}  # weight -> (basis, pivots)
    todo = [(min(i, cap), v) for i, v in gens]
    while todo:
        w, v = todo.pop()
        if any(v) and (r := _insert(*words[w], v)):
            todo.extend((min(i + w, cap), mul(g, r)) for i, g in gens)
    monomials, out = ([], []), []  # the words of weight >= n, n = cap .. 2
    for n in range(cap, 1, -1):
        for v in words[n][0]:
            _insert(*monomials, v)
        stage = (list(monomials[0]), list(monomials[1]))
        for v in [mul(basis_vector(m, s), v) for s in subring(m, kind) for v in monomials[0]]:
            _insert(*stage, v)
        out.append(tuple(row for _, row in sorted(zip(stage[1], stage[0]))))
    kernel_basis = tuple(basis_vector(m, k) for k in kernel(m, kind))
    return (tuple(basis_vector(m, i) for i in range(dim)), kernel_basis, *reversed(out))
