"""Gamma-type filtrations of a model.

Four decreasing filtrations are computed as exact subspaces, one per
structure:

    gamma  ordinary product, augmentation = rank onto the unit line
    star   convolution product, augmentation = Euler functional onto the
           origin line
    pi     ordinary product, augmentation = projection onto the q = g block
    Gamma  ordinary product, augmentation = projection onto the index-0
           block (the composed structure)

Stage 1 of each filtration is the augmentation kernel; stage n >= 2 is the
span, over the augmentation subring, of all products of gamma operations of
kernel elements with total weight at least n.  The saturation method builds
that span exactly, in one deterministic pass, from the gamma images of the
kernel basis vectors (see ``compute_filtration``).  A word of weight at
least n_max lies in every stage up to n_max, and so does every product
with it, so weights are capped at n_max: the gamma images of all weights
from n_max up to the series order are spanned together, at the capped
weight n_max, not one span per weight.  The eigen_sum method sums the
Adams eigenspaces of weight >= n, stage by stage.

The saturation skips each product x . y for which no basis pair (i, j), i
in the support of x and j in that of y, has an entry in the product table
(the model's partner masks): it is the zero vector, on every model, as the
rule reads the table and assumes no bigrading.  The other layers read the
tables with no elimination or product at all: stage 1 and the eigen_sum
stages are coordinate subspaces (``Subspace.coordinate``), and the
augmentation test walks the product table's entries with the subring's 0/1
projection, as ``prop-omega-n`` walks them with the Adams operators.

This module computes stages only.  Every verdict that reads them, the
four-way equivalence criterion among them, is a check of a suite in
``kring.reports``.
"""

from __future__ import annotations

from typing import NamedTuple

from .adams import adams_weight, gamma_images, kind_ring
from .errors import DomainError, SeriesOrderError
from .linalg import Subspace, _insert
from .model import Element, ModelAlgebra, reach, support
from .operators import DiagonalOperator

FILTRATION_KINDS = ("gamma", "star", "pi", "Gamma")

_FAMILY = {"gamma": "usual", "star": "star", "pi": "pi", "Gamma": "composed"}


class FiltrationSpec:
    """One of the four filtration structures on a model."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in FILTRATION_KINDS:
            raise DomainError(f"unknown filtration kind {kind!r}")
        self.kind = kind

    @property
    def family(self) -> str:
        return _FAMILY[self.kind]

    def weight(self, model: ModelAlgebra, i: int) -> int:
        p, q = model.bidegrees[i]
        return adams_weight(self.family, p, q, model.g)

    def subring_indices(self, model: ModelAlgebra) -> tuple[int, ...]:
        """Basis of the augmentation subring: the unit line (gamma), the
        origin line (star), or the family's weight-0 block (pi: q = g,
        Gamma: index 0)."""
        if self.kind == "gamma":
            return (model.unit_index,)
        if self.kind == "star":
            return (model.star_unit_index,)
        return tuple(i for i in range(model.dim) if self.weight(model, i) == 0)

    def kernel_indices(self, model: ModelAlgebra) -> tuple[int, ...]:
        subring = set(self.subring_indices(model))
        return tuple(i for i in range(model.dim) if i not in subring)

    def augmentation_is_morphism(self, model: ModelAlgebra) -> tuple[bool, str | None]:
        """Whether the augmentation, the 0/1 projection onto the subring,
        respects the family's product on the basis; when it does not, the
        first failing entry (i, j), j >= i, of the family's product table is
        the witness pair.  No product is made.  Each call checks anew: a
        suite asks once per kind it reads."""
        keep = set(self.subring_indices(model))
        projection = DiagonalOperator(model, tuple(int(i in keep) for i in range(model.dim)), 1)
        for i, j, entries in kind_ring(model, self.family).kernel.table.upper_entries():
            if not projection.respects(i, j, entries):
                return False, f"({model.labels[i]}, {model.labels[j]})"
        return True, None


class FiltrationResult(NamedTuple):
    method: str
    stages: tuple[Subspace, ...]
    rounds: tuple[tuple[int, ...], ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.stages)

    def stage(self, n: int) -> Subspace:
        return self.stages[n]


def _saturation_stages(
    model: ModelAlgebra, spec: FiltrationSpec, n_max: int, order: int
) -> list[Subspace]:
    """Stages 0..n_max spanned by the words in the gamma images of the
    kernel basis vectors e_k (and by their products with the augmentation
    subring).  Under the ring laws ``validate`` checks, these words span
    those in the gamma images of all kernel elements.

    At n_max <= 1 they are the whole space and the augmentation kernel.
    Otherwise the nonzero images of each weight below n_max are spanned
    apart, and those of weights n_max .. order together, at the capped
    weight n_max (see ``compute_filtration``).  A worklist grows one echelon
    of words per capped weight w: a new direction x of weight w is
    multiplied by each basis vector g of each capped weight i, and g . x
    enters the echelon of weight min(i + w, n_max).  Every word is g times a
    shorter word and the product is bilinear, so a basis of each weight's
    words is enough; the worklist assumes no associativity.  The loop ends,
    since every product comes from a pop that raised an echelon's rank,
    which is at most dim.  Stage n >= 2 is the canonical span of the words of capped
    weight >= n and their products with the subring, whatever the pop order.

    g . x is skipped when reach(g) & support(x) == 0, reach(g) being the OR
    of the partner masks over the support of g: then no table pair (i, j)
    has i in the support of g and j in that of x, so g . x is zero.
    """
    dim = model.dim
    stages = [Subspace.full(dim), Subspace.coordinate(dim, spec.kernel_indices(model))]
    if n_max <= 1:
        return stages[: n_max + 1]
    ring = kind_ring(model, spec.family)
    product, partners = ring.mul, ring.kernel.partners

    # (capped weight, basis vector, reach) of the gamma images
    images = [
        gamma_images(model, spec.family, model.basis_element(k), order)
        for k in spec.kernel_indices(model)
    ]
    weights = [range(i, i + 1) for i in range(1, n_max)] + [range(n_max, order + 1)]
    basis = []
    for w, ws in enumerate(weights, 1):
        nonzero = [img[i] for img in images for i in ws if not img[i].is_zero()]
        gens = [Element(model, *row) for row in Subspace.span(dim, nonzero).rows]
        basis += [(w, g, reach(partners, support(g))) for g in gens]

    words = {w: ([], []) for w in range(1, n_max + 1)}  # capped weight -> echelon
    todo = [(w, g) for w, g, _ in basis]
    while todo:
        w, v = todo.pop()
        if (new := _insert(*words[w], v, dim)) is not None:
            x = Element(model, new, 1)
            s = support(x)
            todo += [(min(i + w, n_max), product(g, x)) for i, g, r in basis if r & s]

    subring = [(model.basis_element(i), partners[i]) for i in spec.subring_indices(model)]
    closed, top = [], []
    for n in range(n_max, 1, -1):
        for x in (Element(model, *row) for row in words[n][0]):
            s = support(x)
            closed += [x] + [product(e, x) for e, r in subring if r & s]
        top.append(Subspace.span(dim, closed))
    return stages + top[::-1]


def compute_filtration(
    model: ModelAlgebra,
    spec: FiltrationSpec | str,
    n_max: int,
    method: str = "saturation",
    *,
    order: int | None = None,
) -> FiltrationResult:
    """Compute stages 0..n_max of the filtration as canonical subspaces;
    whether the augmentation is a ring morphism is a separate question,
    ``FiltrationSpec.augmentation_is_morphism``.

    The saturation method is exact on a model that keeps the ring laws
    ``ModelAlgebra.validate`` checks.  Then gamma_t(x + y) =
    gamma_t(x) gamma_t(y) (Fulton & Lang, Riemann-Roch Algebra, 1985), so
    gamma_t(c e) = gamma_t(e)^c for every rational c, and gamma_t of a
    kernel element sum_k c_k e_k is the product of the gamma_t(e_k)^(c_k).
    Its t^i coefficient is a combination of words of total weight i in the
    gamma^j(e_k).  The words in the gamma images of the e_k therefore span
    the same stages as the gamma images of all kernel elements, and one
    pass over the kernel basis yields the stages.

    Weights are capped at n_max.  A word of weight i >= n_max lies in every
    stage n <= n_max, and so does its product with any word, so only the
    capped weight min(i, n_max) matters; the words are built linearly from
    the images, so the span of all images of capped weight n_max gives the
    same stages as the images of each weight spanned apart.
    """
    if isinstance(spec, str):
        spec = FiltrationSpec(spec)
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    if order is None:
        order = model.default_series_order
    if order < n_max:
        raise SeriesOrderError(
            f"series order {order} is below the requested stage {n_max}"
        )
    if method == "saturation":
        stages = _saturation_stages(model, spec, n_max, order)
    elif method == "eigen_sum":
        weights = [spec.weight(model, i) for i in range(model.dim)]
        stages = [Subspace.full(model.dim)] + [
            Subspace.coordinate(model.dim, (i for i, w in enumerate(weights) if w >= n))
            for n in range(1, n_max + 1)
        ]
    else:
        raise DomainError(f"unknown filtration method {method!r}")
    dims = tuple(s.dim for s in stages)
    return FiltrationResult(method, tuple(stages), (dims,))

