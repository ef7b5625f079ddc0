"""Norton product on the first nontrivial eigenspace of a family graph.

For a vertex set X and a level-1 lattice element v, the centered indicator
of the upper set {x in X : x >= v} lies in the eigenspace V_1, and these
vectors span it.  The product itself is projection of the entrywise product:
x * y = E_1(x . y).  Each family admits a closed-form expansion of products
of (suitably rescaled) spanning vectors back into spanning vectors; this
module computes products both ways, checks them against each other, and
extracts an exact structure-constant cube on a basis.

The projection side runs in integers.  E_1 is D+1 rationals indexed by the
distance matrix, num[dist] / den, and the spanning vectors times one common
denominator are integer rows, so the oracle products of all unordered pairs
are one integer matrix product (OracleProducts).  The formula-versus-oracle
sweep compares every ordered pair against them with denominators cleared,
and the structure constants re-expand the products of basis pairs through
one fraction-free solve.  Nothing here is a float: int64 is used only where
a bound proves that no sum can overflow, Python integers otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from .binop import BilinearOperation
from .errors import ConstructionError, FormulaMismatchError
from .graphs import (
    TOP,
    DualPolarFamily,
    GrassmannFamily,
    GraphInstance,
    HammingFamily,
    JohnsonFamily,
    q_int,
)
from .intlinalg import coordinates, exact_matmul, independent_rows
from .spectral import SpectralData, closed_form_multiplicity

def family_constants(family) -> dict:
    """Named rational constants of the product formulas for one family.

    Always present: "rescale", the factor turning a centered indicator into
    the vector the formulas are written for.  "c" is the coefficient a
    product spills onto its own factors; it is absent exactly when the
    product is identically zero ("zero_product").
    """
    if isinstance(family, JohnsonFamily):
        n, k = family.n, family.k
        if n == 2 * k:
            return {"rescale": Fraction(1), "zero_product": True}
        return {
            "rescale": Fraction(n, n - 2 * k),
            "c": Fraction(-1, n - 2),
        }
    if isinstance(family, GrassmannFamily):
        q, n, k = family.q, family.n, family.k
        nq, kq = q_int(n, q), q_int(k, q)
        denom = nq - 2 * kq
        return {
            "rescale": Fraction(nq, denom),
            "c": Fraction(-kq, denom),
            "b": Fraction(q_int(k - 1, q) * nq, q * q_int(n - 2, q) * denom),
        }
    if isinstance(family, HammingFamily):
        e = family.e
        out = {
            "rescale": Fraction(1),
            "diagonal": Fraction(e - 2, e),
            "adjacent": Fraction(-1, e),
        }
        if e == 2:
            out["zero_product"] = True
        else:
            # constant of the single-coordinate block in its own rescaling
            out["c"] = Fraction(-1, e - 2)
        return out
    if isinstance(family, DualPolarFamily):
        q, d, e = family.q, family.d, family.e
        qq = Fraction(q)
        w = q ** (d + e - 1)
        b = Fraction(w + 1) / ((w - 1) * q ** (d - 1) * (1 + qq ** (e - 1)))
        return {
            "rescale": Fraction(w + 1, w - 1),
            "c": Fraction(1, 1 - w),
            "b": b,
            "b_prime": b / (1 + qq ** (d - 3 + e)),
        }
    raise ValueError(f"no product formulas for {family!r}")


@dataclass(eq=False)
class OracleProducts:
    """The projection oracle E_1(x . y) on labelled vectors, in integers.

    rows[i] = scale * vectors[i] is an integer row and E_1 = e1 / den with
    the integer matrix e1 = num[dist], so products[pair[i, j]] =
    e1 (rows[i] . rows[j]) is den * scale^2 times E_1(x_i . x_j).  The
    products of all unordered pairs are one matrix product, computed on
    first use and then shared by the formula sweep and the structure
    constants.
    """

    labels: tuple
    rows: np.ndarray
    scale: int
    e1: np.ndarray
    den: int

    @classmethod
    def of_vectors(cls, g: GraphInstance, spectral: SpectralData, labels, vectors):
        fracs = [[Fraction(x) for x in v] for v in vectors]
        scale = lcm(*(x.denominator for v in fracs for x in v))
        rows = np.array([[int(x * scale) for x in v] for v in fracs], dtype=object)
        num, den = spectral.integer_coefficients(1)
        return cls(tuple(labels), rows, scale, np.array(num, dtype=object)[g.dist], den)

    @cached_property
    def index(self) -> dict:
        return {label: i for i, label in enumerate(self.labels)}

    @cached_property
    def pair(self) -> np.ndarray:
        """pair[i, j] == pair[j, i]: the row of products that holds i . j."""
        s = len(self.labels)
        i, j = np.triu_indices(s)
        out = np.empty((s, s), dtype=np.intp)
        out[i, j] = out[j, i] = np.arange(len(i))
        return out

    @cached_property
    def products(self) -> np.ndarray:
        i, j = np.triu_indices(len(self.labels))
        return exact_matmul(self.rows[i] * self.rows[j], self.e1.T)

    def outside(self) -> list:
        """Labels of the vectors that E_1 does not fix, i.e. not in V_1."""
        fixed = exact_matmul(self.rows, self.e1.T) == self.den * self.rows
        return [label for label, ok in zip(self.labels, fixed.all(axis=1)) if not ok]

    def expand(self, basis):
        """Every vector and every product of basis vectors over the basis.

        basis lists independent row indices.  Returns (coords, cube):
        coords[i] expresses vector i and cube[a][b] the product of basis
        vectors a and b, each a tuple of Fractions, or None where it leaves
        the span of the basis.
        """
        basis = list(basis)
        kept, pivots = independent_rows(self.rows, basis, len(basis))
        if len(kept) < len(basis):
            raise ValueError("basis rows are linearly dependent")
        s, k = len(self.labels), len(basis)
        a, b = np.triu_indices(k)
        chosen = np.array(basis)
        targets = np.concatenate([self.rows, self.products[self.pair[chosen[a], chosen[b]]]])
        divisors = [1] * s + [self.den * self.scale] * len(a)
        solved = coordinates(self.rows[chosen], pivots, targets, divisors)
        cube = [[None] * k for _ in range(k)]
        for x, y, coeffs in zip(a.tolist(), b.tolist(), solved[s:]):
            cube[x][y] = cube[y][x] = coeffs
        return solved[:s], cube


@dataclass(frozen=True)
class SpanningVector:
    """A level-1 upper-set indicator, centered and rescaled into V_1."""

    label: object
    coords: tuple
    unscaled: tuple
    scale: Fraction


def spanning_vectors(g: GraphInstance, spectral: SpectralData):
    """Rescaled centered indicators for every level-1 lattice element.

    The indicators are the columns of the graph's vertex-by-point incidence.

    Verifies that every upper set has the same size and that each centered
    indicator is fixed by E_1 (one integer product for all of them).
    """
    lat = g.lattice
    if lat is None:
        raise ConstructionError(f"{g.label()} carries no lattice")
    n = g.vertex_count
    scale = family_constants(g.family)["rescale"]
    labels = lat.levels[1]
    indicators = g.incidence.T
    sizes = indicators.sum(axis=1).tolist()
    upper_size = sizes[0]
    for v, size in zip(labels, sizes):
        if size != upper_size:
            raise ConstructionError(
                f"upper set of {v!r} has size {size}, expected {upper_size}"
            )
    # n times the centered indicators, an integer row each
    centered = (n * indicators - upper_size).tolist()
    for v in OracleProducts.of_vectors(g, spectral, labels, centered).outside():
        raise ConstructionError(f"centered indicator of {v!r} is not in V_1")
    out = []
    for v, row in zip(labels, centered):
        unscaled = tuple(Fraction(x, n) for x in row)
        out.append(SpanningVector(v, tuple(scale * x for x in unscaled), unscaled, scale))
    return out


def oracle_products(g: GraphInstance, spectral: SpectralData, spanning=None):
    """OracleProducts of the spanning vectors (default: spanning_vectors).

    The integer rows come from each vector's coords, not from its label, so
    vectors that do not match their labels fail the sweep.
    """
    if spanning is None:
        spanning = spanning_vectors(g, spectral)
    return OracleProducts.of_vectors(
        g, spectral, [sv.label for sv in spanning], [sv.coords for sv in spanning]
    )


def formula_product(family, lattice, u, v) -> dict:
    """Closed-form product of two spanning vectors, as label -> coefficient.

    Both inputs are level-1 lattice elements; the result expands the product
    of their rescaled vectors over rescaled vectors again.  An empty dict is
    the zero product.
    """
    con = family_constants(family)
    out = {}
    if isinstance(family, JohnsonFamily):
        if con.get("zero_product"):
            return {}
        c = con["c"]
        if u == v:
            out[v] = Fraction(1)
        else:
            out[u] = c
            out[v] = c
    elif isinstance(family, GrassmannFamily):
        if u == v:
            out[v] = Fraction(1)
        else:
            c, b = con["c"], con["b"]
            out[u] = c
            out[v] = c
            line = lattice.join(u, v)
            for w in lattice.levels[1]:
                if lattice.leq(w, line):
                    out[w] = out.get(w, Fraction(0)) + b
    elif isinstance(family, HammingFamily):
        if u == v:
            out[v] = con["diagonal"]
        elif lattice.join(u, v) is TOP:
            out[u] = con["adjacent"]
            out[v] = con["adjacent"]
        # join at level 2: product vanishes
    elif isinstance(family, DualPolarFamily):
        c = con["c"]
        if u == v:
            out[v] = Fraction(1)
        elif lattice.join(u, v) is TOP:
            out[u] = c
            out[v] = c
        else:
            b, bp = con["b"], con["b_prime"]
            plane = lattice.join(u, v)
            out[u] = c
            out[v] = c
            for w in lattice.levels[1]:
                r = lattice.rank_of(lattice.join(plane, w))
                if r == 2:
                    out[w] = out.get(w, Fraction(0)) + b
                elif r == 3:
                    out[w] = out.get(w, Fraction(0)) + bp
    else:
        raise ValueError(f"no product formulas for {family!r}")
    return {lbl: cf for lbl, cf in out.items() if cf}


@dataclass(frozen=True)
class FormulaOracleReport:
    instance: str
    pairs_checked: int
    max_discrepancy: Fraction


def verify_formula_vs_oracle(
    g: GraphInstance, spectral: SpectralData, spanning=None, products=None
) -> FormulaOracleReport:
    """Compare the closed-form product against the projection oracle.

    Runs over every ordered pair of spanning vectors and demands exact
    agreement; the report's max_discrepancy is always zero on return.  The
    oracle side is products (from oracle_products(g, spectral, spanning)
    unless given).  With the formula's coefficients cf_l cleared by their
    lcm L, the pair (u, v) agrees exactly when

        L e1 (rows[u] . rows[v]) == den scale sum_l (L cf_l) rows[l],

    one integer comparison for all pairs.
    """
    if products is None:
        products = oracle_products(g, spectral, spanning)
    labels = products.labels
    s = len(labels)
    expansions = [
        formula_product(g.family, g.lattice, u, v) for u in labels for v in labels
    ]
    clear = lcm(*(Fraction(cf).denominator for e in expansions for cf in e.values()))
    coefficients = np.zeros((s * s, s), dtype=object)
    for row, expansion in enumerate(expansions):
        for label, cf in expansion.items():
            coefficients[row, products.index[label]] = int(cf * clear)
    # row u * s + v holds the ordered pair (u, v)
    oracle = clear * products.products[products.pair.reshape(-1)]
    formula = products.den * products.scale * exact_matmul(coefficients, products.rows)
    bad = np.flatnonzero((oracle != formula).any(axis=1))
    if bad.size:
        row = int(bad[0])
        gap = max(abs(a - b) for a, b in zip(oracle[row], formula[row]))
        disc = Fraction(gap, clear * products.den * products.scale**2)
        raise FormulaMismatchError(
            f"{g.label()}: formula disagrees with oracle on "
            f"({labels[row // s]!r}, {labels[row % s]!r}), max discrepancy {disc}"
        )
    return FormulaOracleReport(g.label(), s * s, Fraction(0))


@dataclass(eq=False)
class NortonAlgebra:
    """Exact structure constants of the Norton product on V_1.

    label_coords expresses every spanning vector over the chosen basis, and
    one_off is the preferred pair of labels used by the classification
    routines (independent whenever the product is nonzero).
    """

    family: object
    dim: int
    basis_labels: tuple
    operation: BilinearOperation
    label_coords: dict
    one_off: tuple
    one_off_line: tuple = ()
    notes: tuple = ()
    _signature_cache: dict = field(default_factory=dict, repr=False)

    def one_off_vectors(self):
        u, v = self.one_off
        return self.label_coords[u], self.label_coords[v]

    def label(self) -> str:
        return self.family.label()


def _default_basis_candidates(g: GraphInstance, labels):
    if isinstance(g.family, HammingFamily):
        e = g.family.e
        return sorted(lbl for lbl in labels if max(lbl) < e)
    return list(labels)


def _one_off_pair(g: GraphInstance, labels):
    if isinstance(g.family, (JohnsonFamily, GrassmannFamily)):
        return labels[0], labels[1]
    lat = g.lattice
    for i, u in enumerate(labels):
        for v in labels[i + 1:]:
            if lat.join(u, v) is TOP:
                return u, v
    raise ConstructionError(f"{g.label()}: no level-1 pair joins to the maximum")


def structure_constants(
    g: GraphInstance, spectral: SpectralData, label_order=None, products=None
) -> NortonAlgebra:
    """Norton product of a family graph as a structure-constant cube.

    The basis is greedily drawn from label_order (default: all level-1
    labels, except Hamming where the last value at each coordinate is
    dropped); products of basis vectors come from the projection oracle
    (products, shared with the sweep when given) and are re-expanded over
    the basis together with every spanning vector.
    """
    if products is None:
        products = oracle_products(g, spectral)
    labels = products.labels
    dim = closed_form_multiplicity(g.family, 1)
    candidates = (
        list(label_order) if label_order is not None
        else _default_basis_candidates(g, labels)
    )
    chosen, _ = independent_rows(
        products.rows, [products.index[lbl] for lbl in candidates], dim
    )
    if len(chosen) != dim:
        raise ConstructionError(
            f"{g.label()}: only {len(chosen)} independent vectors "
            f"among candidates, need {dim}"
        )
    coords, cube = products.expand(chosen)
    label_coords = {}
    for lbl, coeffs in zip(labels, coords):
        if coeffs is None:
            raise ConstructionError(
                f"{g.label()}: spanning vectors do not span a {dim}-dimensional "
                f"space: {lbl!r} escapes the basis span"
            )
        label_coords[lbl] = coeffs
    for i in range(dim):
        for j in range(i, dim):
            if cube[i][j] is None:
                raise ConstructionError(
                    f"{g.label()}: basis product ({i},{j}) escapes V_1"
                )
    op = BilinearOperation(cube)
    if not op.is_commutative:
        raise ConstructionError(f"{g.label()}: structure constants are not commutative")
    u, v = _one_off_pair(g, labels)
    pair = [products.index[u], products.index[v]]
    if not op.is_zero and len(independent_rows(products.rows, pair, 2)[0]) != 2:
        raise ConstructionError(f"{g.label()}: preferred pair is dependent")
    line = ()
    if isinstance(g.family, GrassmannFamily):
        lat = g.lattice
        span = lat.join(u, v)
        line = tuple(w for w in lat.levels[1] if lat.leq(w, span))
    return NortonAlgebra(
        family=g.family,
        dim=dim,
        basis_labels=tuple(labels[i] for i in chosen),
        operation=op,
        label_coords=label_coords,
        one_off=(u, v),
        one_off_line=line,
        notes=g.notes,
    )
