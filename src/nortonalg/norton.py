"""Norton product on the first nontrivial eigenspace of a family graph.

For a vertex set X and a level-1 lattice element v, the centered indicator
of the upper set {x in X : x >= v} lies in the eigenspace V_1, and these
vectors span it.  The product itself is projection of the entrywise product:
x * y = E_1(x . y).  Each family admits a closed-form expansion of products
of (suitably rescaled) spanning vectors back into spanning vectors; this
module computes products both ways, checks them against each other, and
extracts an exact structure-constant cube on a basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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
from .spectral import SpectralData, closed_form_multiplicity, rational_rank


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


@dataclass(frozen=True)
class SpanningVector:
    """A level-1 upper-set indicator, centered and rescaled into V_1."""

    label: object
    coords: tuple
    unscaled: tuple
    scale: Fraction


def spanning_vectors(g: GraphInstance, spectral: SpectralData):
    """Rescaled centered indicators for every level-1 lattice element.

    Verifies that every upper set has the same size and that each centered
    indicator is fixed by E_1.
    """
    lat = g.lattice
    if lat is None:
        raise ConstructionError(f"{g.label()} carries no lattice")
    n = g.vertex_count
    scale = family_constants(g.family)["rescale"]
    e1 = spectral.idempotents[1]
    out = []
    upper_size = None
    for v in lat.levels[1]:
        indicator = [1 if lat.leq(v, x) else 0 for x in g.vertices]
        a1 = sum(indicator)
        if upper_size is None:
            upper_size = a1
        elif a1 != upper_size:
            raise ConstructionError(
                f"upper set of {v!r} has size {a1}, expected {upper_size}"
            )
        centered = tuple(Fraction(ind * n - a1, n) for ind in indicator)
        if e1.apply(centered) != centered:
            raise ConstructionError(f"centered indicator of {v!r} is not in V_1")
        coords = tuple(scale * x for x in centered)
        out.append(SpanningVector(v, coords, centered, scale))
    return out


def norton_oracle(g: GraphInstance, spectral: SpectralData, i: int, u, v):
    """E_i(u . v) for two vectors already lying in eigenspace i."""
    ei = spectral.idempotents[i]
    u = tuple(Fraction(x) for x in u)
    v = tuple(Fraction(x) for x in v)
    if ei.apply(u) != u:
        raise ValueError("left factor is not in the requested eigenspace")
    if ei.apply(v) != v:
        raise ValueError("right factor is not in the requested eigenspace")
    return ei.apply([a * b for a, b in zip(u, v)])


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
    g: GraphInstance, spectral: SpectralData, spanning=None
) -> FormulaOracleReport:
    """Compare the closed-form product against the projection oracle.

    Runs over every ordered pair of spanning vectors and demands exact
    agreement; the report's max_discrepancy is always zero on return.
    """
    if spanning is None:
        spanning = spanning_vectors(g, spectral)
    by_label = {sv.label: sv for sv in spanning}
    e1 = spectral.idempotents[1]
    n = g.vertex_count
    pairs = 0
    for su in spanning:
        for sv in spanning:
            oracle = e1.apply([a * b for a, b in zip(su.coords, sv.coords)])
            expansion = formula_product(g.family, g.lattice, su.label, sv.label)
            predicted = [Fraction(0)] * n
            for lbl, cf in expansion.items():
                w = by_label[lbl].coords
                for idx in range(n):
                    predicted[idx] += cf * w[idx]
            if list(oracle) != predicted:
                disc = max(abs(o - p) for o, p in zip(oracle, predicted))
                raise FormulaMismatchError(
                    f"{g.label()}: formula disagrees with oracle on "
                    f"({su.label!r}, {sv.label!r}), max discrepancy {disc}"
                )
            pairs += 1
    return FormulaOracleReport(g.label(), pairs, Fraction(0))


class _SpanSolver:
    """Repeated exact solves of sum_i c_i row_i = target for a fixed basis."""

    def __init__(self, rows):
        self.rows = [tuple(Fraction(x) for x in r) for r in rows]
        k = len(self.rows)
        self.n = len(self.rows[0])
        work = [list(r) for r in self.rows]
        piv_cols = []
        r = 0
        for ccol in range(self.n):
            piv = next((i for i in range(r, k) if work[i][ccol]), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            inv = 1 / work[r][ccol]
            work[r] = [x * inv for x in work[r]]
            for i in range(k):
                if i != r and work[i][ccol]:
                    f = work[i][ccol]
                    work[i] = [a - f * b for a, b in zip(work[i], work[r])]
            piv_cols.append(ccol)
            r += 1
            if r == k:
                break
        if r < k:
            raise ValueError("basis rows are linearly dependent")
        self.piv_cols = piv_cols
        # invert M[i][j] = rows[j][piv_cols[i]] by Gauss-Jordan
        m = [[self.rows[j][c] for j in range(k)] for c in piv_cols]
        aug = [list(row) + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(m)]
        for col in range(k):
            piv = next(i for i in range(col, k) if aug[i][col])
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = 1 / aug[col][col]
            aug[col] = [x * inv for x in aug[col]]
            for i in range(k):
                if i != col and aug[i][col]:
                    f = aug[i][col]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
        self.minv = [row[k:] for row in aug]

    def solve(self, target):
        """Coefficients over the basis, or None if target leaves the span."""
        t = [Fraction(x) for x in target]
        k = len(self.rows)
        sub = [t[c] for c in self.piv_cols]
        coeffs = [sum(self.minv[i][j] * sub[j] for j in range(k)) for i in range(k)]
        for idx in range(self.n):
            if sum(c * row[idx] for c, row in zip(coeffs, self.rows)) != t[idx]:
                return None
        return tuple(coeffs)


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

    def coords_of(self, label):
        return self.label_coords[label]

    def one_off_vectors(self):
        u, v = self.one_off
        return self.label_coords[u], self.label_coords[v]

    def label(self) -> str:
        return self.family.label()


def _default_basis_candidates(g: GraphInstance, spanning):
    if isinstance(g.family, HammingFamily):
        e = g.family.e
        keep = [
            sv.label
            for sv in spanning
            if max(sv.label) < e
        ]
        return sorted(keep)
    return [sv.label for sv in spanning]


def _one_off_pair(g: GraphInstance, spanning):
    labels = [sv.label for sv in spanning]
    if isinstance(g.family, (JohnsonFamily, GrassmannFamily)):
        return labels[0], labels[1]
    lat = g.lattice
    for i, u in enumerate(labels):
        for v in labels[i + 1:]:
            if lat.join(u, v) is TOP:
                return u, v
    raise ConstructionError(f"{g.label()}: no level-1 pair joins to the maximum")


def structure_constants(
    g: GraphInstance, spectral: SpectralData, label_order=None
) -> NortonAlgebra:
    """Norton product of a family graph as a structure-constant cube.

    The basis is greedily drawn from label_order (default: all level-1
    labels, except Hamming where the last value at each coordinate is
    dropped); products of basis vectors come from the projection oracle and
    are re-expanded over the basis.
    """
    spanning = spanning_vectors(g, spectral)
    by_label = {sv.label: sv for sv in spanning}
    dim = closed_form_multiplicity(g.family, 1)
    if rational_rank([sv.coords for sv in spanning]) != dim:
        raise ConstructionError(
            f"{g.label()}: spanning vectors do not span a {dim}-dimensional space"
        )
    candidates = (
        list(label_order) if label_order is not None
        else _default_basis_candidates(g, spanning)
    )
    basis_labels = []
    chosen_rows = []
    for lbl in candidates:
        trial = chosen_rows + [by_label[lbl].coords]
        if rational_rank(trial) == len(trial):
            basis_labels.append(lbl)
            chosen_rows.append(by_label[lbl].coords)
        if len(basis_labels) == dim:
            break
    if len(basis_labels) != dim:
        raise ConstructionError(
            f"{g.label()}: only {len(basis_labels)} independent vectors "
            f"among candidates, need {dim}"
        )
    solver = _SpanSolver(chosen_rows)
    label_coords = {}
    for sv in spanning:
        coeffs = solver.solve(sv.coords)
        if coeffs is None:
            raise ConstructionError(f"{g.label()}: {sv.label!r} escapes the basis span")
        label_coords[sv.label] = coeffs
    e1 = spectral.idempotents[1]
    cube = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            prod = e1.apply(
                [a * b for a, b in zip(chosen_rows[i], chosen_rows[j])]
            )
            coeffs = solver.solve(prod)
            if coeffs is None:
                raise ConstructionError(
                    f"{g.label()}: basis product ({i},{j}) escapes V_1"
                )
            cube[i][j] = coeffs
            cube[j][i] = coeffs
    op = BilinearOperation(cube)
    if not op.is_commutative:
        raise ConstructionError(f"{g.label()}: structure constants are not commutative")
    u, v = _one_off_pair(g, spanning)
    if not op.is_zero and rational_rank([label_coords[u], label_coords[v]]) != 2:
        raise ConstructionError(f"{g.label()}: preferred pair is dependent")
    line = ()
    if isinstance(g.family, GrassmannFamily):
        lat = g.lattice
        span = lat.join(u, v)
        line = tuple(w for w in lat.levels[1] if lat.leq(w, span))
    return NortonAlgebra(
        family=g.family,
        dim=dim,
        basis_labels=tuple(basis_labels),
        operation=op,
        label_coords=label_coords,
        one_off=(u, v),
        one_off_line=line,
        notes=g.notes,
    )
