"""Norton product on the first nontrivial eigenspace of a family graph.

For a vertex set X and a level-1 lattice element v, the centered indicator
of the upper set {x in X : x >= v} lies in the eigenspace V_1, and these
vectors span it.  The product itself is projection of the entrywise product:
x * y = E_1(x . y).  Each family admits a closed-form expansion of products
of (suitably rescaled) spanning vectors back into spanning vectors; this
module computes products both ways, checks them against each other, and
extracts an exact structure-constant cube on a basis.

Both sides run in integers, and nothing here is n x n.  On these
Q-polynomial schemes E_1 is affine in M M^T for the vertex-by-point
incidence M (Delsarte 1973; Brouwer-Cohen-Neumaier 8.4, 9.1-9.4): den E_1
= alpha J + beta M M^T, proved from the D+1 coefficients of E_1.  The
spanning vectors exist only as integer rows, read off M by oracle_products
(OracleProducts.of_rows takes any others), and the oracle products of any
list of pairs are one (pairs x n) @ (n x P) product (OracleProducts).
They lie in col(M), as does every vector E_1 fixes, and rank(M) vertices
decide such a vector, so products are compared and solved there only.  The
closed form of each pair of points is one integer coefficient row over the
points (formula_rows), read off M: every element below the lattice maximum
is the meet of the vertices above it, so the vertices counted above two or
three points decide every join the formulas name, and no lattice join is
formed.  Every reader asks for the pairs it needs a block at a time
(intlinalg.row_blocks, a pair max(n, points) cells wide), so memory
follows the block, not the point count.  The formula-versus-oracle sweep
compares every unordered pair in both orders with denominators cleared,
and the structure constants are read off the same formulas: one solve, of
every point over the basis, then the formula rows of the basis pairs times
those coordinates (algebra_from_coords, which a cached algebra also goes
through, with its stored coordinates).
Only the formulas depend on the family: the basis (the first dim V_1
independent points in lattice order) and the preferred pair with its line
(one_off_pair) are read off the lattice by one rule for every family.  The
arithmetic is exact: int64 only where a bound proves that no sum can
overflow, Python integers otherwise, and floats only inside
intlinalg.exact_matmul, for integer products whose bound they hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import numpy as np

from .binop import BilinearOperation, _scaled_rows
from .errors import ConstructionError, FormulaMismatchError
from .graphs import (
    DualPolarFamily,
    GrassmannFamily,
    GraphInstance,
    HammingFamily,
    JohnsonFamily,
    q_int,
)
from .intlinalg import (
    abs_max,
    coordinates,
    exact_matmul,
    exact_multiply,
    fits_int64,
    independent_rows,
    row_blocks,
)
from .spectral import SpectralData

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

    rows[i] = scale * vectors[i] is an integer row and den E_1 = alpha J +
    beta M M^T for the vertex-by-point incidence M, so E_1 maps into
    col(M), whose vectors the rank(M) vertices cols decide, and products
    gives E_1(x_i . x_j) there for the pairs asked for.  dim is dim V_1.
    """

    labels: tuple
    rows: np.ndarray
    scale: int
    alpha: int
    beta: int
    den: int
    incidence: np.ndarray
    dim: int

    @classmethod
    def of_rows(cls, g: GraphInstance, spectral: SpectralData, labels, rows, scale):
        """From integer rows that are scale times the labelled vectors.

        M M^T is f(dist) for f = g.point_counts, so num[i] = alpha + beta f(i)
        at every distance proves alpha and beta.  A miss means the centered
        point indicators are not in V_1: their centered Gram matrix lies in
        the Bose-Mesner algebra, and would then be a multiple of E_1.  beta
        is nonzero, or E_1 would be a multiple of J.
        """
        if g.incidence is None:
            raise ConstructionError(f"{g.label()} carries no lattice")
        num, den = spectral.integer_coefficients(1)
        f = g.point_counts
        beta = Fraction(num[0] - num[1], f[0] - f[1])
        alpha = num[0] - beta * f[0]
        for i, (x, count) in enumerate(zip(num, f)):
            if alpha + beta * count != x:
                raise ConstructionError(
                    f"{g.label()}: E_1 is not affine in M M^T at distance {i}, "
                    "so the centered point indicators are not in V_1"
                )
        if not beta:
            raise ConstructionError(f"{g.label()}: E_1 is a multiple of J")
        t = beta.denominator
        alpha, beta, den = int(alpha * t), int(beta * t), den * t
        dim = spectral.multiplicities[1]
        return cls(tuple(labels), rows, scale, alpha, beta, den, g.incidence, dim)

    @cached_property
    def cols(self) -> np.ndarray:
        """rank(M) vertices with independent incidence rows, which decide
        every vector of col(M); every vertex unless E_1 fixes every row.

        beta M M^T = den E_1 - alpha J with beta != 0, so col(M) = col(M M^T)
        lies in V_0 + V_1 and rank(M) <= 1 + dim V_1.  One echelon with that
        limit takes rank(M) rows: where it finds fewer, it has scanned all.
        """
        m = self.incidence
        if not self.fixed.all():
            return np.arange(len(m))
        return np.array(independent_rows(m, range(len(m)), 1 + self.dim)[0], dtype=np.intp)

    def apply(self, x, at=slice(None)):
        """den E_1 x for each integer row of x, at the vertices at."""
        m = self.incidence
        # one pass over x: x M, and in the last column the row sums of x
        through = exact_matmul(x, np.column_stack([m, np.ones(len(m), dtype=m.dtype)]))
        total, spread = through[:, -1:], exact_matmul(through[:, :-1], m[at].T)
        terms = exact_multiply(self.alpha, total), exact_multiply(self.beta, spread)
        # |alpha total + beta spread| <= 2 max(|alpha total|, |beta spread|)
        if not fits_int64(2, max(map(abs_max, terms))):
            terms = [t.astype(object) for t in terms]
        return terms[0] + terms[1]

    @cached_property
    def fixed(self) -> np.ndarray:
        """fixed[i]: E_1 fixes vector i, which so lies in V_1 (one n x P check)."""
        return (self.apply(self.rows) == exact_multiply(self.den, self.rows)).all(axis=1)

    def products(self, first, second) -> np.ndarray:
        """Row k: den * scale^2 E_1(x_i . x_j) at cols, for i = first[k]
        and j = second[k]."""
        return self.apply(exact_multiply(self.rows[first], self.rows[second]), self.cols)

    def expand(self, basis):
        """Every vector and every product of basis vectors over the basis.

        For vectors with no closed-form products (structure_constants reads
        the family graphs' cube off the swept formula rows instead).  basis
        lists independent row indices.  Returns (den, coords, inside,
        operation): coords[i] / den is vector i over the basis where
        inside[i], else it leaves the span; operation is the product of
        basis vectors, straight from the solve, and a product that leaves
        the span is a ConstructionError.
        """
        basis = list(basis)
        rows = self.rows[:, self.cols]
        kept, pivots = independent_rows(rows, basis, len(basis))
        if len(kept) < len(basis):
            raise ValueError("basis rows are linearly dependent")
        s, k = len(self.labels), len(basis)
        a, b = np.triu_indices(k)
        chosen = np.array(basis)
        targets = np.concatenate([rows, self.products(chosen[a], chosen[b])])
        det, solved, inside = coordinates(rows[chosen], pivots, targets)
        if not inside[s:].all():
            x = int(np.argmin(inside[s:]))
            raise ConstructionError(f"basis product ({a[x]},{b[x]}) escapes V_1")
        table = np.empty((k, k, k), dtype=object)
        table[a, b] = table[b, a] = solved[s:]
        op = BilinearOperation.from_int_table(det * self.den * self.scale, table)
        return det, solved[:s], inside[:s], op


def oracle_products(g: GraphInstance, spectral: SpectralData):
    """OracleProducts of the rescaled centered indicators of all points.

    The integer rows are read off the graph's vertex-by-point incidence,
    centered by the size of the first upper set, and E_1 must fix each (one
    n x P product for all of them); a row whose upper set has another size
    has a nonzero sum, so E_1 does not fix it.  rows / scale are the
    spanning vectors, and rows / (scale * rescale) the centered indicators.
    """
    lat = g.lattice
    if lat is None:
        raise ConstructionError(f"{g.label()} carries no lattice")
    n = g.vertex_count
    labels = lat.levels[1]
    indicators = g.incidence.T
    upper_size = int(indicators[0].sum())
    # a rescaled centered indicator is rescale * (n - upper_size) / n on its
    # upper set and -rescale * upper_size / n off it
    rescale = family_constants(g.family)["rescale"]
    inside = rescale * Fraction(n - upper_size, n)
    outside = rescale * Fraction(-upper_size, n)
    scale = lcm(inside.denominator, outside.denominator)
    # the 0/1 indicators pick (outside, inside); int64 unless one is past it
    rows = np.array([int(outside * scale), int(inside * scale)])[indicators]
    products = OracleProducts.of_rows(g, spectral, labels, rows, scale)
    if not products.fixed.all():
        v = labels[int(np.argmin(products.fixed))]
        raise ConstructionError(f"centered indicator of {v!r} is not in V_1")
    return products


def formula_rows(g: GraphInstance, u, v):
    """The closed-form products of the point pairs (u[k], v[k]), in integers.

    Returns (clear, rows): the product of the rescaled vectors of points
    u[k] and v[k] is sum_w rows[k, w] / clear times the rescaled vector of
    point w, with points indexed as g.lattice.levels[1] (the incidence
    columns).

    u * u is u, or "diagonal" u for Hamming.  For u != v the product is
    c (u + v) (Johnson; zero when there is no c); c (u + v) plus b on every
    point of the line join(u, v) (Grassmann); "adjacent" (u + v) when
    join(u, v) is the lattice maximum and zero otherwise (Hamming); c (u + v)
    when join(u, v) is the maximum, and otherwise also b on the points w
    where join(u, v, w) has rank 2 and b' where it has rank 3 (dual polar).

    Every element below the maximum is the meet of the vertices above it,
    and a join is the maximum exactly when no vertex lies above all its
    parts.  So with P the vertices above u and v and T those also above w,
    both read off g.incidence: join(u, v) is the maximum iff P = 0, w lies
    below join(u, v) iff T = P, and join(u, v, w) has rank 3 iff 0 < T < P.
    The constants come from family_constants, looked up at call time, times
    their common denominator clear.
    """
    family = g.family
    if g.lattice is None:
        raise ConstructionError(f"{g.label()} carries no lattice")
    con = family_constants(family)
    if isinstance(family, JohnsonFamily):
        names = () if con.get("zero_product") else ("c",)
    elif isinstance(family, GrassmannFamily):
        names = ("c", "b")
    elif isinstance(family, HammingFamily):
        names = ("diagonal", "adjacent")
    elif isinstance(family, DualPolarFamily):
        names = ("c", "b", "b_prime")
    else:
        raise ValueError(f"no product formulas for {family!r}")
    clear = lcm(*(Fraction(con[name]).denominator for name in names))
    k = {name: int(con[name] * clear) for name in names}
    m = g.incidence
    u, v = np.asarray(u, dtype=np.intp), np.asarray(v, dtype=np.intp)
    # every entry is clear, one constant, or the sum of c and b
    dtype = np.int64 if fits_int64(clear + sum(abs(x) for x in k.values())) else object
    rows = np.zeros((len(u), m.shape[1]), dtype=dtype)
    at, other = np.arange(len(u)), u != v
    # both[k]: the vertices above u[k] and v[k], common[k] of them
    above = m.T.astype(bool, order="C")
    both = above[u] & above[v]
    common = both.sum(axis=1)
    same = at[~other]
    if isinstance(family, HammingFamily):
        rows[same, u[same]] = k["diagonal"]
        apart = at[other & (common == 0)]
        rows[apart, u[apart]] = rows[apart, v[apart]] = k["adjacent"]
    elif names:
        rows[at, u] = rows[at, v] = k["c"]
        rows[same, u[same]] = clear
    if "b" in k:
        # dual polar has the b terms only where join(u, v) is a line
        keep = at[other & (common > 0)] if "b_prime" in k else at[other]
        # triple[k, w]: the vertices above the pair and above point w
        pair, triple = common[keep, None], exact_matmul(both[keep].astype(m.dtype), m)
        extra = (triple == pair).astype(dtype) * k["b"]
        if "b_prime" in k:
            extra += ((triple > 0) & (triple < pair)).astype(dtype) * k["b_prime"]
        rows[keep] += extra
    return clear, rows


@dataclass(frozen=True)
class FormulaOracleReport:
    pairs_checked: int
    max_discrepancy: Fraction


def verify_formula_vs_oracle(
    g: GraphInstance, spectral: SpectralData, products=None
) -> FormulaOracleReport:
    """Compare the closed-form product against the projection oracle.

    Runs over every ordered pair of spanning vectors and demands exact
    agreement; the report's max_discrepancy is always zero on return.  The
    oracle side is products (oracle_products(g, spectral) unless given: any
    OracleProducts labelled by the points in order, so rows that do not
    match their labels fail the sweep), the formula side formula_rows.
    With the formula's coefficients cf_l cleared by L = clear, the pair
    (u, v) agrees exactly when

        L den E_1 (rows[u] . rows[v]) == den scale sum_l (L cf_l) rows[l],

    one integer comparison per block of pairs at the vertices products.cols.
    The oracle product of an unordered pair is formed once and compared
    with the formula rows of both orders, so a formula wrong in one order
    only is caught: one formula_rows call per block, on (i, j) then (j, i),
    reported in that order.  Each block's arrays are dropped before the next.
    """
    if products is None:
        products = oracle_products(g, spectral)
    labels = products.labels
    if labels != tuple(g.lattice.levels[1]):
        raise ValueError(f"{g.label()}: spanning vectors must be the points, in order")
    s = len(labels)
    rows, cleared = products.rows, products.den * products.scale
    at_cols = rows[:, products.cols]
    # a block's pairs are asked for in both orders, so each is two rows wide
    ordered = np.stack(np.triu_indices(s))
    for cols in row_blocks(ordered.shape[1], 2 * max(g.incidence.shape)):
        first, second = ordered[:, cols], ordered[::-1, cols]
        oracle = products.products(first[0], second[0])
        first, second = first.ravel(), second.ravel()
        clear, coefficients = formula_rows(g, first, second)
        formula = exact_multiply(cleared, exact_matmul(coefficients, at_cols))
        mismatch = exact_multiply(clear, oracle) != formula.reshape(2, *oracle.shape)
        bad = np.flatnonzero(mismatch.any(axis=2))
        if bad.size:
            # the discrepancy is taken over every vertex
            row = int(bad[0])
            u, v = int(first[row]), int(second[row])
            full = products.apply(exact_multiply(rows[u], rows[v])[None])[0]
            want = exact_matmul(coefficients[row][None], rows)[0]
            gap = exact_multiply(clear, full).astype(object) - exact_multiply(cleared, want)
            disc = Fraction(abs_max(gap), clear * cleared * products.scale)
            raise FormulaMismatchError(
                f"{g.label()}: formula disagrees with oracle on "
                f"({labels[u]!r}, {labels[v]!r}), max discrepancy {disc}"
            )
    return FormulaOracleReport(s * s, Fraction(0))


@dataclass(eq=False)
class NortonAlgebra:
    """Exact structure constants of the Norton product on V_1.

    Two integer tables from the solve: the operation's cube, and coords,
    whose row p over the reduced coords_den is point p (of points, lattice
    level 1) over the basis; basis holds the basis points' indices.
    label_coords and basis_labels are views by label, and of_fractions
    converts hand-made Fraction coordinates once.  one_off and one_off_line
    are one_off_pair(g): the preferred pair of the classification routines
    (independent whenever the product is nonzero) and its line.
    """

    family: object
    operation: BilinearOperation
    points: tuple
    basis: tuple
    coords_den: int
    coords: np.ndarray
    one_off: tuple
    one_off_line: tuple = ()
    # classify._one_off_proof's pair, mu and s, made on first use
    one_off_proof: tuple | None = field(default=None, init=False, repr=False)
    # classify._depth_rows's chain a_0, a_1, ..., extended as m grows
    depth_chain: list | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=object)
        content = gcd(self.coords_den, *coords.ravel().tolist())
        self.coords_den, self.coords = self.coords_den // content, coords // content

    @classmethod
    def of_fractions(cls, family, operation, label_coords, one_off, basis_labels=()):
        """The algebra whose points are the labels of label_coords, in order."""
        points = tuple(label_coords)
        den, coords = _scaled_rows(label_coords.values())
        basis = tuple(map(points.index, basis_labels))
        return cls(family, operation, points, basis, den, coords, one_off)

    @property
    def dim(self) -> int:
        return self.operation.dimension

    @property
    def basis_labels(self) -> tuple:
        return tuple(self.points[i] for i in self.basis)

    @cached_property
    def label_coords(self) -> dict:
        rows = (tuple(Fraction(x, self.coords_den) for x in r) for r in self.coords.tolist())
        return dict(zip(self.points, rows))

    def one_off_rows(self):
        """(s, rows): the preferred pair times the lcm s of its denominators,
        a 2 x dim array of Python ints."""
        rows = self.coords[list(map(self.points.index, self.one_off))]
        unit = gcd(self.coords_den, *rows.ravel().tolist())
        return self.coords_den // unit, rows // unit

    def label(self) -> str:
        return self.family.label()


def one_off_pair(g: GraphInstance):
    """The preferred pair of points (lattice level 1) and its line, ((u, v), line).

    The pair is the first pair of points whose join is the lattice maximum
    (no vertex lies above both), or else the first two points.  The line
    holds the points below the join of the pair when that join is proper
    and holds more than the two points: every vertex above u and v is above
    w.  That is the q+1 points of a Grassmann line, and empty for the other
    families.  Both are read off the incidence alone, by algebra_from_coords
    for a built and a cached algebra alike.
    """
    points, m = g.lattice.levels[1], g.incidence
    first, second = np.nonzero(np.triu(exact_matmul(m.T, m) == 0, 1))
    i, j = (int(first[0]), int(second[0])) if first.size else (0, 1)
    both = m[:, i] * m[:, j]
    below = np.flatnonzero(exact_matmul(both[None], m)[0] == both.sum())
    line = tuple(points[w] for w in below) if both.any() and below.size > 2 else ()
    return (points[i], points[j]), line


def structure_constants(
    g: GraphInstance, spectral: SpectralData, products=None, report=None
) -> NortonAlgebra:
    """Norton product of a family graph as a structure-constant cube.

    The basis is the first dim V_1 independent points in lattice order (over
    H(d,e) the e points of one coordinate sum to zero, so each coordinate's
    last letter is skipped).  That one echelon's pivots serve the one solve,
    of every point over the basis: coords / coords_den.  algebra_from_coords
    reads the cube off the closed forms the formula-versus-oracle sweep
    proved on every ordered pair of points.  report is that sweep's report
    over products (both shared with build_instance when given); without it
    the sweep runs here first, so no unproved formula is read.
    """
    if products is None:
        products = oracle_products(g, spectral)
    if report is None:
        verify_formula_vs_oracle(g, spectral, products=products)
    labels = products.labels
    dim = spectral.multiplicities[1]
    rows = products.rows[:, products.cols]
    chosen, pivots = independent_rows(rows, range(len(labels)), dim)
    if len(chosen) != dim:
        raise ConstructionError(
            f"{g.label()}: only {len(chosen)} independent points, need {dim}"
        )
    coords_den, coords, inside = coordinates(rows[chosen], pivots, rows)
    if not inside.all():
        raise ConstructionError(
            f"{g.label()}: spanning vectors do not span a {dim}-dimensional "
            f"space: {labels[int(np.argmin(inside))]!r} escapes the basis span"
        )
    return algebra_from_coords(g, chosen, coords_den, coords)


def algebra_from_coords(g: GraphInstance, basis, coords_den, coords) -> NortonAlgebra:
    """The NortonAlgebra of g whose points have the given coordinates.

    coords[p] / coords_den is point p (of g.lattice.levels[1]) over the
    basis points, whose indices basis lists.  The cube is read off the
    closed forms of the basis pairs alone, a block at a time: with
    (clear, cf) = formula_rows(g, a, b),

        C[a][b] = C[b][a] = sum_w cf[w] coords[w] / (clear coords_den),

    one product per block.  The preferred pair (one_off_pair) must be
    independent whenever the product is nonzero.  structure_constants
    passes the coordinates of its solve, after the sweep proved the
    formulas in both orders; load_cache passes the stored coordinates,
    checked against the rebuilt incidence, so no cube is ever stored.
    """
    points, dim = tuple(g.lattice.levels[1]), len(basis)
    a, b = np.triu_indices(dim)
    chosen, upper = np.asarray(basis, dtype=np.intp), []
    for cols in row_blocks(len(a), max(g.incidence.shape)):
        clear, cf = formula_rows(g, chosen[a[cols]], chosen[b[cols]])
        upper.append(exact_matmul(cf, coords))
    cube = np.empty((dim, dim, dim), dtype=object)
    cube[a, b] = cube[b, a] = np.concatenate(upper)
    op = BilinearOperation.from_int_table(clear * coords_den, cube)
    pair, line = one_off_pair(g)
    if not op.is_zero:
        # the pair is independent iff its coordinate rows are: a x b^T is
        # symmetric iff a and b are parallel
        x, y = (coords[points.index(p)] for p in pair)
        if np.array_equal(exact_multiply(x[:, None], y), exact_multiply(y[:, None], x)):
            raise ConstructionError(f"{g.label()}: preferred pair is dependent")
    return NortonAlgebra(g.family, op, points, tuple(basis), coords_den, coords, pair, line)
