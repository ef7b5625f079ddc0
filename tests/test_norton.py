"""Norton product layer: spanning vectors, oracle, closed forms, algebras.

The per-pair route, one dense E_1 apply per pair of spanning vectors, the
closed-form product of each pair from lattice joins, and a Gauss-Jordan
span solver for the structure constants, lives here as the reference the
batched integer oracle and the incidence-read formula rows are compared
against.  The dense E_j is built here too, from its D+1 coefficients and
the distance matrix, as Fractions or as integer numerators over one
denominator; the package itself never expands it.
"""

import dataclasses
import itertools
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import lcm, prod

import numpy as np
import pytest

from nortonalg import fq, instances, intlinalg, norton
from nortonalg.binop import BilinearOperation, direct_product
from nortonalg.errors import ConstructionError, FormulaMismatchError
from nortonalg.graphs import (
    TOP,
    DualPolarFamily,
    GrassmannFamily,
    HammingFamily,
    JohnsonFamily,
    RankedLattice,
    build_dual_polar,
    build_grassmann,
    build_hamming,
    build_johnson,
)
from nortonalg.intlinalg import (
    RightFactor,
    abs_max,
    coordinates,
    eliminate,
    exact_matmul,
    exact_multiply,
    word_primes,
)
from nortonalg.norton import (
    NortonAlgebra,
    OracleProducts,
    family_constants,
    formula_rows,
    oracle_products,
    structure_constants,
    verify_formula_vs_oracle,
)
from nortonalg.spectral import closed_form_multiplicity, spectral_data

CONFTEST_INSTANCES = (
    "j31", "j41", "j42", "j52", "g242", "h22",
    "h13", "h23", "h14", "d22", "c22", "d32",
)


def integer_rows(rows):
    """Rational rows times the lcm of all their denominators, as integers."""
    fracs = [[Fraction(x) for x in r] for r in rows]
    scale = lcm(*(x.denominator for r in fracs for x in r))
    return np.array([[int(x * scale) for x in r] for r in fracs], dtype=object)


def spanning(g, sd):
    """(labels, vectors): the points and their spanning vectors, rows / scale
    of oracle_products, as tuples of Fractions."""
    products = oracle_products(g, sd)
    rows = products.rows.tolist()
    return products.labels, [tuple(Fraction(x, products.scale) for x in r) for r in rows]


def products_of(g, sd, labels, vectors):
    """OracleProducts of labelled rational vectors, cleared to integer rows."""
    scale = lcm(*(Fraction(x).denominator for vec in vectors for x in vec))
    return OracleProducts.of_rows(g, sd, labels, integer_rows(vectors), scale)


def formula_product(g, u, v):
    """Label -> coefficient of the closed-form product of points u and v,
    zeros left out, read off formula_rows."""
    points = g.lattice.levels[1]
    clear, rows = formula_rows(g, [points.index(u)], [points.index(v)])
    return {points[w]: Fraction(int(rows[0, w]), clear) for w in np.flatnonzero(rows[0])}


def dense_idempotent(g, sd, j):
    """E_j as an n x n object array of Fractions: entry (x, y) is e[j][dist(x, y)]."""
    return np.array(sd.coefficients[j], dtype=object)[g.dist]


def dense_numerator(g, sd, j):
    """(num, den) with E_j = num / den: num[x, y] = den * e[j][dist(x, y)], integers."""
    coeffs = [Fraction(c) for c in sd.coefficients[j]]
    den = lcm(*(c.denominator for c in coeffs))
    return np.array([int(c * den) for c in coeffs], dtype=object)[g.dist], den


def apply_dense(e, vec):
    """E_j @ vec for e = dense_numerator(...) and a rational vector, as Fractions.

    The vector is cleared to integers by the lcm s of its denominators,
    multiplied by num in integers and divided once by den * s.
    """
    num, den = e
    fracs = [Fraction(x) for x in vec]
    s = lcm(*(x.denominator for x in fracs))
    out = num @ np.array([int(x * s) for x in fracs], dtype=object)
    return tuple(Fraction(x, den * s) for x in out.tolist())


def fraction_pivots(rows):
    """Pivot columns of rational rows by Gauss-Jordan in Fractions, so the
    greedy independent columns in order; their count is the rank."""
    work = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(len(work[0]) if work else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
    return pivots


def rank_of(rows):
    return len(fraction_pivots(rows))


def test_family_constants_johnson(bundle):
    assert family_constants(bundle("j31")[0].family) == {
        "rescale": 3,
        "c": -1,
    }
    assert family_constants(bundle("j41")[0].family) == {
        "rescale": 2,
        "c": Fraction(-1, 2),
    }
    assert family_constants(bundle("j52")[0].family) == {
        "rescale": Fraction(5, 1),
        "c": Fraction(-1, 3),
    }
    con = family_constants(bundle("j42")[0].family)
    assert con["zero_product"] and con["rescale"] == 1


def test_family_constants_grassmann(bundle):
    con = family_constants(bundle("g242")[0].family)
    assert con["rescale"] == Fraction(5, 3)
    assert con["c"] == Fraction(-1, 3)
    assert con["b"] == Fraction(5, 18)


def test_family_constants_hamming(bundle):
    con = family_constants(bundle("h23")[0].family)
    assert con == {
        "rescale": 1,
        "diagonal": Fraction(1, 3),
        "adjacent": Fraction(-1, 3),
        "c": -1,
    }
    con = family_constants(bundle("h14")[0].family)
    assert con["diagonal"] == Fraction(1, 2)
    assert con["adjacent"] == Fraction(-1, 4)
    assert con["c"] == Fraction(-1, 2)
    assert family_constants(bundle("h22")[0].family)["zero_product"]


def test_family_constants_dual_polar(bundle):
    con = family_constants(bundle("d22")[0].family)
    assert con["rescale"] == 3
    assert con["c"] == -1
    assert con["b"] == 1
    assert con["b_prime"] == Fraction(2, 3)
    con = family_constants(bundle("c22")[0].family)
    assert con["rescale"] == Fraction(5, 3)
    assert con["c"] == Fraction(-1, 3)
    assert con["b"] == Fraction(5, 12)
    assert con["b_prime"] == Fraction(5, 24)


def test_spanning_vectors_triangle(bundle):
    g, sd = bundle("j31")
    labels, vectors = spanning(g, sd)
    assert labels == ((1,), (2,), (3,))
    assert vectors[0] == (2, -1, -1)
    products = oracle_products(g, sd)
    rescale = family_constants(g.family)["rescale"]
    assert rescale == 3
    unscaled = tuple(Fraction(x, products.scale) / rescale for x in products.rows[0].tolist())
    assert unscaled == (Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3))


def test_spanning_vectors_are_centered_and_span(bundle):
    for name in ("j52", "g242", "h23", "d22", "c22"):
        g, sd = bundle(name)
        labels, vectors = spanning(g, sd)
        assert labels == g.lattice.levels[1]
        for vec in vectors:
            assert sum(vec) == 0
        dim = sd.multiplicities[1]
        assert rank_of(vectors) == dim


def test_norton_oracle_triangle(bundle):
    g, sd = bundle("j31")
    e1 = dense_numerator(g, sd, 1)
    _, vectors = spanning(g, sd)
    u, v = vectors[0], vectors[1]
    assert apply_dense(e1, u) == u and apply_dense(e1, v) == v
    prod = apply_dense(e1, [a * b for a, b in zip(u, v)])
    minus_u_minus_v = tuple(-a - b for a, b in zip(u, v))
    assert prod == minus_u_minus_v
    assert prod == vectors[2]
    assert apply_dense(e1, [a * a for a in u]) == u


def test_formula_product_johnson(bundle):
    g52 = bundle("j52")[0]
    u, v = (1,), (2,)
    assert formula_product(g52, u, u) == {u: 1}
    assert formula_product(g52, u, v) == {
        u: Fraction(-1, 3),
        v: Fraction(-1, 3),
    }
    g42 = bundle("j42")[0]
    assert formula_product(g42, (1,), (2,)) == {}
    assert formula_product(g42, (1,), (1,)) == {}


def test_formula_product_hamming(bundle):
    g = bundle("h23")[0]
    same_pos = ((1, 0), (2, 0))
    diff_pos = ((1, 0), (0, 2))
    assert g.lattice.join(*same_pos) is TOP
    assert formula_product(g, *same_pos) == {
        same_pos[0]: Fraction(-1, 3),
        same_pos[1]: Fraction(-1, 3),
    }
    assert formula_product(g, *diff_pos) == {}
    assert formula_product(g, (1, 0), (1, 0)) == {
        (1, 0): Fraction(1, 3)
    }


def test_formula_product_grassmann_line_sum(bundle):
    g = bundle("g242")[0]
    points = g.lattice.levels[1]
    u, v = points[0], points[1]
    out = formula_product(g, u, v)
    assert out[u] == Fraction(-1, 18)
    assert out[v] == Fraction(-1, 18)
    others = [lbl for lbl in out if lbl not in (u, v)]
    assert len(others) == 1  # third point of the projective line
    assert out[others[0]] == Fraction(5, 18)


def test_formula_product_dual_polar_collinear(bundle):
    g = bundle("d22")[0]
    lat = g.lattice
    points = lat.levels[1]
    coll = next(
        (u, v)
        for i, u in enumerate(points)
        for v in points[i + 1:]
        if lat.join(u, v) is not TOP
    )
    out = formula_product(g, *coll)
    # c + b = 0 for D_2(2): the factors drop out, the third point survives
    assert len(out) == 1
    (w, cf), = out.items()
    assert cf == 1
    assert w not in coll
    opp = next(
        (u, v)
        for i, u in enumerate(points)
        for v in points[i + 1:]
        if lat.join(u, v) is TOP
    )
    assert formula_product(g, *opp) == {opp[0]: -1, opp[1]: -1}


def test_formula_matches_oracle_everywhere(bundle):
    for name in (
        "j31", "j41", "j42", "j52", "g242",
        "h22", "h23", "h14", "d22", "c22",
    ):
        g, sd = bundle(name)
        report = verify_formula_vs_oracle(g, sd)
        count = len(g.lattice.levels[1])
        assert report.pairs_checked == count * count
        assert report.max_discrepancy == 0


def test_formula_matches_oracle_with_triple_joins(bundle):
    # diameter-3 instance: products of collinear points spill onto points
    # whose join with the base plane has rank 3
    g, sd = bundle("d32")
    report = verify_formula_vs_oracle(g, sd)
    assert report.pairs_checked == len(g.lattice.levels[1]) ** 2
    assert report.max_discrepancy == 0


def test_tampered_vectors_fail_verification(bundle):
    g, sd = bundle("j52")
    products = oracle_products(g, sd)
    rows = products.rows.copy()
    rows[0] *= 2
    doubled = dataclasses.replace(products, rows=rows)
    with pytest.raises(FormulaMismatchError):
        verify_formula_vs_oracle(g, sd, products=doubled)


def test_halved_vectors_fail_verification(bundle):
    # a vector halved past the rows' scale still goes through the integer oracle
    g, sd = bundle("g242")
    labels, vectors = spanning(g, sd)
    vectors[3] = tuple(x / 2 for x in vectors[3])
    with pytest.raises(FormulaMismatchError):
        verify_formula_vs_oracle(g, sd, products=products_of(g, sd, labels, vectors))


def test_sweep_refuses_vectors_out_of_point_order(bundle):
    g, sd = bundle("j52")
    products = oracle_products(g, sd)
    reversed_order = OracleProducts.of_rows(
        g, sd, products.labels[::-1], products.rows[::-1], products.scale
    )
    with pytest.raises(ValueError, match="in order"):
        verify_formula_vs_oracle(g, sd, products=reversed_order)


@pytest.mark.parametrize(
    "name, key",
    [("j52", "c"), ("g242", "c"), ("g242", "b"), ("c22", "b"), ("d32", "b_prime")],
)
def test_wrong_formula_constant_fails_verification(bundle, monkeypatch, name, key):
    g, sd = bundle(name)
    products = oracle_products(g, sd)  # built before the constants go wrong
    real = family_constants

    def wrong(family):
        con = real(family)
        return {**con, key: con[key] + 1}

    monkeypatch.setattr(norton, "family_constants", wrong)
    with pytest.raises(FormulaMismatchError):
        verify_formula_vs_oracle(g, sd, products=products)


@pytest.mark.parametrize("which", ["first", "second"])
def test_sweep_compares_each_order_of_a_pair(bundle, monkeypatch, which):
    # the oracle product is symmetric, the formula need not be: formula
    # rows wrong in one order only must still be caught
    g, sd = bundle("j52")
    points = g.lattice.levels[1]
    a, b = (0, 1) if which == "first" else (1, 0)
    real = formula_rows

    def one_sided(graph, u, v):
        clear, rows = real(graph, u, v)
        rows[(np.asarray(u) == a) & (np.asarray(v) == b), a] *= 2
        return clear, rows

    monkeypatch.setattr(norton, "formula_rows", one_sided)
    with pytest.raises(FormulaMismatchError, match=re.escape(f"({points[a]!r}, {points[b]!r})")):
        verify_formula_vs_oracle(g, sd)


def test_sweep_reports_the_first_order_of_a_block_first(bundle, monkeypatch):
    # (2, 3) is wrong in the first order and (4, 0) in the second; the
    # unordered pair (0, 4) comes before (2, 3), but the first orders of a
    # block are checked before the second
    g, sd = bundle("j52")
    points = g.lattice.levels[1]
    real = formula_rows

    def two_sided(graph, u, v):
        clear, rows = real(graph, u, v)
        for a, b in ((2, 3), (4, 0)):
            rows[(np.asarray(u) == a) & (np.asarray(v) == b), a] *= 2
        return clear, rows

    monkeypatch.setattr(norton, "formula_rows", two_sided)
    with pytest.raises(FormulaMismatchError, match=re.escape(f"({points[2]!r}, {points[3]!r})")):
        verify_formula_vs_oracle(g, sd)


@pytest.mark.parametrize("name", ["j52", "c22", "h23", "d32"])
def test_vectors_outside_v1_are_rejected(bundle, name):
    g, sd = bundle(name)
    # E_2 in place of E_1 is not affine in M M^T
    order = [0, 2, 1, *range(3, sd.count)]
    swapped = dataclasses.replace(
        sd,
        numerators=sd.numerators[order],
        denominators=tuple(sd.denominators[j] for j in order),
    )
    with pytest.raises(ConstructionError, match="not in V_1"):
        oracle_products(g, swapped)
    # 2 E_1 is, but fixes no nonzero vector
    numerators = sd.numerators.copy()
    numerators[1] *= 2
    doubled = dataclasses.replace(sd, numerators=numerators)
    with pytest.raises(ConstructionError, match="not in V_1"):
        oracle_products(g, doubled)
    # one point's upper set one vertex short: its row no longer sums to 0
    incidence = g.incidence.copy()
    incidence[np.flatnonzero(incidence[:, 0])[0], 0] = 0
    with pytest.raises(ConstructionError, match="not in V_1"):
        oracle_products(dataclasses.replace(g, incidence=incidence), sd)


@pytest.mark.parametrize(
    "name, disc", [("j52", "361/270"), ("c22", "329/720"), ("d32", "397/900")]
)
def test_vector_off_v1_fails_the_sweep_in_full(bundle, name, disc):
    # the first vector plus the E_2 column of vertex 0 leaves col(M), where
    # the vertices the sweep compares at no longer decide a vector; pair and
    # discrepancy are those of the comparison over every vertex
    g, sd = bundle(name)
    labels, vectors = spanning(g, sd)
    column = dense_idempotent(g, sd, 2)[:, 0]
    vectors[0] = tuple(a + b for a, b in zip(vectors[0], column))
    p = labels[0]
    message = f"on ({p!r}, {p!r}), max discrepancy {disc}"
    with pytest.raises(FormulaMismatchError, match=re.escape(message)):
        verify_formula_vs_oracle(g, sd, products=products_of(g, sd, labels, vectors))


def test_sweep_sees_a_vector_its_comparison_vertices_cannot():
    # H(5,2) is Q-polynomial and dual bipartite, so for z in V_3 both
    # E_1(z . x) for x in V_1 and E_1(z . z) vanish.  With z zero at every
    # comparison vertex, the first vector plus z agrees there with every
    # oracle product and formula; only the full comparison sees the pair it
    # breaks.
    g = build_hamming(5, 2)
    sd = spectral_data(g)
    cols = oracle_products(g, sd).cols
    chars = np.array(
        [
            [(-1) ** sum(w[i] for i in s) for w in g.vertices]
            for s in itertools.combinations(range(5), 3)
        ],
        dtype=object,
    )
    # rows independent mod p are so over Q, and the solve is checked exactly
    _, pivots, kept = eliminate(chars[:, cols].T, next(word_primes()))
    extra = next(i for i in range(len(chars)) if i not in kept)
    det, (coeffs,), inside = coordinates(chars[kept][:, cols], pivots, chars[[extra]][:, cols])
    assert inside.all()
    z = chars[extra] - sum(Fraction(c, det) * chars[k] for c, k in zip(coeffs, kept))
    assert not z[cols].any() and z.any()
    labels, vectors = spanning(g, sd)
    vectors[0] = tuple(a + b for a, b in zip(vectors[0], z))
    message = "on ((0, 0, 0, 0, 1), (0, 0, 0, 0, 2)), max discrepancy 2"
    with pytest.raises(FormulaMismatchError, match=re.escape(message)):
        verify_formula_vs_oracle(g, sd, products=products_of(g, sd, labels, vectors))


@pytest.mark.parametrize("name", CONFTEST_INSTANCES)
def test_e1_is_affine_in_the_incidence_gram(bundle, name):
    g, sd = bundle(name)
    products = oracle_products(g, sd)
    m = g.incidence.astype(object)
    affine = products.alpha + products.beta * (m @ m.T)
    num, den = dense_numerator(g, sd, 1)
    assert np.array_equal(affine * den, num * products.den)
    # the comparison vertices have independent incidence rows, rank(M) of them
    cols = products.cols
    assert len(cols) == rank_of(m.T) == rank_of(m[cols])


def test_e1_a_multiple_of_j_is_refused(bundle):
    # one numerator at every distance: E_1 = alpha J, affine in M M^T with
    # beta = 0, so no comparison through M M^T can see V_1
    g, sd = bundle("j52")
    numerators = sd.numerators.copy()
    numerators[1] = numerators[1, 0]
    tampered = dataclasses.replace(sd, numerators=numerators)
    with pytest.raises(ConstructionError, match=re.escape("E_1 is a multiple of J")):
        oracle_products(g, tampered)


def test_e1_not_affine_in_the_incidence_gram_is_refused(bundle):
    g, sd = bundle("d32")
    # E_1 is over 60, so this adds 1/60 to its coefficient of A_2
    assert sd.denominators[1] == 60
    numerators = sd.numerators.copy()
    numerators[1, 2] += 1
    tampered = dataclasses.replace(sd, numerators=numerators)
    with pytest.raises(ConstructionError, match=re.escape("not affine in M M^T at distance 2")):
        oracle_products(g, tampered)


def test_exact_matmul_leaves_int64_when_sums_could_overflow():
    big = np.array([[2**40, 1]], dtype=object)
    col = np.array([[2**40], [-1]], dtype=object)
    out = exact_matmul(big, col)
    assert out.dtype == object and out.tolist() == [[2**80 - 1]]
    # past 2^53 but inside int64: exact in int64, where float64 would round
    mid = exact_matmul(np.array([[2**30 + 1, 1]]), np.array([[2**30 + 1], [1]]))
    assert mid.dtype == np.int64 and mid.tolist() == [[(2**30 + 1) ** 2 + 1]]
    small = exact_matmul(np.array([[3, -2]]), np.array([[5], [7]]))
    assert small.dtype == np.int64 and small.tolist() == [[1]]


def _row(values, dtype=np.int64):
    return np.array([values], dtype=dtype)


# each product is just past the bound of a tier, through the product of the
# factors' bounds or through the inner size, and the tier below would round it
TIER_EDGES = {
    "float32 product": (_row([2**12 + 1]), _row([2**12 + 1]).T, np.int64),
    "float32 inner size": (_row([2**23 - 1] * 3), _row([1] * 3).T, np.int64),
    "float32 factor": (_row([2**24 + 1]), _row([1]).T, np.int64),
    "float64 product": (_row([2**26 + 1]), _row([2**27 + 1]).T, np.int64),
    "float64 inner size": (_row([2**52 - 1] * 3), _row([1] * 3).T, np.int64),
    "float64 factor": (_row([2**53 + 1]), _row([1]).T, np.int64),
    "int64 product": (_row([2**31 + 1]), _row([2**32 + 1]).T, object),
    "int64 inner size": (_row([2**62 - 1] * 3), _row([1] * 3).T, object),
    "int64 factor": (_row([2**63 + 1], object), _row([1]).T, object),
    "object input": (_row([2**12 + 1], object), _row([2**12 + 1]).T, object),
}


@pytest.mark.parametrize("name", TIER_EDGES)
def test_exact_matmul_is_exact_past_each_tier_bound(name):
    a, b, dtype = TIER_EDGES[name]
    want = [[sum(int(x) * int(y) for x, y in zip(a[0], b[:, 0]))]]
    fixed = RightFactor(b)
    # the fixed-factor form twice: the second product reuses the first's cast
    for out in (exact_matmul(a, b), fixed.times(a), fixed.times(a)):
        assert out.dtype == dtype and out.tolist() == want
        assert all(type(x) is int for x in out.ravel().tolist())


def test_right_factor_picks_each_blocks_tier_across_seams(monkeypatch):
    # one block per row, each past the bound of the tier before it, then back
    # to the lowest: every block picks its own tier from its bound and b's,
    # and gets b cast to that tier, not to the tier of the block before
    monkeypatch.setattr(intlinalg, "BLOCK_CELLS", 2)
    a = np.array(
        [[3, 4], [2**23 + 1, 2**23 + 2], [2**52 + 1, 2**52 + 2], [2**62, 2**62], [5, -6]],
        dtype=np.int64,
    )
    b = np.array([[1], [1]], dtype=np.int64)
    fixed = RightFactor(b)
    blocks = [fixed.times(a[rows]) for rows in intlinalg.row_blocks(len(a), a.shape[1])]
    assert [block.dtype for block in blocks] == [np.int64] * 3 + [object, np.int64]
    assert [block.tolist() for block in blocks] == [[[sum(map(int, row))]] for row in a]


@pytest.mark.parametrize(
    "count,width,cells",
    [(0, 3, 6), (10, 3, 6), (12, 3, 6), (5, 0, 6), (5, 7, 6), (3, 0, None), (3, 2**21, None)],
)
def test_row_blocks_tile_the_rows_within_the_cell_bound(monkeypatch, count, width, cells):
    if cells is not None:
        monkeypatch.setattr(intlinalg, "BLOCK_CELLS", cells)
    most = max(1, intlinalg.BLOCK_CELLS // max(width, 1))
    blocks = list(intlinalg.row_blocks(count, width))
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(count))
    assert all(b.step is None and 1 <= b.stop - b.start <= most for b in blocks)
    # a full block wherever the rows allow one
    assert all(b.stop - b.start == most for b in blocks[:-1])


def test_exact_multiply_leaves_int64_when_products_could_overflow():
    big = exact_multiply(np.array([2**40, -3]), np.array([2**30, 5]))
    assert big.dtype == object and big.tolist() == [2**70, -15]
    small = exact_multiply(7, np.array([3, -2]))
    assert small.dtype == np.int64 and small.tolist() == [21, -14]


def test_abs_max_takes_python_ints_past_int64():
    assert abs_max(2**70) == 2**70 and abs_max(-(2**70)) == 2**70
    assert abs_max(np.array([-(2**63)])) == 2**63
    assert abs_max(np.array([], dtype=np.int64)) == 0
    out = exact_multiply(2**70, np.array([1, -2]))
    assert out.dtype == object and out.tolist() == [2**70, -(2**71)]
    # a zero or empty factor bounds the product, not the other factor
    assert exact_multiply(2**70, np.array([0])).tolist() == [0]
    huge = np.array([[2**63]], dtype=object)
    assert exact_matmul(huge, np.zeros((1, 1), dtype=np.int64)).tolist() == [[0]]
    assert exact_matmul(huge, np.zeros((1, 0), dtype=np.int64)).shape == (1, 0)


def test_coordinates_compares_int64_targets_past_2_63():
    # det = 2^66: a determinant times the int64 targets would overflow
    basis = np.diag([2**22] * 3).astype(np.int64)
    den, coords, inside = coordinates(basis, [0, 1, 2], basis)
    assert inside.all() and np.array_equal(coords, den * np.eye(3, dtype=np.int64))
    # den near 2^80, so den * targets passes 2^63 while every input is int64
    basis = np.diag([2**40 + 1, 2**40 + 3, 1]).astype(np.int64)
    targets = np.array([[2**40, 2**40, 2**40], [1, 0, 1 << 62]], dtype=np.int64)
    den, coords, inside = coordinates(basis, [0, 1, 2], targets)
    assert den == (2**40 + 1) * (2**40 + 3) and inside.all()
    want = [
        [Fraction(2**40, 2**40 + 1), Fraction(2**40, 2**40 + 3), 2**40],
        [Fraction(1, 2**40 + 1), 0, 1 << 62],
    ]
    assert [[Fraction(c, den) for c in row] for row in coords.tolist()] == want


def test_coordinates_refuses_a_wrong_lifted_solution(monkeypatch):
    # every reconstruction is off by one in one entry: the exact check
    # fails at each prime, up to the Hadamard bound, and then refuses
    real = intlinalg._reconstruct

    def wrong(residues, m):
        found = real(residues, m)
        if found is None:
            return None
        den, numerators = found
        numerators = numerators.copy()
        numerators.flat[0] += 1
        return den, numerators

    monkeypatch.setattr(intlinalg, "_reconstruct", wrong)
    basis = np.array([[2, 1, 0], [1, 3, 1]], dtype=np.int64)
    with pytest.raises(ConstructionError, match="failed its exact check"):
        coordinates(basis, [0, 1], basis)


def test_coordinates_refuses_a_singular_pivot_block():
    basis = np.array([[1, 2, 0], [2, 4, 1]], dtype=np.int64)
    with pytest.raises(ConstructionError, match="singular"):
        coordinates(basis, [0, 1], basis)


def test_coordinates_skips_primes_up_to_the_hadamard_bound(monkeypatch):
    # det(block) = 0 but no column is zero: every prime divides det, and the
    # refusal comes once their product passes the Hadamard bound H, a few
    # primes in for entries near 2^70
    x, y = 2**70 + 1, 3**45
    basis = np.array([[x, 2 * x, 0], [y, 2 * y, 1]], dtype=object)
    square = intlinalg._hadamard_square(basis[:, :2].T, basis[:, :2].T)
    primes, tried = list(itertools.islice(word_primes(), 10)), []

    def recorded():
        for p in primes:
            tried.append(p)
            yield p

    monkeypatch.setattr(intlinalg, "word_primes", recorded)
    with pytest.raises(ConstructionError, match="pivot block is singular"):
        coordinates(basis, [0, 1], basis)
    assert 1 < len(tried) < len(primes)
    assert prod(tried[:-1]) ** 2 <= square < prod(tried) ** 2


@pytest.mark.parametrize("name", ["j52", "h23", "c22", "g242"])
def test_oracle_rows_stay_int64(bundle, name):
    g, sd = bundle(name)
    products = oracle_products(g, sd)
    assert products.rows.dtype == np.int64
    reference = OracleProducts.of_rows(
        g, sd, products.labels, products.rows.astype(object), products.scale
    )
    i, j = np.triu_indices(len(products.labels))
    assert np.array_equal(products.products(i, j), reference.products(i, j))
    # rows of 2^31 times the entries: pairwise products pass 2^63 and must
    # leave int64 rather than wrap
    big = OracleProducts.of_rows(
        g, sd, products.labels, products.rows << 31, products.scale << 31
    )
    assert big.fixed.all()
    assert np.array_equal(big.products(i, j), reference.products(i, j) * (1 << 62))


def test_structure_constants_triangle(algebra):
    alg = algebra("j31")
    assert alg.dim == 2
    assert alg.basis_labels == ((1,), (2,))
    op = alg.operation
    assert op.coefficient(0, 0, 0) == 1 and op.coefficient(0, 0, 1) == 0
    assert op.coefficient(0, 1, 0) == -1 and op.coefficient(0, 1, 1) == -1
    assert op.coefficient(1, 1, 1) == 1
    # x * (x * y) = y and (x * x) * y = x * y: the one-off pair sees the
    # difference between association orders only through signs
    x, y = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    assert op.apply(x, op.apply(x, y)) == y
    assert op.apply(op.apply(x, x), y) == op.apply(x, y)
    assert op.apply(x, op.apply(y, y)) == op.apply(x, y)


def test_structure_constants_zero_algebras(algebra):
    assert algebra("j42").operation.is_zero
    assert algebra("h22").operation.is_zero
    assert algebra("j42").dim == 3
    assert algebra("h22").dim == 2


def test_hamming_23_is_square_of_hamming_13(algebra):
    op23 = algebra("h23").operation
    op13 = algebra("h13").operation
    assert algebra("h23").basis_labels == ((0, 1), (0, 2), (1, 0), (2, 0))
    assert algebra("h13").basis_labels == ((1,), (2,))
    assert direct_product(op13, op13).constants == op23.constants


def test_label_coords_cover_every_level_one_label(bundle, algebra):
    for name in ("j52", "g242", "h23", "c22"):
        g, _ = bundle(name)
        alg = algebra(name)
        labels = set(g.lattice.levels[1])
        assert set(alg.label_coords) == labels
        assert set(alg.basis_labels) <= labels
        assert len(alg.label_coords[alg.basis_labels[0]]) == alg.dim


def test_algebra_reproduces_formula_in_basis_coordinates(bundle, algebra):
    for name in ("j52", "h23", "d22"):
        g, _ = bundle(name)
        alg = algebra(name)
        op = alg.operation
        labels = list(g.lattice.levels[1])
        for u in labels:
            for v in labels:
                got = op.apply(alg.label_coords[u], alg.label_coords[v])
                expansion = formula_product(g, u, v)
                want = [Fraction(0)] * alg.dim
                for lbl, cf in expansion.items():
                    for idx, x in enumerate(alg.label_coords[lbl]):
                        want[idx] += cf * x
                assert list(got) == want, (name, u, v)


def test_structure_constants_independent_of_basis(bundle, algebra):
    g, sd = bundle("j52")
    default = algebra("j52")
    # the same algebra over the basis a greedy pass from the last point
    # picks mod p, which expand's exact solve checks
    products = oracle_products(g, sd)
    rows = products.rows[:, products.cols]
    count = len(products.labels)
    _, _, kept = eliminate(rows[::-1].T, next(word_primes()))
    chosen = [count - 1 - int(i) for i in kept[: default.dim]]
    den, coords, _, op = products.expand(chosen)
    reversed_order = NortonAlgebra(
        g.family, op, products.labels, tuple(chosen), den, coords, default.one_off
    )
    assert reversed_order.basis_labels != default.basis_labels
    # same algebra in different coordinates: products of the same labels
    # must expand identically over the respective label coordinates
    for u in g.lattice.levels[1]:
        for v in g.lattice.levels[1]:
            a = default.operation.apply(
                default.label_coords[u], default.label_coords[v]
            )
            b = reversed_order.operation.apply(
                reversed_order.label_coords[u], reversed_order.label_coords[v]
            )
            # compare by re-expanding both over the shared formula
            expansion = formula_product(g, u, v)
            for alg, got in ((default, a), (reversed_order, b)):
                want = [Fraction(0)] * alg.dim
                for lbl, cf in expansion.items():
                    for idx, x in enumerate(alg.label_coords[lbl]):
                        want[idx] += cf * x
                assert list(got) == want


def test_a_dependent_preferred_pair_is_refused(bundle, algebra):
    # the second point of J(5,2)'s preferred pair given the first's
    # coordinates: the product is nonzero, so the pair must be independent
    g = bundle("j52")[0]
    alg = algebra("j52")
    u, v = (alg.points.index(p) for p in alg.one_off)
    coords = alg.coords.copy()
    coords[v] = coords[u]
    with pytest.raises(ConstructionError, match="preferred pair is dependent"):
        norton.algebra_from_coords(g, alg.basis, alg.coords_den, coords)
    again = norton.algebra_from_coords(g, alg.basis, alg.coords_den, alg.coords)
    assert again.one_off == alg.one_off


def test_one_off_pairs(bundle, algebra):
    g52 = bundle("j52")[0]
    assert algebra("j52").one_off == tuple(g52.lattice.levels[1][:2])
    h23, _ = bundle("h23")
    u, v = algebra("h23").one_off
    assert h23.lattice.join(u, v) is TOP
    d22, _ = bundle("d22")
    u, v = algebra("d22").one_off
    assert d22.lattice.join(u, v) is TOP
    u, v = algebra("h22").one_off  # dependent pair tolerated: zero algebra
    assert u != v


def test_operations_are_commutative(algebra):
    for name in ("j31", "j52", "g242", "h23", "h14", "d22", "c22"):
        assert algebra(name).operation.is_commutative


def test_algebra_dimension_matches_multiplicity(bundle, algebra):
    for name in ("j31", "j41", "j52", "g242", "h23", "h14", "d22", "c22"):
        _, sd = bundle(name)
        assert algebra(name).dim == sd.multiplicities[1]


def test_missing_lattice_is_rejected(bundle):
    import numpy as np

    from nortonalg.graphs import graph_from_distance_matrix
    from nortonalg.spectral import spectral_data

    c4 = np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    g = graph_from_distance_matrix("cycle4", c4)
    sd = spectral_data(g)
    with pytest.raises(ConstructionError):
        oracle_products(g, sd)


# ---------------------------------------------------------------------------
# reference: the per-pair Fraction route


class ReferenceSpanSolver:
    """Repeated exact solves of sum_i c_i row_i = target for a fixed basis."""

    def __init__(self, rows):
        self.rows = [tuple(Fraction(x) for x in r) for r in rows]
        k = len(self.rows)
        self.n = len(self.rows[0])
        piv_cols = fraction_pivots(self.rows)
        assert len(piv_cols) == k, "basis rows are linearly dependent"
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


def reference_formula_product(family, lattice, u, v):
    """The closed-form product of two points, from lattice joins per pair.

    The constants are looked up at call time, as the package does.
    """
    con = norton.family_constants(family)
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
                # a join's rank is its rref row count; TOP has none
                span = lattice.join(plane, w)
                r = None if span is TOP else len(span)
                if r == 2:
                    out[w] = out.get(w, Fraction(0)) + b
                elif r == 3:
                    out[w] = out.get(w, Fraction(0)) + bp
    else:
        raise ValueError(f"no product formulas for {family!r}")
    return {lbl: cf for lbl, cf in out.items() if cf}


def reference_one_off(g, labels):
    """(one_off, one_off_line) by lattice joins: the first two labels, or
    for Hamming and dual polar the first pair joining to the maximum; the
    Grassmann line is every label below the join of the pair."""
    lat = g.lattice
    if isinstance(g.family, (JohnsonFamily, GrassmannFamily)):
        u, v = labels[0], labels[1]
    else:
        u, v = next(
            (u, v)
            for i, u in enumerate(labels)
            for v in labels[i + 1:]
            if lat.join(u, v) is TOP
        )
    line = ()
    if isinstance(g.family, GrassmannFamily):
        span = lat.join(u, v)
        line = tuple(w for w in labels if lat.leq(w, span))
    return (u, v), line


def reference_sweep(g, sd, labels, vectors):
    """Ordered pairs checked, one dense E_1 apply per pair."""
    by_label = dict(zip(labels, vectors))
    e1 = dense_numerator(g, sd, 1)
    pairs = 0
    for u, x in by_label.items():
        for v, y in by_label.items():
            oracle = apply_dense(e1, [a * b for a, b in zip(x, y)])
            predicted = [Fraction(0)] * g.vertex_count
            expansion = reference_formula_product(g.family, g.lattice, u, v)
            for lbl, cf in expansion.items():
                for idx, c in enumerate(by_label[lbl]):
                    predicted[idx] += cf * c
            assert list(oracle) == predicted, (u, v)
            pairs += 1
    return pairs


def reference_basis(g, labels, vectors):
    """(labels, rows) of the basis by one Fraction elimination: in lattice
    order, each spanning vector independent of those kept before it (the
    pivot columns of the vectors as columns), dim V_1 in all."""
    dim = closed_form_multiplicity(g.family, 1)
    kept = fraction_pivots(list(zip(*vectors)))
    assert len(kept) == dim
    return [labels[i] for i in kept], [vectors[i] for i in kept]


def reference_structure_constants(g, sd, labels, vectors):
    """(basis_labels, cube, label_coords, (one_off, one_off_line)) by rank
    tests, span solves and lattice joins."""
    basis_labels, chosen_rows = reference_basis(g, labels, vectors)
    dim = len(basis_labels)
    solver = ReferenceSpanSolver(chosen_rows)
    label_coords = {label: solver.solve(vec) for label, vec in zip(labels, vectors)}
    e1 = dense_numerator(g, sd, 1)
    cube = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            pointwise = [a * b for a, b in zip(chosen_rows[i], chosen_rows[j])]
            prod = apply_dense(e1, pointwise)
            cube[i][j] = cube[j][i] = solver.solve(prod)
    return tuple(basis_labels), cube, label_coords, reference_one_off(g, labels)


@pytest.mark.parametrize("name", CONFTEST_INSTANCES)
def test_integer_oracle_matches_fraction_reference(bundle, algebra, name):
    g, sd = bundle(name)
    labels, vectors = spanning(g, sd)
    rescale = family_constants(g.family)["rescale"]
    e1 = dense_numerator(g, sd, 1)
    for vec in vectors:
        unscaled = tuple(x / rescale for x in vec)
        assert apply_dense(e1, unscaled) == unscaled
    report = verify_formula_vs_oracle(g, sd, products=products_of(g, sd, labels, vectors))
    assert report.pairs_checked == reference_sweep(g, sd, labels, vectors) == len(labels) ** 2
    basis_labels, cube, label_coords, one_off = reference_structure_constants(
        g, sd, labels, vectors
    )
    alg = algebra(name)
    assert alg.basis_labels == basis_labels
    assert alg.operation.constants == BilinearOperation(cube).constants
    assert alg.label_coords == label_coords
    assert list(alg.label_coords) == list(label_coords)
    assert (alg.one_off, alg.one_off_line) == one_off


def test_expand_refuses_a_product_outside_the_basis_span(bundle):
    # over J_2(4,2) the product of two points spills onto the rest of their
    # line, so it leaves the span of the two points alone
    g, sd = bundle("g242")
    with pytest.raises(ConstructionError, match=re.escape("basis product (0,1) escapes V_1")):
        oracle_products(g, sd).expand([0, 1])


@pytest.mark.parametrize("name", CONFTEST_INSTANCES)
def test_structure_constants_den_is_lcm_of_reduced_denominators(algebra, name):
    op = algebra(name).operation
    constants = [c for plane in op.constants for row in plane for c in row]
    assert op.den == lcm(*(c.denominator for c in constants))


TABLE_EXTRA_BUILDERS = {
    "b22": lambda: build_dual_polar("B", 2, 2),
    "dplus22": lambda: build_dual_polar("Dplus", 2, 2),
    "g252": lambda: build_grassmann(2, 5, 2),
}


# past conftest: H(2,4), whose basis skips each coordinate's last letter,
# the zero product of J(6,3), the 4-point lines of J_3(4,2), and the pairs
# of B_2(2), D_3(2)^+ and J_2(5,2)
LATTICE_RULE_BUILDERS = {
    "h24": lambda: build_hamming(2, 4),
    "j63": lambda: build_johnson(6, 3),
    "g342": lambda: build_grassmann(3, 4, 2),
    **TABLE_EXTRA_BUILDERS,
}


@pytest.mark.parametrize("name", tuple(LATTICE_RULE_BUILDERS))
def test_basis_and_pair_match_the_rank_and_join_references(name):
    g = LATTICE_RULE_BUILDERS[name]()
    sd = spectral_data(g)
    alg = structure_constants(g, sd)
    assert list(alg.basis_labels) == reference_basis(g, *spanning(g, sd))[0]
    assert (alg.one_off, alg.one_off_line) == reference_one_off(g, alg.points)
    if isinstance(g.family, HammingFamily):
        # each coordinate's e points sum to zero: its last letter is skipped
        assert alg.basis_labels == tuple(p for p in alg.points if max(p) < g.family.e)


@pytest.mark.parametrize("name", CONFTEST_INSTANCES + tuple(TABLE_EXTRA_BUILDERS))
def test_formula_table_matches_lattice_join_reference(bundle, name):
    # the formula rows of every ordered pair, asked for all at once
    g = TABLE_EXTRA_BUILDERS[name]() if name in TABLE_EXTRA_BUILDERS else bundle(name)[0]
    points = g.lattice.levels[1]
    s = len(points)
    clear, rows = formula_rows(g, *np.divmod(np.arange(s * s), s))
    assert rows.shape == (s * s, s)
    dropped = False
    for (u, v), row in zip(itertools.product(points, repeat=2), rows):
        want = reference_formula_product(g.family, g.lattice, u, v)
        got = {points[w]: Fraction(int(row[w]), clear) for w in np.flatnonzero(row)}
        assert got == want, (u, v)
        dropped |= u != v and bool(want) and u not in want
    # D_2(2): c + b = 0, so collinear factors drop out of their own product
    assert dropped == (name == "d22")


@pytest.mark.parametrize("name", ["g242", "c22"])
def test_formula_table_leaves_int64_for_huge_constants(bundle, monkeypatch, name):
    # b off by 2^-70: the cleared constants pass 2^63, so the formula rows
    # hold Python ints, and the sweep still sees the wrong constant
    g, sd = bundle(name)
    products = oracle_products(g, sd)
    real = family_constants

    def huge(family):
        con = real(family)
        return {**con, "b": con["b"] + Fraction(1, 2**70)}

    monkeypatch.setattr(norton, "family_constants", huge)
    points = g.lattice.levels[1]
    assert formula_rows(g, [0], [1])[1].dtype == object
    for u in points:
        for v in points:
            want = reference_formula_product(g.family, g.lattice, u, v)
            assert formula_product(g, u, v) == want
    with pytest.raises(FormulaMismatchError):
        verify_formula_vs_oracle(g, sd, products=products)


@pytest.mark.parametrize("name", CONFTEST_INSTANCES)
def test_formula_rows_are_symmetric(bundle, name):
    g = bundle(name)[0]
    s = len(g.lattice.levels[1])
    u, v = np.divmod(np.arange(s * s), s)
    clear, rows = formula_rows(g, u, v)
    swapped = formula_rows(g, v, u)
    assert swapped[0] == clear and np.array_equal(swapped[1], rows)


def test_oracle_products_stack_the_incidence_once(monkeypatch):
    # E_1's fixed right factor [M | 1] is stacked once per OracleProducts,
    # not once per block of a sweep that takes several
    g = build_hamming(4, 3)
    sd = spectral_data(g)
    monkeypatch.setattr(intlinalg, "BLOCK_CELLS", 8 * 2 * max(g.incidence.shape))
    stacks, blocks = [], []
    real_stack, real_rows = np.column_stack, formula_rows

    def stack(arrays):
        stacks.append(len(arrays[0]))
        return real_stack(arrays)

    def recorded(graph, u, v):
        blocks.append(len(u))
        return real_rows(graph, u, v)

    monkeypatch.setattr(np, "column_stack", stack)
    monkeypatch.setattr(norton, "formula_rows", recorded)
    # the fixed check, then two sweeps of the same products
    products = oracle_products(g, sd)
    verify_formula_vs_oracle(g, sd, products=products)
    verify_formula_vs_oracle(g, sd, products=products)
    assert len(blocks) > 4 and stacks == [g.vertex_count]


@pytest.mark.parametrize("per_block", [1, 2, 3])
def test_sweep_and_assembly_across_block_boundaries(bundle, algebra, monkeypatch, per_block):
    # blocks of one to three pairs give the report and the algebra of one
    # block, and a defect on the last pair the sweep reaches is caught
    g, sd = bundle("d32")
    whole, want = verify_formula_vs_oracle(g, sd), algebra("d32").operation
    monkeypatch.setattr(intlinalg, "BLOCK_CELLS", per_block * max(g.incidence.shape))
    sizes, real = set(), formula_rows

    def recorded(graph, u, v):
        sizes.add(len(u))
        return real(graph, u, v)

    monkeypatch.setattr(norton, "formula_rows", recorded)
    assert verify_formula_vs_oracle(g, sd) == whole
    got = structure_constants(g, sd).operation
    assert got.den == want.den and np.array_equal(got.flat, want.flat)
    # the sweep asks for a block's pairs in both orders at once, so a block
    # of one pair is two rows
    assert max(sizes) == max(per_block, 2)
    last = len(g.lattice.levels[1]) - 1

    def wrong_last(graph, u, v):
        clear, rows = real(graph, u, v)
        rows[(np.asarray(u) == last) & (np.asarray(v) == last), last] += 1
        return clear, rows

    monkeypatch.setattr(norton, "formula_rows", wrong_last)
    point = g.lattice.levels[1][last]
    with pytest.raises(FormulaMismatchError, match=re.escape(f"on ({point!r}, {point!r})")):
        verify_formula_vs_oracle(g, sd)


def test_build_memory_follows_the_block_not_the_point_count():
    # D_2(17) has 36 vertices but 324 points, so a points^3 int64 table
    # alone would take 272 MB.  The child reads its own peak RSS (KiB on
    # Linux), which no other test's subprocess can raise; one BLAS thread
    # keeps the figure independent of the core count.
    script = (
        "import resource\n"
        "from nortonalg.instances import build_instance\n"
        "build_instance('dualpolar', ('D', 2, 17))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 256 * 1024


@pytest.mark.parametrize("name", ["g242", "h23", "c22", "d32"])
def test_sweep_and_structure_form_no_lattice_join(bundle, monkeypatch, name):
    # the formulas' joins are read off the incidence matrix: no lattice
    # order query and no F_q elimination runs once the graph is built
    g, sd = bundle(name)

    def refuse(*args, **kwargs):
        raise AssertionError("lattice or F_q call on the sweep path")

    for attr in ("join", "leq"):
        monkeypatch.setattr(RankedLattice, attr, refuse)
    for attr in ("rref", "reduce_vector", "in_span", "span_le", "intersect"):
        monkeypatch.setattr(fq, attr, refuse)
    # nor any read of the n x n distance matrix once the spectrum is known
    monkeypatch.setattr(g, "dist", None)
    report = verify_formula_vs_oracle(g, sd)
    assert report.pairs_checked == len(g.lattice.levels[1]) ** 2
    structure_constants(g, sd)


# build_instance's (family, params) for each conftest instance
CONFTEST_SPECS = {
    "j31": ("johnson", (3, 1)),
    "j41": ("johnson", (4, 1)),
    "j42": ("johnson", (4, 2)),
    "j52": ("johnson", (5, 2)),
    "g242": ("grassmann", (2, 4, 2)),
    "h22": ("hamming", (2, 2)),
    "h13": ("hamming", (1, 3)),
    "h23": ("hamming", (2, 3)),
    "h14": ("hamming", (1, 4)),
    "d22": ("dualpolar", ("D", 2, 2)),
    "c22": ("dualpolar", ("C", 2, 2)),
    "d32": ("dualpolar", ("D", 3, 2)),
}


@pytest.mark.parametrize("name", CONFTEST_INSTANCES)
def test_build_echelons_twice_in_machine_integers(monkeypatch, name):
    # two eliminations mod p: one of [rows^T | 1] over every vertex picks
    # the comparison vertices and the basis, one of [block | rhs] solves
    # every point over the basis; every integer product stays int64
    shapes, dtypes = [], set()
    real_eliminate, real_matmul = intlinalg.eliminate, intlinalg.exact_matmul

    def counted(a, p, width=None):
        shapes.append(a.shape)
        return real_eliminate(a, p, width)

    def recorded(a, b):
        out = real_matmul(a, b)
        dtypes.add(out.dtype)
        return out

    monkeypatch.setattr(norton, "eliminate", counted)
    monkeypatch.setattr(intlinalg, "eliminate", counted)
    monkeypatch.setattr(norton, "exact_matmul", recorded)
    monkeypatch.setattr(intlinalg, "exact_matmul", recorded)
    built = instances.build_instance(*CONFTEST_SPECS[name])
    n, s, dim = built.graph.vertex_count, len(built.algebra.points), built.algebra.dim
    assert shapes == [(n, s + 1), (dim, dim + s)]
    assert dtypes == {np.dtype(np.int64)}
    assert built.formula_report.pairs_checked == s * s


def first_prime(monkeypatch, p):
    """Make the small prime p the first that norton's eliminations take; the
    word primes follow it."""
    monkeypatch.setattr(norton, "word_primes", lambda: itertools.chain([p], word_primes()))


def test_an_unlucky_basis_fails_its_certificate_and_the_next_prime_mends_it(
    bundle, algebra, monkeypatch
):
    # mod 2, D_3(2)'s [rows^T | 1] has all 1 + dim pivots, but its greedy
    # points are not those over Q: a point independent over Q is skipped.
    # The exact solve over those points rejects them, and the next prime
    # picks the basis of the ordinary build
    g, sd = bundle("d32")
    want = algebra("d32")
    first_prime(monkeypatch, 2)
    products = oracle_products(g, sd)
    vertices, points = products.pivots
    assert len(vertices) == 1 + products.dim and len(products.cols) == 1 + products.dim
    assert tuple(points[: products.dim].tolist()) != want.basis
    alg = structure_constants(g, sd, products=products)
    assert alg.basis == want.basis
    assert alg.coords_den == want.coords_den and np.array_equal(alg.coords, want.coords)
    assert np.array_equal(alg.operation.flat, want.operation.flat)


def test_too_few_pivots_compare_at_every_vertex(bundle, algebra, monkeypatch):
    # mod 3 every row of H(2,3) is -1 everywhere: [rows^T | 1] has rank 1,
    # so the sweep compares at every vertex, and the short basis leaves
    # points outside its span, so the next prime picks the basis
    g, sd = bundle("h23")
    want = algebra("h23")
    first_prime(monkeypatch, 3)
    products = oracle_products(g, sd)
    assert len(products.pivots[0]) == 1
    assert products.cols.tolist() == list(range(g.vertex_count))
    report = verify_formula_vs_oracle(g, sd, products=products)
    assert report.pairs_checked == 36
    alg = structure_constants(g, sd, products=products, report=report)
    assert alg.basis == want.basis and np.array_equal(alg.coords, want.coords)
    assert np.array_equal(alg.operation.flat, want.operation.flat)


@pytest.mark.parametrize("unlucky", [False, True])
def test_refusals_of_dependent_points_are_proved_over_q(bundle, monkeypatch, unlucky):
    # points 4 and 5 of H(2,3) given point 3's vector: the points span 3
    # dimensions of 4; and two letters of one coordinate are independent,
    # three are not.  A prime of rank 1 proves neither refusal, so the next
    # prime decides
    g, sd = bundle("h23")
    if unlucky:
        first_prime(monkeypatch, 3)
    labels, vectors = spanning(g, sd)
    vectors[4] = vectors[5] = vectors[3]
    short = products_of(g, sd, labels, vectors)
    with pytest.raises(ConstructionError, match="only 3 independent points, need 4"):
        structure_constants(g, sd, products=short, report=True)
    products = oracle_products(g, sd)
    with pytest.raises(ValueError, match="linearly dependent"):
        products.expand([0, 1, 2])
    den, coords, inside, _ = products.expand([0, 3])
    assert inside.tolist() == [True, False, False, True, False, False]
    assert coords[0].tolist() == [den, 0] and coords[3].tolist() == [0, den]


def expand_route(g, sd):
    """The algebra by re-expanding every product of basis points: k(k+1)/2
    oracle products solved over the basis, not read off the formula rows."""
    products = oracle_products(g, sd)
    rows = products.rows[:, products.cols]
    chosen = fraction_pivots(rows.T.tolist())[: sd.multiplicities[1]]
    den, coords, inside, op = products.expand(chosen)
    assert inside.all()
    pair, line = norton.one_off_pair(g)
    return NortonAlgebra(g.family, op, products.labels, tuple(chosen), den, coords, pair, line)


@pytest.mark.parametrize("name", CONFTEST_INSTANCES + ("c32",))
def test_cube_from_the_swept_table_matches_the_expand_route(bundle, algebra, name):
    if name == "c32":
        g = build_dual_polar("C", 3, 2)
        sd = spectral_data(g)
        alg = structure_constants(g, sd)
    else:
        (g, sd), alg = bundle(name), algebra(name)
    want = expand_route(g, sd)
    assert alg.operation.den == want.operation.den
    assert np.array_equal(alg.operation.flat, want.operation.flat)
    assert alg.coords_den == want.coords_den
    assert np.array_equal(alg.coords, want.coords)
    assert alg.basis == want.basis


@pytest.mark.parametrize("name, key", [("j52", "c"), ("g242", "b"), ("d32", "b_prime")])
def test_wrong_formula_constant_leaves_no_cube(bundle, monkeypatch, name, key):
    g, sd = bundle(name)
    real = family_constants

    def wrong(family):
        con = real(family)
        return {**con, key: con[key] + 1}

    monkeypatch.setattr(norton, "family_constants", wrong)
    with pytest.raises(FormulaMismatchError):
        instances.build_instance(*CONFTEST_SPECS[name])
    with pytest.raises(FormulaMismatchError):
        structure_constants(g, sd)
