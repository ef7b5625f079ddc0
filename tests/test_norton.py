"""Norton product layer: spanning vectors, oracle, closed forms, algebras.

The per-pair Fraction route, one dense E_1 apply per pair of spanning
vectors and a Gauss-Jordan span solver for the structure constants, lives
here as the reference the batched integer oracle is compared against.  The
dense E_j is built here too, from its D+1 coefficients and the distance
matrix; the package itself never expands it.
"""

import dataclasses
import re
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from nortonalg import norton
from nortonalg.binop import BilinearOperation, direct_product
from nortonalg.errors import ConstructionError, FormulaMismatchError
from nortonalg.graphs import TOP
from nortonalg.norton import (
    _default_basis_candidates,
    _exact_matmul,
    _independent_rows,
    _one_off_pair,
    family_constants,
    formula_product,
    oracle_products,
    spanning_vectors,
    structure_constants,
    verify_formula_vs_oracle,
)
from nortonalg.spectral import closed_form_multiplicity

CONFTEST_INSTANCES = (
    "j31", "j41", "j42", "j52", "g242", "h22",
    "h13", "h23", "h14", "d22", "c22", "d32",
)


def integer_rows(rows):
    """Rational rows times the lcm of all their denominators, as integers."""
    fracs = [[Fraction(x) for x in r] for r in rows]
    scale = lcm(*(x.denominator for r in fracs for x in r))
    return np.array([[int(x * scale) for x in r] for r in fracs], dtype=object)


def dense_idempotent(g, sd, j):
    """E_j as an n x n object array of Fractions: entry (x, y) is e[j][dist(x, y)]."""
    return np.array(sd.coefficients[j], dtype=object)[g.dist]


def apply_dense(e, vec):
    """e @ vec for a dense object matrix and a rational vector, as Fractions."""
    out = e @ np.array([Fraction(x) for x in vec], dtype=object)
    return tuple(Fraction(x) for x in out.tolist())


def rank_of(rows):
    ints = integer_rows(rows)
    return len(_independent_rows(ints, range(len(ints)), len(ints))[0])


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
    svs = spanning_vectors(g, sd)
    assert [sv.label for sv in svs] == [(1,), (2,), (3,)]
    assert svs[0].coords == (2, -1, -1)
    assert svs[0].unscaled == (Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3))
    assert svs[0].scale == 3


def test_spanning_vectors_are_centered_and_span(bundle):
    for name in ("j52", "g242", "h23", "d22", "c22"):
        g, sd = bundle(name)
        svs = spanning_vectors(g, sd)
        assert len(svs) == len(g.lattice.levels[1])
        for sv in svs:
            assert sum(sv.coords) == 0
        dim = sd.multiplicities[1]
        assert rank_of([sv.coords for sv in svs]) == dim


def test_norton_oracle_triangle(bundle):
    g, sd = bundle("j31")
    e1 = dense_idempotent(g, sd, 1)
    svs = spanning_vectors(g, sd)
    u, v = svs[0].coords, svs[1].coords
    assert apply_dense(e1, u) == u and apply_dense(e1, v) == v
    prod = apply_dense(e1, [a * b for a, b in zip(u, v)])
    minus_u_minus_v = tuple(-a - b for a, b in zip(u, v))
    assert prod == minus_u_minus_v
    assert prod == svs[2].coords
    assert apply_dense(e1, [a * a for a in u]) == u


def test_formula_product_johnson(bundle):
    g52 = bundle("j52")[0]
    u, v = (1,), (2,)
    assert formula_product(g52.family, g52.lattice, u, u) == {u: 1}
    assert formula_product(g52.family, g52.lattice, u, v) == {
        u: Fraction(-1, 3),
        v: Fraction(-1, 3),
    }
    g42 = bundle("j42")[0]
    assert formula_product(g42.family, g42.lattice, (1,), (2,)) == {}
    assert formula_product(g42.family, g42.lattice, (1,), (1,)) == {}


def test_formula_product_hamming(bundle):
    g = bundle("h23")[0]
    same_pos = ((1, 0), (2, 0))
    diff_pos = ((1, 0), (0, 2))
    assert g.lattice.join(*same_pos) is TOP
    assert formula_product(g.family, g.lattice, *same_pos) == {
        same_pos[0]: Fraction(-1, 3),
        same_pos[1]: Fraction(-1, 3),
    }
    assert formula_product(g.family, g.lattice, *diff_pos) == {}
    assert formula_product(g.family, g.lattice, (1, 0), (1, 0)) == {
        (1, 0): Fraction(1, 3)
    }


def test_formula_product_grassmann_line_sum(bundle):
    g = bundle("g242")[0]
    points = g.lattice.levels[1]
    u, v = points[0], points[1]
    out = formula_product(g.family, g.lattice, u, v)
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
    out = formula_product(g.family, lat, *coll)
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
    assert formula_product(g.family, lat, *opp) == {opp[0]: -1, opp[1]: -1}


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
    svs = spanning_vectors(g, sd)
    doubled = dataclasses.replace(
        svs[0], coords=tuple(2 * x for x in svs[0].coords)
    )
    with pytest.raises(FormulaMismatchError):
        verify_formula_vs_oracle(g, sd, [doubled] + svs[1:])


def test_halved_vectors_fail_verification(bundle):
    # coords that are no longer integers still go through the integer oracle
    g, sd = bundle("g242")
    svs = spanning_vectors(g, sd)
    halved = dataclasses.replace(
        svs[3], coords=tuple(x / 2 for x in svs[3].coords)
    )
    with pytest.raises(FormulaMismatchError):
        verify_formula_vs_oracle(g, sd, svs[:3] + [halved] + svs[4:])


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
    # the oracle product is symmetric, the formula need not be: a formula
    # wrong in one order only must still be caught
    g, sd = bundle("j52")
    u, v = g.lattice.levels[1][:2]
    bad = (u, v) if which == "first" else (v, u)
    real = formula_product

    def one_sided(family, lattice, a, b):
        out = real(family, lattice, a, b)
        return {**out, a: out[a] * 2} if (a, b) == bad else out

    monkeypatch.setattr(norton, "formula_product", one_sided)
    with pytest.raises(FormulaMismatchError, match=re.escape(f"({bad[0]!r}, {bad[1]!r})")):
        verify_formula_vs_oracle(g, sd)


def test_vectors_outside_v1_are_rejected(bundle):
    g, sd = bundle("j52")
    e = sd.coefficients
    swapped = dataclasses.replace(sd, coefficients=(e[0], e[2], e[1]))
    with pytest.raises(ConstructionError, match="not in V_1"):
        spanning_vectors(g, swapped)


def test_exact_matmul_leaves_int64_when_sums_could_overflow():
    big = np.array([[2**40, 1]], dtype=object)
    col = np.array([[2**40], [-1]], dtype=object)
    assert _exact_matmul(big, col).tolist() == [[2**80 - 1]]
    small = _exact_matmul(np.array([[3, -2]]), np.array([[5], [7]]))
    assert small.tolist() == [[1]] and type(small[0, 0]) is int


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
                expansion = formula_product(g.family, g.lattice, u, v)
                want = [Fraction(0)] * alg.dim
                for lbl, cf in expansion.items():
                    for idx, x in enumerate(alg.label_coords[lbl]):
                        want[idx] += cf * x
                assert list(got) == want, (name, u, v)


def test_structure_constants_independent_of_basis(bundle, algebra):
    g, sd = bundle("j52")
    default = algebra("j52")
    reversed_order = structure_constants(
        g, sd, label_order=list(reversed(g.lattice.levels[1]))
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
            expansion = formula_product(g.family, g.lattice, u, v)
            for alg, got in ((default, a), (reversed_order, b)):
                want = [Fraction(0)] * alg.dim
                for lbl, cf in expansion.items():
                    for idx, x in enumerate(alg.label_coords[lbl]):
                        want[idx] += cf * x
                assert list(got) == want


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
        spanning_vectors(g, sd)


# ---------------------------------------------------------------------------
# reference: the per-pair Fraction route


class ReferenceSpanSolver:
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
        assert r == k, "basis rows are linearly dependent"
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


def reference_sweep(g, sd, spanning):
    """Ordered pairs checked, one dense Fraction E_1 apply per pair."""
    by_label = {sv.label: sv for sv in spanning}
    e1 = dense_idempotent(g, sd, 1)
    pairs = 0
    for su in spanning:
        for sv in spanning:
            oracle = apply_dense(e1, [a * b for a, b in zip(su.coords, sv.coords)])
            predicted = [Fraction(0)] * g.vertex_count
            for lbl, cf in formula_product(g.family, g.lattice, su.label, sv.label).items():
                for idx, x in enumerate(by_label[lbl].coords):
                    predicted[idx] += cf * x
            assert list(oracle) == predicted, (su.label, sv.label)
            pairs += 1
    return pairs


def reference_structure_constants(g, sd, spanning):
    """(basis_labels, cube, label_coords, one_off) by rank tests and span solves."""
    by_label = {sv.label: sv for sv in spanning}
    labels = [sv.label for sv in spanning]
    dim = closed_form_multiplicity(g.family, 1)
    assert rank_of([sv.coords for sv in spanning]) == dim
    basis_labels, chosen_rows = [], []
    for lbl in _default_basis_candidates(g, labels):
        trial = chosen_rows + [by_label[lbl].coords]
        if rank_of(trial) == len(trial):
            basis_labels.append(lbl)
            chosen_rows.append(by_label[lbl].coords)
        if len(basis_labels) == dim:
            break
    solver = ReferenceSpanSolver(chosen_rows)
    label_coords = {sv.label: solver.solve(sv.coords) for sv in spanning}
    e1 = dense_idempotent(g, sd, 1)
    cube = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            pointwise = [a * b for a, b in zip(chosen_rows[i], chosen_rows[j])]
            prod = apply_dense(e1, pointwise)
            cube[i][j] = cube[j][i] = solver.solve(prod)
    return tuple(basis_labels), cube, label_coords, _one_off_pair(g, labels)


@pytest.mark.parametrize("name", CONFTEST_INSTANCES)
def test_integer_oracle_matches_fraction_reference(bundle, algebra, name):
    g, sd = bundle(name)
    spanning = spanning_vectors(g, sd)
    e1 = dense_idempotent(g, sd, 1)
    for sv in spanning:
        assert apply_dense(e1, sv.unscaled) == sv.unscaled
    report = verify_formula_vs_oracle(g, sd, spanning)
    assert report.pairs_checked == reference_sweep(g, sd, spanning) == len(spanning) ** 2
    basis_labels, cube, label_coords, one_off = reference_structure_constants(
        g, sd, spanning
    )
    alg = algebra(name)
    assert alg.basis_labels == basis_labels
    assert alg.operation.constants == BilinearOperation(cube).constants
    assert alg.label_coords == label_coords
    assert list(alg.label_coords) == list(label_coords)
    assert alg.one_off == one_off
