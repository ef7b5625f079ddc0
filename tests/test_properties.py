"""Property tests: the integer evaluators against the Fraction reference.

Random bilinear operations of dimension 1 to 3 on random trees with up to
five product signs; bilinearity and commutativity of single products; the
tree encodings (depth sequence, parenthesis string) round-tripped on
random trees with up to eight product signs; and the modular solve of
intlinalg.coordinates against a Fraction solve on random full-rank
integer systems.
Examples are derandomized so the suite stays deterministic.
"""

from fractions import Fraction
from math import lcm

import numpy as np

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nortonalg.binop import (
    BilinearOperation,
    direct_product,
    evaluate_parenthesization,
    group_trees_by_fingerprint,
)
from nortonalg.classify import _depth_rows, _one_off_proof, _one_off_signatures
from nortonalg.intlinalg import (
    abs_max,
    coordinates,
    eliminate,
    fits_int64,
    word_primes,
)
from nortonalg.norton import NortonAlgebra
from nortonalg.trees import (
    LEAF,
    catalan,
    depth_sequence,
    enumerate_trees,
    node,
    parse_tree,
    to_string,
    tree_from_depth_sequence,
)
from test_binop import reference_evaluate
from test_norton import ReferenceSpanSolver, fraction_pivots

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def vectors(d):
    return st.lists(rationals, min_size=d, max_size=d).map(tuple)


def matrices(d):
    return st.lists(vectors(d), min_size=d, max_size=d)


@st.composite
def operations(draw, max_dim=3):
    d = draw(st.integers(1, max_dim))
    return BilinearOperation(draw(st.lists(matrices(d), min_size=d, max_size=d)))


@st.composite
def commutative_operations(draw, min_dim=1, max_dim=3):
    """A symmetric cube."""
    d = draw(st.integers(min_dim, max_dim))
    cube = draw(st.lists(matrices(d), min_size=d, max_size=d))
    return BilinearOperation([[cube[min(i, j)][max(i, j)] for j in range(d)] for i in range(d)])


@st.composite
def trees(draw, max_m=5):
    m = draw(st.integers(0, max_m))
    return enumerate_trees(m)[draw(st.integers(0, catalan(m) - 1))]


@st.composite
def split_trees(draw, m):
    """A tree with m product signs, split at a drawn left size at every node."""
    if m == 0:
        return LEAF
    k = draw(st.integers(0, m - 1))
    return node(draw(split_trees(k)), draw(split_trees(m - 1 - k)))


@PROPERTY
@given(st.data())
def test_evaluation_matches_fraction_reference(data):
    op = data.draw(operations())
    t = data.draw(trees())
    n = t.leaf_count
    args = data.draw(st.lists(vectors(op.dimension), min_size=n, max_size=n))
    assert evaluate_parenthesization(op, t, args) == reference_evaluate(op, t, args)


@PROPERTY
@given(st.data())
def test_one_off_signature_matches_reference(data):
    op = data.draw(operations())
    u, v = data.draw(vectors(op.dimension)), data.draw(vectors(op.dimension))
    m = data.draw(st.integers(0, 4))
    alg = NortonAlgebra.of_fractions(None, op, {"u": u, "v": v}, ("u", "v"))
    s = lcm(*(x.denominator for x in (*u, *v)))
    scale = s ** (m + 1) * op.den ** m
    # every tree of one arity on one algebra, in the tree table and, when
    # v * v = mu v is proved, in the depth rows
    table = _one_off_signatures(op, _one_off_proof(alg)[0], m).tolist()
    rows = _depth_rows(alg, m)
    for t, sig in zip(enumerate_trees(m), table):
        want = []
        for r in range(m + 1):
            args = [v] * (m + 1)
            args[r] = u
            scaled = [x * scale for x in reference_evaluate(op, t, args)]
            assert all(x.denominator == 1 for x in scaled)
            want.append(tuple(map(int, scaled)))
        assert tuple(map(tuple, sig)) == tuple(want)
        if rows is not None:
            assert tuple(rows[h] for h in depth_sequence(t)) == tuple(want)


@PROPERTY
@given(operations(max_dim=2), operations(max_dim=2), st.integers(1, 4))
def test_direct_product_classes_refine_the_factors(op1, op2, m):
    trees_m = enumerate_trees(m)
    keys = []
    for op in (op1, op2):
        groups = group_trees_by_fingerprint(op, trees_m)
        keys.append({i: min(g) for g in groups for i in g})
    refinement = {}
    for i in range(len(trees_m)):
        refinement.setdefault((keys[0][i], keys[1][i]), []).append(i)
    product = group_trees_by_fingerprint(direct_product(op1, op2), trees_m)
    assert sorted(map(sorted, product)) == sorted(map(sorted, refinement.values()))


@PROPERTY
@given(st.integers(0, 8).flatmap(split_trees))
def test_tree_encodings_round_trip(t):
    assert tree_from_depth_sequence(depth_sequence(t)) == t
    assert parse_tree(to_string(t)) == t


@PROPERTY
@given(st.data())
def test_operations_are_bilinear(data):
    op = data.draw(operations())
    x, x2, y = (data.draw(vectors(op.dimension)) for _ in range(3))
    a, b = data.draw(rationals), data.draw(rationals)

    def mix(u, w):
        return tuple(a * p + b * q for p, q in zip(u, w))

    assert op.apply(mix(x, x2), y) == mix(op.apply(x, y), op.apply(x2, y))
    assert op.apply(y, mix(x, x2)) == mix(op.apply(y, x), op.apply(y, x2))


@PROPERTY
@given(st.data())
def test_commutative_operations_commute(data):
    op = data.draw(operations() | commutative_operations())
    x, y = data.draw(vectors(op.dimension)), data.draw(vectors(op.dimension))
    if op.is_commutative:
        assert op.apply(x, y) == op.apply(y, x)


@PROPERTY
@given(st.data())
def test_asymmetric_cube_differs_on_a_basis_pair(data):
    op = data.draw(commutative_operations(min_dim=2))
    assert op.is_commutative
    d = op.dimension
    pair = st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True)
    i, j = data.draw(pair)
    k = data.draw(st.integers(0, d - 1))
    cube = [[list(row) for row in plane] for plane in op.constants]
    cube[i][j][k] += data.draw(rationals.filter(bool))
    bad = BilinearOperation(cube)
    assert not bad.is_commutative
    basis = [tuple(int(a == b) for b in range(d)) for a in range(d)]
    assert any(bad.apply(x, y) != bad.apply(y, x) for x in basis for y in basis)


@st.composite
def constant_tables(draw, max_dim=3):
    """A cube of Fractions: unconstrained, symmetric, or all zero."""
    d = draw(st.integers(1, max_dim))
    cube = draw(st.lists(matrices(d), min_size=d, max_size=d))
    shape = draw(st.sampled_from(["any", "symmetric", "zero"]))
    if shape != "any":
        cube = [[cube[min(i, j)][max(i, j)] for j in range(d)] for i in range(d)]
    if shape == "zero":
        cube = [[[0] * d for _ in range(d)] for _ in range(d)]
    return cube


@PROPERTY
@given(constant_tables(), st.integers(1, 6))
def test_int_table_matches_fraction_constructor(cube, k):
    d = len(cube)
    op = BilinearOperation(cube)
    rows = [row for plane in cube for row in plane]
    den = lcm(*(Fraction(c).denominator for row in rows for c in row))
    assert op.den == den
    ints = [[[int(c * den) * k for c in row] for row in plane] for plane in cube]
    other = BilinearOperation.from_int_table(k * den, ints)
    assert other.den == op.den and np.array_equal(other.flat, op.flat)
    assert other.constants == op.constants
    commutative = all(cube[i][j] == cube[j][i] for i in range(d) for j in range(d))
    assert other.is_commutative == op.is_commutative == commutative
    is_zero = not any(c for row in rows for c in row)
    assert other.is_zero == op.is_zero == is_zero


FIRST_PRIME = next(word_primes())


@st.composite
def integer_systems(draw, scaled):
    """(basis, pivots, targets): k independent integer rows of length c >= k,
    pivot columns on which they are nonsingular, and targets in and out of
    their span.  Entries are small or near 2^70, held as int64 where they
    fit.  scaled multiplies the first row by the first word prime, so that
    the pivot block is singular mod that prime."""
    k = draw(st.integers(1, 4))
    c = draw(st.integers(k, k + 2))
    entries = st.integers(-20, 20) | st.integers(-(2**70), 2**70)
    row = st.lists(entries, min_size=c, max_size=c)
    basis = np.array(draw(st.lists(row, min_size=k, max_size=k)), dtype=object)
    if scaled:
        basis[0] *= FIRST_PRIME
    pivots = fraction_pivots(basis.tolist())
    assume(len(pivots) == k)
    mixes = draw(st.lists(st.lists(st.integers(-5, 5), min_size=k, max_size=k), max_size=3))
    stray = draw(st.lists(row, max_size=2))
    targets = np.array(
        [[int(x) for x in np.array(mix, dtype=object) @ basis] for mix in mixes] + stray,
        dtype=object,
    ).reshape(-1, c)
    if draw(st.booleans()):
        basis, targets = (
            a.astype(np.int64) if fits_int64(abs_max(a)) else a for a in (basis, targets)
        )
    return basis, pivots, targets


@pytest.mark.parametrize("scaled", [False, True])
@PROPERTY
@given(st.data())
def test_modular_solve_matches_fraction_solve(scaled, data):
    basis, pivots, targets = data.draw(integer_systems(scaled))
    if scaled:
        block = basis[:, pivots].T
        # singular mod the first prime, which coordinates skips
        assert len(eliminate(block, FIRST_PRIME)[1]) < len(block)
    den, coords, inside = coordinates(basis, pivots, targets)
    assert den > 0 and coords.shape == (len(targets), len(basis))
    solver = ReferenceSpanSolver(basis.tolist())
    for target, row, found in zip(targets.tolist(), coords.tolist(), inside.tolist()):
        want = solver.solve(target)
        assert found == (want is not None)
        if found:
            assert tuple(Fraction(x, den) for x in row) == want
