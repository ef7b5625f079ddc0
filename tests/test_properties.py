"""Property tests: the integer evaluators against the Fraction reference.

Random operations of dimension 1 to 3, with and without linear parts, on
random trees with up to five product signs; bilinearity and commutativity
of single products; and the tree encodings (depth sequence, parenthesis
string) round-tripped on random trees with up to eight product signs.
Examples are derandomized so the suite stays deterministic.
"""

from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from nortonalg.binop import (
    BilinearOperation,
    _int_form,
    direct_product,
    evaluate_parenthesization,
    group_trees_by_fingerprint,
)
from nortonalg.classify import one_off_signature
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

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def vectors(d):
    return st.lists(rationals, min_size=d, max_size=d).map(tuple)


def matrices(d):
    return st.lists(vectors(d), min_size=d, max_size=d)


@st.composite
def operations(draw, max_dim=3, linear=True):
    d = draw(st.integers(1, max_dim))
    cube = draw(st.lists(matrices(d), min_size=d, max_size=d))
    linear_parts = st.none() | matrices(d) if linear else st.none()
    return BilinearOperation(cube, draw(linear_parts), draw(linear_parts))


@st.composite
def commutative_operations(draw, min_dim=1, max_dim=3):
    """A symmetric cube, with no linear part or one shared by both sides."""
    d = draw(st.integers(min_dim, max_dim))
    cube = draw(st.lists(matrices(d), min_size=d, max_size=d))
    sym = [[cube[min(i, j)][max(i, j)] for j in range(d)] for i in range(d)]
    linear = draw(st.none() | matrices(d))
    return BilinearOperation(sym, linear, linear)


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
    alg = NortonAlgebra(None, op.dimension, (), op, {"u": u, "v": v}, ("u", "v"))
    s = lcm(*(x.denominator for x in (*u, *v)))
    scale = s ** (m + 1) * _int_form(op)[0] ** m
    # every tree of one arity on one algebra, so subtree values are shared
    for t in enumerate_trees(m):
        want = []
        for r in range(m + 1):
            args = [v] * (m + 1)
            args[r] = u
            scaled = [x * scale for x in reference_evaluate(op, t, args)]
            assert all(x.denominator == 1 for x in scaled)
            want.append(tuple(map(int, scaled)))
        assert one_off_signature(alg, t) == tuple(want)


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
def test_operations_without_linear_parts_are_bilinear(data):
    op = data.draw(operations(linear=False))
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
    bad = BilinearOperation(cube, op.linear_left, op.linear_right)
    assert not bad.is_commutative
    basis = [tuple(int(a == b) for b in range(d)) for a in range(d)]
    assert any(bad.apply(x, y) != bad.apply(y, x) for x in basis for y in basis)
