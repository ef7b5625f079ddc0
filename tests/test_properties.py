"""Property tests: the integer evaluators against the Fraction reference.

Random operations of dimension 1 to 3, with and without linear parts, on
random trees with up to five product signs.  Examples are derandomized so
the suite stays deterministic.
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
from nortonalg.trees import catalan, enumerate_trees
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
def trees(draw, max_m=5):
    m = draw(st.integers(0, max_m))
    return enumerate_trees(m)[draw(st.integers(0, catalan(m) - 1))]


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
