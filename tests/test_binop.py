"""Parenthesization engine: evaluation, fingerprints, class counts.

The Fraction route, x*y = B(x,y) entry by entry and a recursion over the
tree, lives here as the reference the integer evaluator is
compared against.
"""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from nortonalg import binop
from nortonalg.binop import (
    BilinearOperation,
    _probe_tensor,
    a000975_value,
    count_classes_exact,
    direct_product,
    double_minus_classes,
    double_minus_operation,
    evaluate_parenthesization,
    group_trees_by_fingerprint,
    tensor_fingerprint,
)
from nortonalg.errors import BudgetExceededError
from nortonalg.instances import build_instance
from nortonalg.intlinalg import abs_max, fits_int64
from nortonalg.trees import (
    LEAF,
    catalan,
    depth_sequence,
    enumerate_trees,
    left_comb,
    node,
)

# A000975 prefix for m = 1..10, frozen; cross-checked below against the
# depth-mod-2 grouping and, for m <= 8, against tensor fingerprints.
A000975_PREFIX = [1, 2, 5, 10, 21, 42, 85, 170, 341, 682]

F = Fraction


def reference_apply(op, x, y):
    """Exact product of two coordinate vectors, one Fraction term at a time."""
    d = op.dimension
    out = [F(0)] * d
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k in range(d):
                out[k] += xi * yj * op.constants[i][j][k]
    return tuple(out)


def reference_evaluate(op, t, args):
    """The product shaped by t, one reference_apply per internal node."""
    vecs = [tuple(F(c) for c in a) for a in args]

    def rec(s, offset):
        if s.is_leaf:
            return vecs[offset]
        right = offset + s.left.leaf_count
        return reference_apply(op, rec(s.left, offset), rec(s.right, right))

    return rec(t, 0)


def test_double_minus_is_the_homogenized_cube():
    # basis (e, h): e*e = 0, e*h = h*e = -e, h*h = h
    op = double_minus_operation()
    assert op.dimension == op.probe_dimension == 2
    assert op.den == 1
    assert op.flat.tolist() == [[0, 0, -1, 0], [-1, 0, 0, 1]]
    assert op.is_commutative and not op.is_zero
    for a, b in ((F(5), F(7)), (F(-1, 2), F(3)), (F(0), F(0))):
        assert op.apply((a, 1), (b, 1)) == (-a - b, 1)


def test_double_minus_left_comb_signs():
    op = double_minus_operation()
    t = left_comb(2)  # ((a b) c), depths (2, 2, 1)
    out = evaluate_parenthesization(op, t, [(F(5), 1), (F(7), 1), (F(2), 1)])
    assert out == (F(5) + F(7) - F(2), 1)
    # depths (1, 2, 2): a (b c) = -a - (-b - c) = -a + b + c
    t2 = node(LEAF, node(LEAF, LEAF))
    out2 = evaluate_parenthesization(op, t2, [(F(5), 1), (F(7), 1), (F(2), 1)])
    assert out2 == (-F(5) + F(7) + F(2), 1)


def test_double_minus_signs_follow_depth_parity():
    op = double_minus_operation()
    for m in range(6):
        for t in enumerate_trees(m):
            d = depth_sequence(t)
            args = [(F(random.Random(i).randint(1, 9)), 1) for i in range(m + 1)]
            expect = sum((-1) ** d[i] * args[i][0] for i in range(m + 1))
            assert evaluate_parenthesization(op, t, args) == (expect, 1)


def test_double_minus_fingerprints_distinguish_by_parity():
    op = double_minus_operation()
    assert op.probe_dimension == 2  # the basis (e, h)
    t_a = left_comb(2)  # depths (2, 2, 1)
    t_b = node(LEAF, node(LEAF, LEAF))  # depths (1, 2, 2)
    fa = tensor_fingerprint(op, t_a)
    fb = tensor_fingerprint(op, t_b)
    assert fa != fb

    # Probes with a single payload slot recover the sign vector.
    def signs(t, fp):
        m = t.internal_count
        p = 2
        out = []
        for i in range(m + 1):
            # probe tuple: e at slot i, h elsewhere
            idx = sum((0 if s == i else 1) * p ** (m - s) for s in range(m + 1))
            out.append(fp[idx * p + 0])
        return tuple(out)

    assert signs(t_a, fa) == (1, 1, -1)
    assert signs(t_b, fb) == (-1, 1, 1)


def test_double_minus_classes_match_a000975():
    for m in range(1, 11):
        rep = double_minus_classes(m)
        assert rep.method == "depth_mod2"
        assert rep.class_count == a000975_value(m) == A000975_PREFIX[m - 1]
    assert double_minus_classes(0).class_count == 1


def test_double_minus_classes_group_trees_by_depth_parity():
    for m in range(0, 10):
        groups = {}
        for idx, t in enumerate(enumerate_trees(m)):
            groups.setdefault(depth_sequence(t).mod2(), []).append(idx)
        want = sorted(tuple(g) for g in groups.values())
        assert double_minus_classes(m).classes == tuple(want)


def test_tensor_count_cross_checks_depth_grouping():
    op = double_minus_operation()
    for m in range(0, 9):
        by_tensor = count_classes_exact(op, m)
        by_depth = double_minus_classes(m)
        assert by_tensor.classes == by_depth.classes
        assert by_tensor.method == "tensor_exact"


def test_a000975_value_domain():
    with pytest.raises(ValueError):
        a000975_value(0)
    assert a000975_value(1) == 1
    assert a000975_value(10) == 682


def test_zero_operation_collapses_everything():
    op = BilinearOperation.zero(3)
    assert op.is_zero and op.is_commutative
    for m in range(0, 6):
        assert count_classes_exact(op, m).class_count == 1


def test_zero_operation_needs_no_probe_tensor(monkeypatch):
    # is_zero alone proves one class; the fingerprint budget still applies
    def refuse(*args, **kwargs):
        raise AssertionError("probe tensor computed for the zero operation")

    monkeypatch.setattr(binop, "_probe_tensor", refuse)
    op = BilinearOperation.zero(3)
    report = count_classes_exact(op, 10)
    assert report.classes == (tuple(range(catalan(10))),)
    with pytest.raises(BudgetExceededError):
        count_classes_exact(op, 10, budget=10)


def test_monotone_sanity_bounds():
    op = double_minus_operation()
    for m in range(0, 8):
        rep = count_classes_exact(op, m)
        assert 1 <= rep.class_count <= catalan(m)


def test_fingerprint_budget_enforced():
    op = BilinearOperation.zero(3)
    with pytest.raises(BudgetExceededError):
        count_classes_exact(op, 4, budget=100)  # 3^6 = 729 cells > 100
    with pytest.raises(BudgetExceededError):
        tensor_fingerprint(op, left_comb(4), budget=100)


def test_grouping_invariant_under_tree_order():
    op = double_minus_operation()
    for m in range(1, 5):
        trees = enumerate_trees(m)
        base = group_trees_by_fingerprint(op, trees)
        perm = list(range(len(trees)))
        random.Random(m).shuffle(perm)
        shuffled = [trees[i] for i in perm]
        other = group_trees_by_fingerprint(op, shuffled)
        as_tree_sets = lambda trees_, groups: {
            frozenset(trees_[i] for i in g) for g in groups
        }
        assert as_tree_sets(trees, base) == as_tree_sets(shuffled, other)


def _random_operation(rng, dim):
    cube = [
        [[F(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
        for _ in range(dim)
    ]
    return BilinearOperation(cube)


def test_direct_product_is_common_refinement():
    rng = random.Random(7)
    for trial in range(4):
        op1 = _random_operation(rng, rng.randint(1, 2))
        op2 = _random_operation(rng, rng.randint(1, 2))
        prod = direct_product(op1, op2)
        assert prod.dimension == op1.dimension + op2.dimension
        for m in range(1, 4):
            trees = enumerate_trees(m)
            g1 = group_trees_by_fingerprint(op1, trees)
            g2 = group_trees_by_fingerprint(op2, trees)
            gp = group_trees_by_fingerprint(prod, trees)
            key1 = {i: min(g) for g in g1 for i in g}
            key2 = {i: min(g) for g in g2 for i in g}
            refinement = {}
            for i in range(len(trees)):
                refinement.setdefault((key1[i], key2[i]), []).append(i)
            assert sorted(sorted(g) for g in gp) == sorted(
                sorted(g) for g in refinement.values()
            )


def test_direct_product_evaluates_blockwise():
    op1 = double_minus_operation()
    op2 = BilinearOperation([[[F(1)]]])  # a*b = ab on dim 1
    prod = direct_product(op1, op2)
    t = left_comb(2)
    out = evaluate_parenthesization(
        prod, t, [(F(2), 1, F(3)), (F(5), 1, F(7)), (F(1), 1, F(2))]
    )
    assert out == (F(2) + F(5) - F(1), 1, F(3) * F(7) * F(2))


def test_evaluate_validates_shapes():
    op = BilinearOperation.zero(2)
    with pytest.raises(ValueError):
        evaluate_parenthesization(op, left_comb(2), [(F(1), F(0))] * 2)
    with pytest.raises(ValueError):
        evaluate_parenthesization(op, left_comb(1), [(F(1),), (F(1), F(0))])
    with pytest.raises(ValueError):
        op.apply((F(1),), (F(1), F(0)))
    with pytest.raises(ValueError):
        BilinearOperation([[[0, 0]]])


def test_int_scaled_evaluation_matches_exact():
    rng = random.Random(3)
    ops = [_random_operation(rng, 3), double_minus_operation()]
    ops.append(direct_product(ops[1], BilinearOperation([[[F(1, 2)]]])))
    for op in ops:
        d = op.dimension
        for m in range(0, 4):
            for t in enumerate_trees(m):
                args = [
                    tuple(F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(d))
                    for _ in range(m + 1)
                ]
                assert evaluate_parenthesization(op, t, args) == reference_evaluate(
                    op, t, args
                )
        x = tuple(F(rng.randint(-5, 5), 3) for _ in range(d))
        y = tuple(F(rng.randint(-5, 5), 2) for _ in range(d))
        assert op.apply(x, y) == reference_apply(op, x, y)


def test_report_serialization():
    rep = double_minus_classes(2)
    d = rep.to_json_dict()
    assert d["m"] == 2 and d["method"] == "depth_mod2"
    assert d["class_count"] == 2
    assert sorted(i for c in d["classes"] for i in c) == [0, 1]


def test_commutativity_detection():
    sym = BilinearOperation(
        [
            [[F(1), F(0)], [F(0), F(1)]],
            [[F(0), F(1)], [F(1), F(0)]],
        ]
    )
    assert sym.is_commutative
    asym = BilinearOperation(
        [
            [[F(1), F(0)], [F(1), F(1)]],
            [[F(0), F(1)], [F(1), F(0)]],
        ]
    )
    assert not asym.is_commutative


def _scaled(op, lam):
    """op with every structure constant times lam."""
    return BilinearOperation(
        [[[lam * c for c in row] for row in plane] for plane in op.constants]
    )


def _reference_probe_values(op, t):
    """reference_evaluate on every probe tuple of basis vectors, in order."""
    d = op.dimension
    basis = [tuple(F(int(i == j)) for j in range(d)) for i in range(d)]
    return [
        reference_evaluate(op, t, list(probe))
        for probe in product(basis, repeat=t.leaf_count)
    ]


def test_product_step_exact_across_the_int64_switch(algebra):
    # H(1,3) times (2^40+1)/7: every tree of one arity scales by the same
    # power, so the classes stay A000975's, while den * constants is about
    # 2^40, so leaf products run in int64 and deeper ones leave it
    op = _scaled(algebra("h13").operation, F(2**40 + 1, 7))
    assert _probe_tensor(op, left_comb(1)).dtype == np.int64
    assert _probe_tensor(op, left_comb(3)).dtype == object
    for m in range(5):
        trees = enumerate_trees(m)
        values = [_reference_probe_values(op, t) for t in trees]
        for t, want in zip(trees, values):
            got = tensor_fingerprint(op, t)
            assert got == tuple(x for v in want for x in v)
        by_reference = {}
        for i, v in enumerate(values):
            by_reference.setdefault(tuple(v), []).append(i)
        assert group_trees_by_fingerprint(op, trees) == list(by_reference.values())
    for m in range(5, 8):
        groups = group_trees_by_fingerprint(op, enumerate_trees(m))
        assert sorted(groups) == sorted(map(list, double_minus_classes(m).classes))
    rng = random.Random(5)
    for target in (op, direct_product(op, double_minus_operation())):
        d = target.dimension
        for m in range(5):
            for t in enumerate_trees(m):
                args = [
                    tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d))
                    for _ in range(m + 1)
                ]
                assert evaluate_parenthesization(target, t, args) == reference_evaluate(
                    target, t, args
                )
        # arguments that leave int64 before any product
        big = [tuple(F(2**70 + i, 3) for _ in range(d)) for i in range(3)]
        t = left_comb(2)
        assert evaluate_parenthesization(target, t, big) == reference_evaluate(target, t, big)


def _key_by_linear_form(op, t, offset=0):
    """sum_probe prod_r w_offset+r[probe_r] T[probe] mod 2^64, in Python ints."""
    p = op.probe_dimension
    w = binop._leaf_weights(p, offset + t.leaf_count).tolist()[offset:]
    total = [0] * p
    tensor = _probe_tensor(op, t).tolist()
    for probe, row in zip(product(range(p), repeat=t.leaf_count), tensor):
        c = 1
        for r, i in enumerate(probe):
            c *= w[r][i]
        total = [acc + c * x for acc, x in zip(total, row)]
    return tuple(x % 2**64 for x in total)


def _key_table_ops(algebra):
    noncomm = _random_operation(random.Random(2), 3)
    assert not noncomm.is_commutative
    big = _scaled(algebra("h13").operation, F(2**40 + 1, 7))
    assert _probe_tensor(big, left_comb(3)).dtype == object
    return [
        algebra("j41").operation,
        algebra("h23").operation,
        noncomm,
        direct_product(algebra("j41").operation, double_minus_operation()),
        big,
    ]


def test_key_table_rows_are_linear_forms_of_the_probe_tensor(algebra):
    for op in map(_fresh, _key_table_ops(algebra)):
        binop._key_table(op, 3)
        assert sorted(op._key_tables) == [(n, o) for n in range(4) for o in range(4 - n)]
        for (n, o), table in op._key_tables.items():
            trees = enumerate_trees(n)
            assert table.dtype == np.uint64
            assert table.shape == (len(trees), op.dimension)
            for t, row in zip(trees, table.tolist()):
                assert tuple(row) == _key_by_linear_form(op, t, o)


def test_single_arity_key_table_matches_ascending_build(algebra):
    for op in _key_table_ops(algebra):
        ascending = _fresh(op)
        for m in range(7):
            binop._key_table(ascending, m)
        fresh = _fresh(op)
        binop._key_table(fresh, 6)
        assert fresh._key_tables.keys() == ascending._key_tables.keys()
        for entry, table in ascending._key_tables.items():
            assert np.array_equal(fresh._key_tables[entry], table)


def test_key_tables_take_one_product_step_per_split(algebra, monkeypatch):
    calls = []
    real = binop._int_product

    def counting(op, x, y):
        calls.append(op)
        return real(op, x, y)

    monkeypatch.setattr(binop, "_int_product", counting)
    # J(4,1) builds no probe tensor, so every step is a key step: the entries
    # (n, o) with n + o <= 7 take one step per split, sum_n n (8 - n) = 84
    op = _fresh(algebra("j41").operation)
    for m in range(8):
        assert count_classes_exact(op, m).class_count == catalan(m)
    assert len(calls) == 84
    binop._key_table(op, 9)
    calls.clear()

    def refuse(m):
        raise AssertionError("a 2-tree grouping enumerated every tree")

    monkeypatch.setattr(binop, "enumerate_trees", refuse)
    trees = enumerate_trees(9)
    pair = [trees[4000], trees[17]]
    assert group_trees_by_fingerprint(op, pair) == [[0], [1]]
    assert calls == []


# ---------------------------------------------------------------------------
# direct-sum blocks and child classes


def _fresh(op):
    """A copy of op with no cached tensors, blocks or recorded classes."""
    return BilinearOperation(op.constants)


def _reference_groups(op, trees):
    """Group trees by exact equality of their full probe tensors."""
    ref = _fresh(op)
    groups = {}
    for idx, t in enumerate(trees):
        tensor = _probe_tensor(ref, t)
        if tensor.dtype == object and fits_int64(abs_max(tensor)):
            tensor = tensor.astype(np.int64)
        key = tensor.tobytes() if tensor.dtype == np.int64 else tuple(tensor.ravel().tolist())
        groups.setdefault(key, []).append(idx)
    return list(groups.values())


# m is capped where the reference's one tensor per class outgrows a test:
# 132 classes of 6^8 cells at m = 6 on H(2,4) would hold 1.7 GB
@pytest.mark.parametrize(
    "params, m_max",
    [((2, 3), 6), ((3, 3), 5), ((2, 4), 5), ((3, 4), 4)],
    ids=["h23", "h33", "h24", "h34"],
)
def test_hamming_blocks_match_full_tensor_reference(params, m_max):
    # H(n,e) is n identical blocks of dimension e-1: one distinct block
    op = build_instance("hamming", params).algebra.operation
    assert [b.dimension for b in binop._blocks(op)] == [params[1] - 1]
    for m in range(m_max + 1):
        trees = enumerate_trees(m)
        assert group_trees_by_fingerprint(op, trees, budget=10**9) == _reference_groups(op, trees)


def test_unequal_blocks_match_full_tensor_reference(algebra):
    op = direct_product(algebra("j41").operation, algebra("j31").operation)
    assert [b.dimension for b in binop._blocks(op)] == [3, 2]
    for m in range(6):
        trees = enumerate_trees(m)
        assert group_trees_by_fingerprint(op, trees) == _reference_groups(op, trees)


def test_blocks_are_the_connected_components_by_smallest_index():
    # e_i * e_i = e_{i+2} links 0-2-4-6 and 1-3-5: a path of three links
    # needs two squarings, and the blocks interleave their indices
    d = 7
    cube = [[[int(i == j and k == i + 2) for k in range(d)] for j in range(d)] for i in range(d)]
    blocks = binop._blocks(BilinearOperation(cube))
    assert [b.dimension for b in blocks] == [4, 3]
    for block in blocks:
        n = block.dimension
        want = [[[int(i == j and k == i + 1) for k in range(n)] for j in range(n)] for i in range(n)]
        assert block.constants == BilinearOperation(want).constants


def test_coupled_operations_are_not_split(algebra):
    cube = direct_product(algebra("j41").operation, algebra("j31").operation).constants
    cube = [[list(row) for row in plane] for plane in cube]
    cube[0][0][3] = F(1)  # e_0 * e_0 leaks into the second block's output
    leak = BilinearOperation(cube)
    assert binop._blocks(leak) == (leak,)
    for m in range(6):
        trees = enumerate_trees(m)
        assert group_trees_by_fingerprint(leak, trees) == _reference_groups(leak, trees)
    # two copies of double minus are two equal blocks, grouped once
    twice = direct_product(double_minus_operation(), double_minus_operation())
    blocks = binop._blocks(twice)
    assert len(blocks) == 1 and blocks[0].flat.tolist() == double_minus_operation().flat.tolist()
    assert count_classes_exact(twice, 5).classes == double_minus_classes(5).classes


def test_budget_is_checked_on_the_whole_operation():
    # H(3,3) is 6-dimensional with blocks of dimension 2; the budget refuses
    # exactly where 6^(m+2) passes it, although every block alone would fit
    op = build_instance("hamming", (3, 3)).algebra.operation
    budget = 6**5
    assert all(b.probe_dimension**6 <= budget for b in binop._blocks(op))
    assert count_classes_exact(op, 3, budget=budget).class_count == 5
    with pytest.raises(BudgetExceededError):
        count_classes_exact(op, 4, budget=budget)
    with pytest.raises(BudgetExceededError):
        group_trees_by_fingerprint(op, enumerate_trees(4), budget=budget)


def _top_level_tensors(monkeypatch):
    """Record (op, m) for every probe tensor a grouping asks for itself."""
    calls = []
    real = binop._probe_tensor

    def counting(op, t, memo=False):
        if not memo:  # subtree tensors are requested with memo=True
            calls.append((op, t.internal_count))
        return real(op, t, memo)

    monkeypatch.setattr(binop, "_probe_tensor", counting)
    return calls


def test_split_operation_builds_no_tensor_itself(algebra, monkeypatch):
    calls = _top_level_tensors(monkeypatch)
    op = _fresh(algebra("h23").operation)
    for m in range(7):
        assert count_classes_exact(op, m).class_count == ([1] + A000975_PREFIX)[m]
    assert calls and all(called is not op for called, _ in calls)


def test_child_classes_bound_the_tensors_of_the_next_arity(algebra, monkeypatch):
    # with the 1, 1, 2, 5, ..., 85 classes of m <= 7 recorded, the trees of
    # m = 8 have sum_a f(a) f(7-a) = 438 distinct (left, right) class pairs
    calls = _top_level_tensors(monkeypatch)
    op = _fresh(algebra("j31").operation)
    for m in range(8):
        count_classes_exact(op, m)
    calls.clear()
    assert count_classes_exact(op, 8).class_count == 170
    assert 0 < len(calls) <= 438
    assert {m for _, m in calls} == {8}


@pytest.mark.parametrize("name, m_max", [("j31", 8), ("h13", 8), ("d22", 7)])
def test_single_arity_call_matches_ascending_run(algebra, name, m_max):
    # d22 stops at m = 7: a fresh m = 8 call builds some 10^3 tensors of 4^9 rows
    op = algebra(name).operation
    ascending = _fresh(op)
    for m in range(m_max + 1):
        want = double_minus_classes(m).classes
        assert count_classes_exact(ascending, m).classes == want
        assert count_classes_exact(_fresh(op), m).classes == want
