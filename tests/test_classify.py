"""Classification layer: signatures, certificates, coefficient lemmas, verdicts."""

import dataclasses
import re
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from nortonalg import binop, classify
from nortonalg.binop import (
    DEFAULT_FINGERPRINT_BUDGET,
    METHOD_PATTERN,
    METHOD_TENSOR,
    tensor_fingerprint,
)
from nortonalg.classify import (
    BRANCH_A000975,
    BRANCH_ASSOCIATIVE,
    BRANCH_TOTALLY,
    JUSTIFY_FINGERPRINT,
    JUSTIFY_SIGNATURE,
    JUSTIFY_THEOREM,
    JUSTIFY_ZERO,
    coefficient_table,
    count_norton_classes,
    d22_hamming_aligned_operation,
    expected_class_count,
    pattern_coefficients,
    predicted_branch,
    verify_classification,
    verify_pattern_lemma,
)
from nortonalg.errors import BudgetExceededError, ConstructionError
from nortonalg.graphs import CustomFamily, HammingFamily, JohnsonFamily
from nortonalg.instances import build_instance
from nortonalg.norton import NortonAlgebra
from nortonalg.trees import catalan, depth_sequence, depth_tuples, enumerate_trees, left_comb
from conftest import run_optimized


def test_predicted_branch(bundle):
    expectations = {
        "j31": BRANCH_A000975,
        "j41": BRANCH_TOTALLY,
        "j42": BRANCH_ASSOCIATIVE,
        "j52": BRANCH_TOTALLY,
        "g242": BRANCH_TOTALLY,
        "h22": BRANCH_ASSOCIATIVE,
        "h13": BRANCH_A000975,
        "h23": BRANCH_A000975,
        "h14": BRANCH_TOTALLY,
        "d22": BRANCH_A000975,
        "c22": BRANCH_TOTALLY,
        "d32": BRANCH_TOTALLY,
    }
    for name, want in expectations.items():
        assert predicted_branch(bundle(name)[0].family) == want, name
    with pytest.raises(ValueError):
        predicted_branch(CustomFamily("mystery"))


def test_expected_class_count():
    assert [expected_class_count(BRANCH_ASSOCIATIVE, m) for m in range(7)] == [1] * 7
    assert [expected_class_count(BRANCH_A000975, m) for m in range(6)] == [
        1, 1, 2, 5, 10, 21,
    ]
    assert [expected_class_count(BRANCH_TOTALLY, m) for m in range(6)] == [
        1, 1, 2, 5, 14, 42,
    ]
    with pytest.raises(ValueError):
        expected_class_count(BRANCH_TOTALLY, -1)
    with pytest.raises(ValueError):
        expected_class_count("sideways", 3)
    # the branch is checked before the one-tree answer at m = 0
    with pytest.raises(ValueError, match="bogus"):
        expected_class_count("bogus", 0)


def test_one_off_signature_separates_association_orders(algebra):
    alg = algebra("j52")
    t_right, t_left = enumerate_trees(2)
    assert depth_sequence(t_right) != depth_sequence(t_left)
    right, left = classify._one_off_signatures(alg.operation, classify._one_off_proof(alg)[0], 2)
    assert not np.array_equal(right, left)
    rows = classify._depth_rows(alg, 2)
    assert [list(rows[h]) for h in depth_sequence(t_right)] == right.tolist()


CONFTEST_INSTANCES = (
    "j31", "j41", "j42", "j52", "g242", "h22",
    "h13", "h23", "h14", "d22", "c22", "d32",
)


@pytest.mark.parametrize("name", CONFTEST_INSTANCES)
def test_depth_rows_match_subtree_recursion(algebra, name):
    # v * v = mu v holds on every family algebra, so signatures are read off
    # the leaf depths; they must equal the tree table on the one-off layout
    alg = algebra(name)
    pair = classify._one_off_proof(alg)[0]
    for m in range(8):
        rows = classify._depth_rows(alg, m)
        assert rows is not None, (name, m)
        trees = enumerate_trees(m)
        batched = classify._one_off_signatures(alg.operation, pair, m).tolist()
        for t, sig in zip(trees, batched):
            want = tuple(map(tuple, sig))
            assert tuple(rows[h] for h in depth_sequence(t)) == want, (name, t)


@pytest.mark.parametrize("name", CONFTEST_INSTANCES)
def test_pattern_report_is_the_grouping_of_enumerated_signatures(algebra, monkeypatch, name):
    # the reference groups every tree by its row of one-off signatures (the
    # tree table on the one-off layout); merges are checked on fingerprints
    # within the default budget, and past it (h23 and d22 at m = 8) cite the
    # mod-2 criterion.
    # Distinct depth rows give the report with no tree read
    alg = algebra(name)
    pair = classify._one_off_proof(alg)[0]
    read = []
    for m in range(9):
        groups = {}
        for i, sig in enumerate(classify._one_off_signatures(alg.operation, pair, m).tolist()):
            groups.setdefault(tuple(map(tuple, sig)), []).append(i)
        classes = sorted(groups.values())
        merged = [len(c) > 1 for c in classes]
        if binop._probe_cells(alg.operation, m) <= DEFAULT_FINGERPRINT_BUDGET:
            why = JUSTIFY_FINGERPRINT
        else:
            assert not any(merged) or predicted_branch(alg.family) == BRANCH_A000975
            why = JUSTIFY_THEOREM
        want = {
            "m": m,
            "method": METHOD_PATTERN,
            "class_count": len(classes),
            "classes": classes,
            "merge_justifications": [why if x else JUSTIFY_SIGNATURE for x in merged],
        }
        with monkeypatch.context() as mp:
            for attr in ("enumerate_trees", "depth_tuples"):
                real = getattr(classify, attr)
                mp.setattr(classify, attr, lambda n, real=real: read.append(n) or real(n))
            rep = count_norton_classes(alg, m, strategy="pattern")
        assert rep.to_json_dict() == want, (name, m)
    if predicted_branch(alg.family) == BRANCH_TOTALLY:
        assert read == []


def _custom_algebra(name, cube, u, v):
    op = binop.BilinearOperation(cube)
    return NortonAlgebra.of_fractions(CustomFamily(name), op, {"u": u, "v": v}, ("u", "v"))


def _pair_fractions(alg):
    """The preferred pair as Fraction coordinate tuples."""
    return tuple(alg.label_coords[x] for x in alg.one_off)


def _exact_signature(alg, t):
    """t's one-off signature from exact Fraction evaluation, scaled to integers."""
    m = t.internal_count
    u, v = _pair_fractions(alg)
    s = lcm(*(Fraction(x).denominator for x in (*u, *v)))
    scale = s ** (m + 1) * alg.operation.den ** m
    out = []
    for r in range(m + 1):
        args = [v] * (m + 1)
        args[r] = u
        value = binop.evaluate_parenthesization(alg.operation, t, args)
        out.append(tuple(int(x * scale) for x in value))
    return tuple(out)


# upper triangular 2 x 2 matrices on E11, E12, E22: associative, not
# commutative, and v = E11 is idempotent, so only commutativity fails
_Z = (0, 0, 0)
TRIANGULAR = ([[(1, 0, 0), (0, 1, 0), _Z], [_Z, _Z, (0, 1, 0)], [_Z, _Z, (0, 0, 1)]],
              (0, 1, 0), (1, 0, 0))
# commutative, but e1 * e1 = e0 + e1 is no multiple of e1
SKEW = ([[(1, 0), (2, -1)], [(2, -1), (1, 1)]], (1, 0), (0, 1))


@pytest.mark.parametrize(
    "name,spec,counts,fingerprinted",
    [
        # one class; every merge from m = 2 on is checked on fingerprints
        ("triangular", TRIANGULAR, [1] * 7, [0, 0, 1, 1, 1, 1, 1]),
        # all C_m classes; at m = 6 one signature collision is split apart
        ("skew", SKEW, [catalan(m) for m in range(7)], [0] * 6 + [2]),
    ],
)
def test_unproved_depth_rows_fall_back_to_subtrees(name, spec, counts, fingerprinted):
    alg = _custom_algebra(name, *spec)
    for m, want in enumerate(counts):
        assert classify._depth_rows(alg, m) is None
        if m <= 5:
            table = classify._one_off_signatures(alg.operation, classify._one_off_proof(alg)[0], m)
            for t, sig in zip(enumerate_trees(m), table.tolist()):
                assert tuple(map(tuple, sig)) == _exact_signature(alg, t), t
        rep = count_norton_classes(alg, m, strategy="pattern")
        assert rep.class_count == want
        assert rep.classes == count_norton_classes(alg, m, strategy="tensor").classes
        tally = rep.merge_justifications.count(JUSTIFY_FINGERPRINT)
        assert tally == fingerprinted[m], m
        assert rep.merge_justifications.count(JUSTIFY_SIGNATURE) == want - tally


# neither commutative nor associative, so mu is unproved
NONCOMM = ([[(1, 0, 1), (0, 2, -1), (1, 0, 0)],
            [(0, -1, 1), (1, 1, 0), (0, 0, 2)],
            [(2, 0, 0), (0, 1, 1), (-1, 0, 1)]], (1, 0, 2), (0, 1, 1))
# the same with u past 2^50, so the one-off values leave int64
NONCOMM_BIG = (NONCOMM[0], (2**50, 0, 2), NONCOMM[2])


@pytest.mark.parametrize("name", CONFTEST_INSTANCES + ("noncomm", "noncomm_big"))
def test_one_off_table_rows_are_single_tree_evaluations(algebra, name):
    # row i of the tree table on the one-off layout is tree i evaluated
    # alone on that layout
    if name.startswith("noncomm"):
        alg = _custom_algebra(name, *(NONCOMM if name == "noncomm" else NONCOMM_BIG))
        assert not alg.operation.is_commutative and classify._depth_rows(alg, 1) is None
    else:
        alg = algebra(name)
    op = alg.operation
    pair = classify._one_off_proof(alg)[0]
    for m in range(8):
        leaves = classify._one_off_leaves(pair, m)
        table = classify._one_off_signatures(op, pair, m)
        assert table.shape == (catalan(m), m + 1, op.dimension)
        for t, row in zip(enumerate_trees(m), table.tolist()):
            assert binop._evaluate_rows(op, t, leaves).tolist() == row, (name, t)
    if name == "noncomm_big":
        assert table.dtype == object


@pytest.mark.parametrize("spec", [None, SKEW], ids=["c22", "skew"])
def test_one_off_proof_is_made_once_per_algebra(algebra, monkeypatch, spec):
    # the scaled pair and mu, or the failed proof, are kept on the algebra
    alg = algebra("c22") if spec is None else _custom_algebra("skew", *spec)
    alg = dataclasses.replace(alg)  # nothing proved yet
    calls = []
    real = NortonAlgebra.one_off_rows
    monkeypatch.setattr(NortonAlgebra, "one_off_rows", lambda a: calls.append(a) or real(a))
    for m in range(6):
        classify._depth_rows(alg, m)
        count_norton_classes(alg, m, strategy="pattern")
    assert len(calls) == 1
    assert (alg.one_off_proof[1] is None) == (spec is not None)


@pytest.mark.parametrize(
    "name,strategy,counts",
    [
        ("j31", "tensor", [1, 1, 2, 5, 10, 21]),
        ("j31", "pattern", [1, 1, 2, 5, 10, 21]),
        ("j41", "tensor", [1, 1, 2, 5, 14, 42]),
        ("j41", "pattern", [1, 1, 2, 5, 14, 42]),
        ("j42", "auto", [1, 1, 1, 1, 1, 1, 1]),
        ("h22", "auto", [1, 1, 1, 1, 1, 1, 1]),
        ("h23", "auto", [1, 1, 2, 5, 10, 21]),
        ("d22", "pattern", [1, 1, 2, 5, 10, 21]),
        ("j52", "pattern", [1, 1, 2, 5, 14]),
        ("c22", "pattern", [1, 1, 2, 5, 14]),
    ],
)
def test_class_counts(algebra, name, strategy, counts):
    alg = algebra(name)
    for m, want in enumerate(counts):
        rep = count_norton_classes(alg, m, strategy=strategy)
        assert rep.class_count == want, (name, m)


def test_pattern_and_tensor_partitions_agree(algebra):
    for name in ("j31", "j41", "j42", "j52", "g242", "h22", "h23", "h14", "d22", "c22"):
        alg = algebra(name)
        for m in range(4):
            tensor = count_norton_classes(alg, m, strategy="tensor")
            pattern = count_norton_classes(alg, m, strategy="pattern")
            assert tensor.classes == pattern.classes, (name, m)
            assert tensor.method == METHOD_TENSOR
            assert pattern.method == METHOD_PATTERN


def test_auto_strategy_prefers_tensor_within_budget(algebra):
    rep = count_norton_classes(algebra("j52"), 3, strategy="auto")
    assert rep.method == METHOD_TENSOR
    rep = count_norton_classes(algebra("g242"), 4, strategy="auto")
    assert rep.method == METHOD_PATTERN
    assert rep.class_count == 14
    with pytest.raises(ValueError):
        count_norton_classes(algebra("j52"), 2, strategy="sideways")


def test_pattern_merge_justifications(algebra):
    alg = algebra("h23")
    rep = count_norton_classes(alg, 4, strategy="pattern")
    assert rep.class_count == 10
    assert len(rep.merge_justifications) == rep.class_count
    for cls, why in zip(rep.classes, rep.merge_justifications):
        if len(cls) == 1:
            assert why == JUSTIFY_SIGNATURE
        else:
            assert why == JUSTIFY_FINGERPRINT
    # starve the fingerprint budget: merges fall back to the mod-2 criterion
    lean = count_norton_classes(alg, 4, strategy="pattern", budget=10)
    assert lean.classes == rep.classes
    merged = [w for c, w in zip(lean.classes, lean.merge_justifications) if len(c) > 1]
    assert merged and all(w == JUSTIFY_THEOREM for w in merged)


@pytest.mark.parametrize("name", ["h23", "d22"])
def test_pattern_merges_past_the_budget_carry_the_mod2_criterion(algebra, name):
    # equal depth rows on the A000975 branch: the count falls back to keyed
    # trees, whose merges cite the mod-2 criterion once fingerprints are out
    # of budget; skipping the distinct-rows check would report C_m singletons
    alg = algebra(name)
    for m in range(2, 8):
        rep = count_norton_classes(alg, m, strategy="pattern", budget=10)
        assert rep.classes == binop.double_minus_classes(m).classes, (name, m)
        for cls, why in zip(rep.classes, rep.merge_justifications):
            assert why == (JUSTIFY_THEOREM if len(cls) > 1 else JUSTIFY_SIGNATURE)
        assert rep.class_count == expected_class_count(BRANCH_A000975, m)
        assert (rep.class_count < catalan(m)) == (m >= 4)


def test_pattern_zero_operation_justification(algebra):
    rep = count_norton_classes(algebra("h22"), 5, strategy="pattern", budget=10)
    assert rep.class_count == 1
    assert rep.merge_justifications == (JUSTIFY_ZERO,)


@pytest.mark.parametrize("name, budget", [("h23", 10), ("j52", 10), ("h22", 10), ("h23", 10**7)])
def test_pattern_count_enumerates_trees_only_to_evaluate_them(algebra, monkeypatch, name, budget):
    # off proved depth rows the keys come from depth tuples, so only a
    # colliding bucket within budget (h23 with 10^7) reads the trees
    alg = algebra(name)
    want = count_norton_classes(alg, 6, strategy="pattern", budget=budget)
    assert classify._depth_rows(alg, 6) is not None
    calls = []
    monkeypatch.setattr(classify, "enumerate_trees", lambda m: calls.append(m) or enumerate_trees(m))
    assert count_norton_classes(alg, 6, strategy="pattern", budget=budget) == want
    assert calls == ([6] if JUSTIFY_FINGERPRINT in want.merge_justifications else [])


def test_pattern_collisions_split_by_fingerprint(algebra):
    # a degenerate preferred pair makes every signature collide; with budget
    # the fingerprints recover the honest partition, without it the merge
    # cannot be justified on a totally nonassociative branch
    real = algebra("j52")
    u = real.one_off[0]
    fake = dataclasses.replace(real, one_off=(u, u))
    rep = count_norton_classes(fake, 3, strategy="pattern")
    assert rep.class_count == 5
    assert set(rep.merge_justifications) == {JUSTIFY_FINGERPRINT}
    with pytest.raises(BudgetExceededError):
        count_norton_classes(fake, 3, strategy="pattern", budget=10)


def _halve_and_third(alg):
    """alg with its one-off pair scaled to u/2 and v/3, so that s = 6."""
    coords = dict(alg.label_coords)
    for label, k in zip(alg.one_off, (2, 3)):
        coords[label] = tuple(Fraction(x) / k for x in coords[label])
    return NortonAlgebra.of_fractions(alg.family, alg.operation, coords, alg.one_off)


@pytest.mark.parametrize("name", ["j41", "c22", "skew"])
@pytest.mark.parametrize("scaled", [False, True], ids=["s1", "s6"])
def test_certificate_values_are_exact_one_off_evaluations(algebra, name, scaled):
    # entry r of a one-off signature, over s^(m+1) den^m, is a direct
    # Fraction evaluation with u at position r and v elsewhere; skew takes
    # the batched path
    alg = _custom_algebra(name, *SKEW) if name == "skew" else algebra(name)
    if scaled:
        alg = _halve_and_third(alg)
    assert (classify._depth_rows(alg, 4) is None) == (name == "skew")
    u, v = _pair_fractions(alg)
    pair, _, s = classify._one_off_proof(alg)
    assert s == (6 if scaled else 1)
    for m in range(1, 5):
        scale = s ** (m + 1) * alg.operation.den ** m
        trees = enumerate_trees(m)
        table = classify._one_off_signatures(alg.operation, pair, m).tolist()
        signatures = [tuple(map(tuple, sig)) for sig in table]
        rows = classify._depth_rows(alg, m)
        if rows is not None:
            assert [tuple(rows[h] for h in d) for d in depth_tuples(m)] == signatures
        for tree, signature in zip(trees, signatures):
            for r, entry in enumerate(signature):
                args = [v] * (m + 1)
                args[r] = u
                want = binop.evaluate_parenthesization(alg.operation, tree, args)
                assert tuple(Fraction(x, scale) for x in entry) == want
        # every pair of distinct trees is separated
        assert len(set(signatures)) == len(trees)


def test_merges_without_a_prediction_fall_to_the_budget_and_tested_claims():
    # no theorem covers a family with no predicted branch: a merge past the
    # fingerprint budget is a budget refusal
    alg = _custom_algebra("triangular", *TRIANGULAR)
    with pytest.raises(BudgetExceededError):
        count_norton_classes(alg, 3, strategy="pattern", budget=10)


def test_a000975_merges_are_checked_against_the_mod2_criterion(algebra):
    # with a degenerate pair every one-off signature agrees, which the mod-2
    # criterion the A000975 branch cites for its merges refutes
    real = algebra("h23")
    fake = dataclasses.replace(real, one_off=(real.one_off[0],) * 2)
    with pytest.raises(ConstructionError, match="contradict the mod-2 criterion at m=4"):
        count_norton_classes(fake, 4, strategy="pattern", budget=10)


def test_pattern_coefficients_johnson(algebra):
    row = pattern_coefficients(algebra("j31"), 2)
    assert (row.alpha, row.beta, row.gamma) == (1, 0, None)
    row = pattern_coefficients(algebra("j31"), 1)
    assert (row.alpha, row.beta) == (-1, -1)
    row = pattern_coefficients(algebra("j52"), 1)
    assert row.alpha == Fraction(-1, 3)
    assert row.beta == Fraction(-1, 3)
    row = pattern_coefficients(algebra("j41"), 3)
    assert row.alpha == Fraction(-1, 8)
    assert row.beta == Fraction(-1, 2) + Fraction(1, 4) - Fraction(1, 8)


def test_pattern_coefficients_grassmann(algebra):
    alg = algebra("g242")
    row = pattern_coefficients(alg, 1)
    assert row.alpha == Fraction(-1, 3)
    assert row.gamma == Fraction(5, 18)
    row = pattern_coefficients(alg, 2)
    assert row.alpha == Fraction(1, 9)
    assert row.gamma == Fraction(-5, 162)


def test_pattern_coefficients_validate_against_left_comb(algebra):
    # an independent Fraction reference: the left comb of depth h on the
    # lemma pair, lambda u and lambda v with lambda = e/(e-2) over Hamming
    # and 1 elsewhere, is alpha lambda u + beta lambda v + gamma line
    for name in ("j31", "j41", "j52", "h23", "h14", "d22", "c22", "g242"):
        alg = algebra(name)
        fam = alg.family
        lam = Fraction(fam.e, fam.e - 2) if isinstance(fam, HammingFamily) else 1
        u, v = (tuple(lam * x for x in w) for w in _pair_fractions(alg))
        points = [alg.label_coords[w] for w in alg.one_off_line]
        line = [sum(col) for col in zip(*points)] or [0] * alg.dim
        for h in range(1, 7):
            row = pattern_coefficients(alg, h)
            gamma = row.gamma or 0
            want = tuple(row.alpha * a + row.beta * b + gamma * c for a, b, c in zip(u, v, line))
            got = binop.evaluate_parenthesization(alg.operation, left_comb(h), [u] + [v] * h)
            assert got == want, (name, h)
    for name in ("j52", "h23", "h14", "d22", "c22", "g242"):
        table = coefficient_table(algebra(name), 10)
        assert len(table.rows) == 10
        assert table.row(7).h == 7
        assert table.c == table.rows[0].alpha


def test_lemma_rescale_comes_from_family_constants(algebra, monkeypatch):
    # over Hamming the lemma pair is the preferred pair over "diagonal";
    # without it v * v = v fails and so does the lemma
    alg = algebra("h23")
    assert verify_pattern_lemma(alg, 3) == 2 + 6 + 20
    real = classify.family_constants
    monkeypatch.setattr(
        classify,
        "family_constants",
        lambda family: {k: x for k, x in real(family).items() if k != "diagonal"},
    )
    with pytest.raises(ConstructionError):
        verify_pattern_lemma(alg, 3)


def test_coefficient_table_rows_are_depths_one_to_h_max(algebra):
    # unchecked, row(0) would wrap around to the last row
    table = coefficient_table(algebra("j41"), 3)
    assert [table.row(h).h for h in (1, 2, 3)] == [1, 2, 3]
    for h in (0, -1, 4):
        with pytest.raises(ValueError, match="outside 1..3"):
            table.row(h)


def test_gamma_recursion(algebra):
    alg = algebra("g242")
    table = coefficient_table(alg, 11)
    q = alg.family.q
    c, b = table.c, table.b
    for h in range(1, 11):
        alpha, gamma = table.row(h).alpha, table.row(h).gamma
        assert table.row(h + 1).gamma == b * alpha + c * gamma + q * b * gamma


def test_pattern_coefficients_rejects_zero_products(algebra):
    with pytest.raises(ValueError):
        pattern_coefficients(algebra("j42"), 1)
    with pytest.raises(ValueError):
        coefficient_table(algebra("h22"), 3)
    with pytest.raises(ValueError):
        pattern_coefficients(algebra("j31"), 0)


def test_lemma_holds_on_every_tree(algebra):
    per_position = sum(
        (m + 1) * len(enumerate_trees(m)) for m in range(1, 5)
    )
    for name in ("j31", "j41", "j52", "h23", "h14", "d22", "c22"):
        assert verify_pattern_lemma(algebra(name), 4) == per_position
    assert verify_pattern_lemma(algebra("g242"), 3) == 2 + 6 + 20


@pytest.mark.parametrize("name", ["j52", "g242", "c22"])
def test_lemma_check_catches_a_perturbed_square(algebra, name):
    # one unit of den C moves v * v and leaves u * v alone, so every left
    # comb behind the closed form still agrees; the first tree that squares
    # v, u * (v * v), must fail
    alg = algebra(name)
    u, v = _pair_fractions(alg)
    assert sum(map(abs, v)) == 1  # v is a basis vector e_j
    j = v.index(1)
    cube = [[list(row) for row in plane] for plane in alg.operation.constants]
    cube[j][j][0] += Fraction(1, alg.operation.den)
    op = binop.BilinearOperation(cube)
    assert op.is_commutative
    assert op.apply(u, v) == alg.operation.apply(u, v)
    assert op.apply(v, v) != alg.operation.apply(v, v)
    bad = dataclasses.replace(alg, operation=op)
    want = "lemma fails on tree BinaryTree('(•(••))') at position 0"
    with pytest.raises(ConstructionError, match=re.escape(want)):
        verify_pattern_lemma(bad, 3)


@pytest.mark.parametrize("name", ["j52", "c22"])
def test_lemma_check_reports_a_failed_closed_form_first(algebra, name):
    # one unit of den C moves u * v, so the first position checked, depth 1
    # of the tree (••), has no closed form: pattern_coefficients' own
    # cross-check fails there, and its error is the one reported
    alg = algebra(name)
    u, v = _pair_fractions(alg)
    i, j = u.index(1), v.index(1)  # u and v are basis vectors e_i, e_j
    cube = [[list(row) for row in plane] for plane in alg.operation.constants]
    cube[i][j][0] += Fraction(1, alg.operation.den)
    cube[j][i][0] += Fraction(1, alg.operation.den)
    bad = dataclasses.replace(alg, operation=binop.BilinearOperation(cube))
    want = "depth-1 one-off evaluation disagrees with the closed form"
    with pytest.raises(ConstructionError, match=want):
        verify_pattern_lemma(bad, 3)


def test_lemma_check_reports_a_grassmann_residual_off_the_second_vector(algebra):
    # over Grassmann beta is measured from the residual, which must be a
    # multiple of v; one unit of den C moves u * v off v's coordinate
    alg = algebra("g242")
    u, v = _pair_fractions(alg)
    i, j = u.index(1), v.index(1)  # u and v are basis vectors e_i, e_j
    k = next(k for k in range(alg.dim) if k != j)
    cube = [[list(row) for row in plane] for plane in alg.operation.constants]
    cube[i][j][k] += Fraction(1, alg.operation.den)
    cube[j][i][k] += Fraction(1, alg.operation.den)
    bad = dataclasses.replace(alg, operation=binop.BilinearOperation(cube))
    with pytest.raises(ConstructionError, match="residual at depth 1 is not a multiple"):
        pattern_coefficients(bad, 1)
    with pytest.raises(ConstructionError, match="residual at depth 1 is not a multiple"):
        verify_pattern_lemma(bad, 3)


def test_verify_classification_passes(algebra):
    v = verify_classification(algebra("h22"), 6)
    assert v.branch == BRANCH_ASSOCIATIVE
    assert v.passed and v.counts == (1,) * 7
    v = verify_classification(algebra("h23"), 5)
    assert v.branch == BRANCH_A000975
    assert v.counts == (1, 1, 2, 5, 10, 21)
    assert v.passed and v.failures == ()
    v = verify_classification(algebra("c22"), 4)
    assert v.branch == BRANCH_TOTALLY
    assert v.counts == (1, 1, 2, 5, 14)
    assert v.passed
    v = verify_classification(algebra("g242"), 3, strategy="pattern")
    assert v.counts == (1, 1, 2, 5)
    assert v.passed


def test_verify_classification_failure_is_reported(algebra):
    real = algebra("j52")
    # mislabel a totally nonassociative algebra as the A000975 instance:
    # counts diverge first at m = 4 (14 observed, 10 predicted)
    fake = dataclasses.replace(real, family=JohnsonFamily(3, 1))
    v = verify_classification(fake, 4)
    assert not v.passed
    assert v.branch == BRANCH_A000975
    assert v.failures == ((4, 14, 10),)
    d = v.to_json_dict()
    assert d["passed"] is False
    assert d["failures"] == [[4, 14, 10]]
    assert d["counts"] == [1, 1, 2, 5, 14]


def test_d22_operation_aligns_with_hamming(bundle, algebra):
    g, sd = bundle("d22")
    aligned = d22_hamming_aligned_operation(g, sd)
    h23_op = algebra("h23").operation
    assert aligned.constants == h23_op.constants
    assert aligned.den == h23_op.den and np.array_equal(aligned.flat, h23_op.flat)
    for t in enumerate_trees(3):
        assert tensor_fingerprint(aligned, t) == tensor_fingerprint(h23_op, t)
    with pytest.raises(ValueError):
        d22_hamming_aligned_operation(*bundle("c22"))


def test_d22_aligned_vectors_outside_v1_are_refused(bundle):
    # 2 E_1 is still affine in M M^T, but fixes none of the aligned vectors
    g, sd = bundle("d22")
    numerators = sd.numerators.copy()
    numerators[1] *= 2
    doubled = dataclasses.replace(sd, numerators=numerators)
    with pytest.raises(ConstructionError, match="leave V_1"):
        d22_hamming_aligned_operation(g, doubled)


def test_equal_keys_are_checked_exactly(algebra, monkeypatch):
    # every tree gets the same key: only the exact comparison of probe
    # tensors can keep the classes apart
    def equal_keys(op, m):
        return np.zeros((catalan(m), op.dimension), dtype=np.uint64)

    monkeypatch.setattr(binop, "_key_table", equal_keys)
    j41, h23 = algebra("j41"), algebra("h23")
    for m in range(6):
        assert count_norton_classes(j41, m, strategy="tensor").class_count == catalan(m)
        want = expected_class_count(BRANCH_A000975, m)
        assert count_norton_classes(h23, m, strategy="tensor").class_count == want
        rep = count_norton_classes(h23, m, strategy="pattern")
        assert rep.class_count == want
        merged = [j for c, j in zip(rep.classes, rep.merge_justifications) if len(c) > 1]
        assert set(merged) == ({JUSTIFY_FINGERPRINT} if want < catalan(m) else set())


def test_tree_alone_with_its_key_builds_no_probe_tensor(algebra, monkeypatch):
    # J(4,1) is totally nonassociative, so every key is its own bucket
    def refuse(*args, **kwargs):
        raise AssertionError("probe tensor built for a tree alone with its key")

    monkeypatch.setattr(binop, "_probe_tensor", refuse)
    j41 = algebra("j41")
    for m in range(8):
        assert count_norton_classes(j41, m, strategy="tensor").class_count == catalan(m)


# ---------------------------------------------------------------------------
# branch-constant pins

# algebras paired with a branch their constants contradict
WRONG_PINS = (
    (("johnson", (5, 2)), BRANCH_ASSOCIATIVE),  # c = -1/3, product nonzero
    (("johnson", (5, 2)), BRANCH_A000975),  # c = -1/3, not -1
    (("johnson", (3, 1)), BRANCH_TOTALLY),  # c = -1
    (("johnson", (4, 2)), BRANCH_TOTALLY),  # zero product, no c
)


def wrong_pins_caught() -> int:
    """How many WRONG_PINS make verify_classification raise ConstructionError."""
    real = classify.predicted_branch
    caught = 0
    try:
        for spec, branch in WRONG_PINS:
            alg = build_instance(*spec).algebra
            classify.predicted_branch = lambda family, branch=branch: branch
            try:
                verify_classification(alg, 1)
            except ConstructionError:
                caught += 1
    finally:
        classify.predicted_branch = real
    return caught


def test_wrong_branch_pin_raises():
    assert wrong_pins_caught() == len(WRONG_PINS)
    for spec, _ in WRONG_PINS:  # under the true branch the same algebras pass
        assert verify_classification(build_instance(*spec).algebra, 3).passed


PINS_SCRIPT = """
from test_classify import wrong_pins_caught
print(wrong_pins_caught())
"""


def test_wrong_branch_pin_raises_under_optimize():
    assert run_optimized(PINS_SCRIPT).split() == [str(len(WRONG_PINS))]
