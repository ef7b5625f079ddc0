"""Classification layer: signatures, certificates, coefficient lemmas, verdicts."""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nortonalg import classify
from nortonalg.binop import METHOD_PATTERN, METHOD_TENSOR, fingerprint_key
from nortonalg.classify import (
    BRANCH_A000975,
    BRANCH_ASSOCIATIVE,
    BRANCH_TOTALLY,
    JUSTIFY_FINGERPRINT,
    JUSTIFY_SIGNATURE,
    JUSTIFY_TESTED,
    JUSTIFY_THEOREM,
    JUSTIFY_ZERO,
    DistinctnessCertificate,
    EquivalenceClaim,
    certify_distinct,
    coefficient_table,
    count_norton_classes,
    d22_hamming_aligned_operation,
    expected_class_count,
    one_off_signature,
    pattern_coefficients,
    predicted_branch,
    verify_classification,
    verify_pattern_lemma,
)
from nortonalg.errors import BudgetExceededError, ConstructionError
from nortonalg.graphs import CustomFamily, JohnsonFamily
from nortonalg.instances import build_instance
from nortonalg.trees import depth_sequence, enumerate_trees, left_comb


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


def test_one_off_signature_separates_association_orders(algebra):
    alg = algebra("j52")
    t_right, t_left = enumerate_trees(2)
    assert depth_sequence(t_right) != depth_sequence(t_left)
    assert one_off_signature(alg, t_right) != one_off_signature(alg, t_left)
    assert one_off_signature(alg, t_right) == one_off_signature(alg, t_right)


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


def test_pattern_zero_operation_justification(algebra):
    rep = count_norton_classes(algebra("h22"), 5, strategy="pattern", budget=10)
    assert rep.class_count == 1
    assert rep.merge_justifications == (JUSTIFY_ZERO,)


def test_pattern_collisions_split_by_fingerprint(algebra):
    # a degenerate preferred pair makes every signature collide; with budget
    # the fingerprints recover the honest partition, without it the merge
    # cannot be justified on a totally nonassociative branch
    real = algebra("j52")
    u = real.one_off[0]
    fake = dataclasses.replace(real, one_off=(u, u), _signature_cache={})
    rep = count_norton_classes(fake, 3, strategy="pattern")
    assert rep.class_count == 5
    assert set(rep.merge_justifications) == {JUSTIFY_FINGERPRINT}
    with pytest.raises(BudgetExceededError):
        count_norton_classes(fake, 3, strategy="pattern", budget=10)


def test_certify_distinct_johnson_4_1(algebra):
    alg = algebra("j41")
    t_right, t_left = enumerate_trees(2)  # depths (1,2,2) and (2,2,1)
    cert = certify_distinct(alg, t_left, t_right)
    assert isinstance(cert, DistinctnessCertificate)
    assert cert.position == 0
    u, v = alg.one_off_vectors()
    c = Fraction(-1, 2)
    assert cert.value_a == tuple(c * c * a + (c + c * c) * b for a, b in zip(u, v))
    assert cert.value_b == tuple(c * a + c * b for a, b in zip(u, v))


def test_certify_distinct_triangle(algebra):
    alg = algebra("j31")
    t_right, t_left = enumerate_trees(2)
    cert = certify_distinct(alg, t_left, t_right)
    assert cert.position == 0
    u, v = alg.one_off_vectors()
    assert cert.value_a == tuple(u)  # (-1)^2 u + 0 v
    assert cert.value_b == tuple(-a - b for a, b in zip(u, v))


def test_certify_equivalent_mod2(algebra):
    alg = algebra("j31")
    groups = {}
    for t in enumerate_trees(4):
        groups.setdefault(depth_sequence(t).mod2(), []).append(t)
    pair = next(g for g in groups.values() if len(g) > 1)
    claim = certify_distinct(alg, pair[0], pair[1])
    assert isinstance(claim, EquivalenceClaim)
    assert claim.justification == JUSTIFY_THEOREM


def test_certify_zero_and_tested_claims(algebra):
    t_right, t_left = enumerate_trees(2)
    claim = certify_distinct(algebra("h22"), t_left, t_right)
    assert claim.justification == JUSTIFY_ZERO
    real = algebra("j52")
    fake = dataclasses.replace(
        real, one_off=(real.one_off[0],) * 2, _signature_cache={}
    )
    claim = certify_distinct(fake, t_left, t_right)
    assert claim.justification == JUSTIFY_TESTED


def test_certify_distinct_rejects_bad_inputs(algebra):
    alg = algebra("j31")
    t = enumerate_trees(2)[0]
    with pytest.raises(ValueError):
        certify_distinct(alg, t, t)
    with pytest.raises(ValueError):
        certify_distinct(alg, t, enumerate_trees(3)[0])


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
    # the constructor itself cross-checks every row against a direct
    # evaluation; surviving h = 1..10 is the assertion
    for name in ("j52", "h23", "h14", "d22", "c22", "g242"):
        table = coefficient_table(algebra(name), 10)
        assert len(table.rows) == 10
        assert table.row(7).h == 7
        assert table.c == table.rows[0].alpha


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
    fake = dataclasses.replace(
        real, family=JohnsonFamily(3, 1), _signature_cache={}
    )
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
    for t in enumerate_trees(3):
        assert fingerprint_key(aligned, t) == fingerprint_key(h23_op, t)
    with pytest.raises(ValueError):
        d22_hamming_aligned_operation(*bundle("c22"))


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
import sys
from test_classify import wrong_pins_caught
print(sys.flags.optimize, wrong_pins_caught())
"""


def test_wrong_branch_pin_raises_under_optimize():
    # conftest already put the package's src/ on PYTHONPATH
    path = os.pathsep.join([str(Path(__file__).parent), os.environ["PYTHONPATH"]])
    result = subprocess.run(
        [sys.executable, "-O", "-c", PINS_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1", str(len(WRONG_PINS))]
