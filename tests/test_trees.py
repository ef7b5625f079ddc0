"""Tree layer: enumeration, depth sequences, and the depth bijection."""

import pytest

from nortonalg.errors import EnumerationLimitError
from nortonalg.trees import (
    DEFAULT_ENUMERATION_LIMIT,
    LEAF,
    BinaryTree,
    DepthSequence,
    catalan,
    depth_sequence,
    depth_set,
    depth_tuples,
    enumerate_trees,
    left_comb,
    node,
    parse_tree,
    to_string,
    tree_from_depth_sequence,
    tree_index,
    _depths,
)

# Catalan numbers C_0..C_12, frozen.
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


def test_catalan_values():
    assert [catalan(n) for n in range(13)] == CATALAN
    assert catalan(6) == 132
    with pytest.raises(ValueError):
        catalan(-1)


def test_enumeration_counts_match_catalan():
    for n in range(9):
        trees = enumerate_trees(n)
        assert len(trees) == catalan(n)
        assert len(set(trees)) == len(trees)
        for t in trees:
            assert t.internal_count == n
            assert t.leaf_count == n + 1


def test_enumeration_order_is_split_position_recursive():
    # n = 2: split k=0 gives leaf + 2-leaf right subtree first.
    t0, t1 = enumerate_trees(2)
    assert t0 == node(LEAF, node(LEAF, LEAF))
    assert t1 == node(node(LEAF, LEAF), LEAF)


def test_tree_index_inverts_enumeration_up_to_9():
    for n in range(10):
        assert [tree_index(t) for t in enumerate_trees(n)] == list(range(CATALAN[n]))


def test_enumeration_limit():
    with pytest.raises(EnumerationLimitError) as caught:
        enumerate_trees(13)
    assert (caught.value.n, caught.value.limit) == (13, 12)


def test_left_comb_depths():
    # ((x0 x1) x2) has depth sequence (2, 2, 1).
    assert depth_sequence(left_comb(2)).depths == (2, 2, 1)
    assert depth_sequence(left_comb(5)).depths == (5, 5, 4, 3, 2, 1)
    assert left_comb(0) is LEAF


def test_depth_sequence_examples():
    t = node(node(LEAF, LEAF), node(LEAF, LEAF))
    assert depth_sequence(t).depths == (2, 2, 2, 2)
    t = node(LEAF, node(LEAF, node(LEAF, LEAF)))
    assert depth_sequence(t).depths == (1, 2, 3, 3)


def test_kraft_equality_holds_and_is_enforced():
    for n in range(8):
        for t in enumerate_trees(n):
            d = depth_sequence(t)
            m = max(d)
            assert sum(2 ** (m - x) for x in d) == 2 ** m
    with pytest.raises(ValueError):
        DepthSequence((1, 1, 1))
    with pytest.raises(ValueError):
        DepthSequence(())


def test_depth_set_recursion_matches_enumeration():
    for n in range(8):
        via_trees = {depth_sequence(t) for t in enumerate_trees(n)}
        assert depth_set(n) == via_trees
        assert len(depth_set(n)) == catalan(n)


def test_depth_tuples_follow_enumeration_order():
    for n in range(10):
        tuples = depth_tuples(n)
        trees = enumerate_trees(n)
        assert len(tuples) == len(trees)
        for t, d in zip(trees, tuples):
            assert depth_sequence(t).depths == d
    with pytest.raises(ValueError):
        depth_tuples(-1)
    with pytest.raises(EnumerationLimitError):
        depth_tuples(13)


def test_depth_map_is_a_bijection_up_to_8():
    for n in range(9):
        seen = {}
        for t in enumerate_trees(n):
            d = depth_sequence(t).depths
            assert d not in seen, f"two trees share depth sequence {d}"
            seen[d] = t
            assert tree_from_depth_sequence(d) == t


def test_depth_tuples_are_distinct_up_to_12():
    # a tree is determined by its leaf depths: the count of the totally
    # nonassociative branch from distinct depth rows rests on this, at every
    # arity the enumeration limit admits
    try:
        for n in range(DEFAULT_ENUMERATION_LIMIT + 1):
            assert len(set(depth_tuples(n))) == catalan(n), n
    finally:
        _depths.cache_clear()  # C_12 tuples need not outlive the test


def test_reconstruction_rejects_non_tree_sequences():
    # Kraft holds for (1, 3, 2, 3) but no tree realizes this ordering.
    with pytest.raises(ValueError):
        tree_from_depth_sequence((1, 3, 2, 3))
    with pytest.raises(ValueError):
        tree_from_depth_sequence(())


def test_serialization_round_trip():
    assert to_string(LEAF) == "•"
    assert to_string(node(node(LEAF, LEAF), LEAF)) == "((••)•)"
    for n in range(7):
        for t in enumerate_trees(n):
            assert parse_tree(to_string(t)) == t
    with pytest.raises(ValueError):
        parse_tree("((••)•")
    with pytest.raises(ValueError):
        parse_tree("••")


def test_tree_equality_and_hash():
    a = node(LEAF, node(LEAF, LEAF))
    b = node(LEAF, node(LEAF, LEAF))
    assert a == b and hash(a) == hash(b)
    assert a != node(node(LEAF, LEAF), LEAF)
    with pytest.raises(ValueError):
        BinaryTree(LEAF, None)


def test_expanding_a_missing_leaf_raises():
    from nortonalg.trees import _expand_leaf

    assert _expand_leaf(LEAF, 0) == node(LEAF, LEAF)
    with pytest.raises(ValueError):
        _expand_leaf(left_comb(2), 3)


def test_depth_sequence_serialize():
    assert depth_sequence(left_comb(2)).serialize() == "2,2,1"
    assert DepthSequence((2, 2, 1)).mod2() == (0, 0, 1)
