"""Full binary trees, Catalan counting, and leaf-depth sequences.

A full binary tree with n internal nodes has n+1 leaves, labelled 0..n in
preorder; such trees index the parenthesizations of a product of n+1 factors.
The depth sequence d(t) = (d_0, ..., d_n) records the leaf depths left to
right and determines the tree: the leftmost deepest leaf is always the left
child of its parent, so contracting that sibling pair inverts the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import EnumerationLimitError

DEFAULT_ENUMERATION_LIMIT = 12


class BinaryTree:
    """Immutable full binary tree: a leaf, or a node with two subtrees."""

    __slots__ = ("left", "right", "leaf_count")

    def __init__(self, left=None, right=None):
        if (left is None) != (right is None):
            raise ValueError("a node has two children, a leaf has none")
        self.left = left
        self.right = right
        self.leaf_count = 1 if left is None else left.leaf_count + right.leaf_count

    @property
    def is_leaf(self):
        return self.left is None

    @property
    def internal_count(self):
        return self.leaf_count - 1

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, BinaryTree):
            return NotImplemented
        if self.leaf_count != other.leaf_count:
            return False
        if self.is_leaf:
            return other.is_leaf
        return not other.is_leaf and self.left == other.left and self.right == other.right

    def __hash__(self):
        return hash("leaf") if self.is_leaf else hash((self.left, self.right))

    def __repr__(self):
        return f"BinaryTree({to_string(self)!r})"


LEAF = BinaryTree()


def node(left: BinaryTree, right: BinaryTree) -> BinaryTree:
    if left is None or right is None:
        raise ValueError("node() needs two subtrees")
    return BinaryTree(left, right)


def left_comb(n: int) -> BinaryTree:
    """The tree (((x0 x1) x2) ... xn); leaf 0 sits at depth n."""
    t = LEAF
    for _ in range(n):
        t = BinaryTree(t, LEAF)
    return t


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return comb(2 * n, n) // (n + 1)


def enumerate_trees(n: int) -> list[BinaryTree]:
    """All full binary trees with n internal nodes, in a fixed recursive order.

    Order: split position k = 0..n-1 ascending (the left subtree gets k+1 of
    the n+1 leaves), left subtree index before right subtree index.  n above
    DEFAULT_ENUMERATION_LIMIT is an EnumerationLimitError.
    """
    check_arity(n)
    return list(_trees(n))


def check_arity(n: int) -> None:
    """Refuse n < 0 (ValueError) and n > DEFAULT_ENUMERATION_LIMIT."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > DEFAULT_ENUMERATION_LIMIT:
        raise EnumerationLimitError(n, DEFAULT_ENUMERATION_LIMIT)


def tree_index(t: BinaryTree) -> int:
    """Position of t in enumerate_trees(t.internal_count), read off its shape.

    The trees of split k follow those of every smaller split, and within a
    split the left subtree's index is the major one.
    """
    if t.is_leaf:
        return 0
    n, k = t.internal_count, t.left.internal_count
    before = sum(catalan(j) * catalan(n - 1 - j) for j in range(k))
    return before + tree_index(t.left) * catalan(n - 1 - k) + tree_index(t.right)


@lru_cache(maxsize=None)
def _trees(n: int) -> tuple:
    if n == 0:
        return (LEAF,)
    out = []
    for k in range(n):
        for l in _trees(k):
            for r in _trees(n - 1 - k):
                out.append(BinaryTree(l, r))
    return tuple(out)


@dataclass(frozen=True)
class DepthSequence:
    """Leaf depths of a full binary tree, left to right.

    Always satisfies the Kraft equality sum(2^-d_i) = 1.  The equality is
    necessary for any full binary tree; orderings that pass it but do not come
    from a tree are rejected by tree_from_depth_sequence.
    """

    depths: tuple

    def __post_init__(self):
        d = tuple(int(x) for x in self.depths)
        object.__setattr__(self, "depths", d)
        if not d:
            raise ValueError("empty depth sequence")
        if any(x < 0 for x in d):
            raise ValueError("negative depth")
        m = max(d)
        if sum(2 ** (m - x) for x in d) != 2 ** m:
            raise ValueError(f"Kraft equality fails for {d}")

    def __iter__(self):
        return iter(self.depths)

    def __len__(self):
        return len(self.depths)

    def __getitem__(self, i):
        return self.depths[i]

    def mod2(self) -> tuple:
        return tuple(x % 2 for x in self.depths)

    def serialize(self) -> str:
        return ",".join(str(x) for x in self.depths)


def depth_sequence(t: BinaryTree) -> DepthSequence:
    out = []
    stack = [(t, 0)]
    while stack:
        s, d = stack.pop()
        if s.is_leaf:
            out.append(d)
        else:
            stack.append((s.right, d + 1))
            stack.append((s.left, d + 1))
    return DepthSequence(tuple(out))


def depth_tuples(n: int) -> tuple:
    """Depth tuples of the trees with n internal nodes, in enumerate_trees order.

    Built by the splitting recursion of enumerate_trees: for each split k,
    raise a member of D_k and one of D_{n-1-k} by one and concatenate, left
    index before right index.  Entry i is depth_sequence(enumerate_trees(n)[i])
    as a plain tuple; the result is cached.
    """
    check_arity(n)
    return _depths(n)


@lru_cache(maxsize=None)
def _depths(n: int) -> tuple:
    if n == 0:
        return ((0,),)
    out = []
    for k in range(n):
        right = [tuple(x + 1 for x in b) for b in _depths(n - 1 - k)]
        for a in _depths(k):
            left = tuple(x + 1 for x in a)
            out.extend(left + b for b in right)
    return tuple(out)


def depth_set(n: int) -> frozenset:
    """The set D_n of depth sequences, built by the splitting recursion.

    D_0 = {(0)}; D_n is the union over k of sequences obtained by raising a
    member of D_k and a member of D_{n-1-k} by one and concatenating.
    """
    return frozenset(DepthSequence(d) for d in depth_tuples(n))


def tree_from_depth_sequence(seq) -> BinaryTree:
    """Rebuild the unique tree with the given depth sequence.

    The leftmost maximal-depth leaf and its right neighbour are siblings;
    contract them to a single leaf one level up and recurse.  Raises
    ValueError if the sequence is not realized by any tree.
    """
    d = list(seq)
    if any(x < 0 for x in d) or not d:
        raise ValueError("not a depth sequence")
    if d == [0]:
        return LEAF
    i = d.index(max(d))
    if d[i] == 0 or i + 1 >= len(d) or d[i + 1] != d[i]:
        raise ValueError(f"{tuple(d)} is not the depth sequence of a tree")
    contracted = d[:i] + [d[i] - 1] + d[i + 2:]
    return _expand_leaf(tree_from_depth_sequence(contracted), i)


def _expand_leaf(t: BinaryTree, i: int) -> BinaryTree:
    """Replace preorder leaf i of t by a node with two fresh leaves."""
    if t.is_leaf:
        if i != 0:
            raise ValueError(f"a leaf has no leaf {i}")
        return BinaryTree(LEAF, LEAF)
    nl = t.left.leaf_count
    if i < nl:
        return BinaryTree(_expand_leaf(t.left, i), t.right)
    return BinaryTree(t.left, _expand_leaf(t.right, i - nl))


def to_string(t: BinaryTree) -> str:
    """Canonical parenthesis string: leaf = "•", node = "(" left right ")"."""
    if t.is_leaf:
        return "•"
    return "(" + to_string(t.left) + to_string(t.right) + ")"


def parse_tree(s: str) -> BinaryTree:
    pos = 0

    def rec():
        nonlocal pos
        if pos >= len(s):
            raise ValueError("truncated tree string")
        ch = s[pos]
        if ch == "•":
            pos += 1
            return LEAF
        if ch != "(":
            raise ValueError(f"unexpected {ch!r} at {pos}")
        pos += 1
        l = rec()
        r = rec()
        if pos >= len(s) or s[pos] != ")":
            raise ValueError(f"expected ')' at {pos}")
        pos += 1
        return BinaryTree(l, r)

    t = rec()
    if pos != len(s):
        raise ValueError("trailing characters in tree string")
    return t
