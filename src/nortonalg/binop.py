"""Exact parenthesization engine for bilinear operations on a rational vector space.

An operation is x*y = B(x,y) with rational structure constants B.  Two
parenthesizations of x_0 * ... * x_m are the same operation exactly when
they agree on every probe tuple drawn from the standard basis.  The
reference double-minus operation a*b = -a-b is affine, so it is stated as
its homogenization: a 2-dimensional bilinear cube whose slice h = 1 is
a*b = -a-b (double_minus_operation).

All arithmetic is exact and runs in integers through one product step,
_int_product: den * (x*y) on integer rows, batched over any leading
axes.  Probe tensors, exact evaluation and the one-off signatures of
classify are all built from it.  The step runs in int64 whenever
max|x| * max|y| * B <= 2^63 - 1, where B bounds the integer constant
table (B = max_k sum_{i,j} |den C[i][j][k]|); that product dominates
every partial sum of both contractions, so the result is exact.
Otherwise it runs on Python ints, and an array that has left int64 stays
there; a probe tensor, whose entries on unit probes are at most B^n for n
internal nodes, is typed from that bound with no scan (_probe_tensor).
An operation is stored as the step's integer table and nothing
else: the solver and the cache hand it over directly, and the Fraction
constants are a view of it for API callers.  Fractions appear only at the
API edge: evaluate_parenthesization clears the denominators of its
arguments, evaluates in integers and divides once at the end.

Grouping names every tree by its position in enumerate_trees and builds
no tree object.  An operation whose constants fall into two or more
direct-sum blocks is grouped once per distinct block, its classes the
common refinement of the blocks' (direct_product's argument).  On one
block tree t is keyed by den^m t(w_0, ..., w_m) mod 2^64 on fixed
pseudorandom rows w_r, its row of the tree table (_tree_table) kept on the
operation.  A key is a fixed linear form of the probe tensor, by
multilinearity, and reduction mod 2^64 is a ring map, so different keys
prove different maps.  While no lower arity has merged two trees,
pairwise different keys prove arity m all singletons in one array step.
Otherwise the tree of split k with subtrees i and j has the (left class,
right class) pair off_k + rep_k[i] C_{m-1-k} + rep_{m-1-k}[j], itself a
position, and trees with one pair merge by congruence.  Only pairs that
share a key get probe tensors, compared exactly: one contraction of the
pair's two child class tensors, memoized on the operation by (arity,
representative position).  A grouping that merges records every tree's
representative in one integer array per arity on the operation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from math import gcd, lcm

import numpy as np

from .errors import BudgetExceededError
from .intlinalg import abs_max, fits_int64
from .trees import (
    DEFAULT_ENUMERATION_LIMIT,
    LEAF,
    BinaryTree,
    catalan,
    check_arity,
    depth_tuples,
    node,
    tree_index,
)

DEFAULT_FINGERPRINT_BUDGET = 10 ** 6

# Cells of child class tensors memoized per operation; past it, rebuilt.
_TENSOR_CACHE_CELL_CAP = 1 << 24

# C_m, and [m][k] the first position of split k of arity m, up to the limit
_CATALAN = [catalan(m) for m in range(DEFAULT_ENUMERATION_LIMIT + 1)]
_SPLITS = [
    list(accumulate((_CATALAN[k] * _CATALAN[m - 1 - k] for k in range(m)), initial=0))
    for m in range(DEFAULT_ENUMERATION_LIMIT + 1)
]

METHOD_TENSOR = "tensor_exact"
METHOD_DEPTH_MOD2 = "depth_mod2"
METHOD_PATTERN = "pattern_certified"


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class BilinearOperation:
    """Structure constants of x*y = B(x,y), exact rationals.

    constants[i][j][k] is the e_k coefficient of e_i * e_j.  The stored
    form is one integer table: den, the lcm of the reduced denominators,
    and flat, a (dim, dim*dim) array of Python ints with flat[i, j*dim+k] =
    den * C[i][j][k].  Fraction input is converted once here;
    from_int_table takes the table directly.  constants is a Fraction view
    of flat, made on first use for API callers; nothing inside the package
    reads it.
    """

    def __init__(self, constants):
        cube = [[[_frac(c) for c in row] for row in plane] for plane in constants]
        den = lcm(*(c.denominator for plane in cube for row in plane for c in row))
        self._set_table(den, [[[int(c * den) for c in row] for row in plane] for plane in cube])

    @classmethod
    def from_int_table(cls, den, table):
        """The operation with constants table / den.

        table is a dim^3 integer array or nested list and den a nonzero
        integer.  den and every entry are divided by their gcd (negated when
        den < 0), so den ends as the lcm of the reduced denominators.
        """
        op = cls.__new__(cls)
        op._set_table(den, table)
        return op

    def _set_table(self, den, table):
        table = np.asarray(table, dtype=object)
        d = len(table)
        if d == 0:
            raise ValueError("dimension must be positive")
        if table.shape != (d, d, d):
            raise ValueError("structure constants must form a dim^3 cube")
        den = int(den)
        if den == 0:
            raise ValueError("den must be nonzero")
        flat = table.reshape(d, d * d)
        # divide by the content, signed so that den ends positive
        g = gcd(den, *flat.ravel().tolist()) * (1 if den > 0 else -1)
        if g != 1:
            den, flat = den // g, flat // g
        self.den = den
        self.flat = flat
        self._dim = d
        self._flat64 = flat.astype(np.int64) if fits_int64(abs_max(flat)) else None
        # two's complement int64 is the residue mod 2^64
        self._flat_u64 = (
            self._flat64.view(np.uint64) if self._flat64 is not None
            else (flat % (1 << 64)).astype(np.uint64)
        )
        # max_k sum_{i,j} |flat[i, j*d+k]|, the product step's overflow bound
        self._bound = int(np.abs(flat).reshape(d * d, d).sum(axis=0).max())
        self._blocks = None
        self._tensor_cache = {}
        self._tensor_cells = 0
        # (n, o) -> keys of the trees with n internal nodes from row w_o
        self._key_tables = {}
        # m -> representative position of every tree of m internal nodes,
        # held only for the arities where a grouping has merged two trees
        self._reps = {}

    @classmethod
    def zero(cls, dim: int) -> "BilinearOperation":
        return cls.from_int_table(1, np.zeros((dim, dim, dim), dtype=np.int64))

    @property
    def dimension(self) -> int:
        return self._dim

    @property
    def probe_dimension(self) -> int:
        """Dimension of the space probe tuples are drawn from, the dimension."""
        return self._dim

    def _cube(self) -> np.ndarray:
        """flat as the (d, d, d) cube of den * constants."""
        return self.flat.reshape(self._dim, self._dim, self._dim)

    @cached_property
    def constants(self) -> tuple:
        return tuple(
            tuple(tuple(Fraction(x, self.den) for x in row) for row in plane)
            for plane in self._cube().tolist()
        )

    @cached_property
    def is_commutative(self) -> bool:
        """Whether x*y == y*x: the cube is symmetric in i and j."""
        cube = self._cube()
        return bool((cube == cube.transpose(1, 0, 2)).all())

    @cached_property
    def is_zero(self) -> bool:
        """Whether every product vanishes."""
        return not self.flat.any()

    def coefficient(self, i: int, j: int, k: int) -> Fraction:
        return self.constants[i][j][k]

    def apply(self, x, y) -> tuple:
        """Exact product of two coordinate vectors."""
        return evaluate_parenthesization(self, node(LEAF, LEAF), [x, y])


def double_minus_operation() -> BilinearOperation:
    """The double-minus operation a*b = -a-b, homogenized.

    The commutative cube on the basis (e, h) with e*e = 0, e*h = h*e = -e
    and h*h = h: on the slice a*e + h it is (a*e + h)*(b*e + h) =
    (-a-b)*e + h, so vectors (a, 1) multiply as a*b = -a-b.
    """
    return BilinearOperation([[[0, 0], [-1, 0]], [[-1, 0], [0, 1]]])


def evaluate_parenthesization(op: BilinearOperation, t: BinaryTree, args) -> tuple:
    """Evaluate the product shaped by t on the given argument vectors.

    The arguments are scaled by the lcm s of their denominators and
    evaluated in integers; the result is s**(m+1) * den**m times the exact
    value.
    """
    if len(args) != t.leaf_count:
        raise ValueError(f"tree has {t.leaf_count} leaves, got {len(args)} arguments")
    if any(len(x) != op.dimension for x in args):
        raise ValueError(f"expected vectors of length {op.dimension}")
    s, rows = _scaled_rows(args)
    m = t.internal_count
    scale = s ** (m + 1) * op.den ** m
    value = _evaluate_rows(op, t, rows)
    return tuple(Fraction(x, scale) for x in value.tolist())


# ---------------------------------------------------------------------------
# the integer product step


def _scaled_rows(vectors):
    """(s, rows): rational vectors of one length times the lcm s of their
    denominators, an integer array (int64 when every entry fits) with one
    row per vector."""
    fracs = [[_frac(c) for c in v] for v in vectors]
    s = lcm(*(c.denominator for v in fracs for c in v))
    rows = np.array([[int(c * s) for c in v] for v in fracs], dtype=object)
    return s, rows.astype(np.int64) if fits_int64(abs_max(rows)) else rows


def _int_product(op: BilinearOperation, x, y):
    """den * (x*y) for integer rows x, y.

    Leading axes broadcast (matmul does so without copying), so one call
    multiplies a batch of pairs, and shapes (a, 1, p) and (1, b, p) give
    every left row times every right row.  The product runs in int64 when
    x and y are int64 and max|x| * max(max|y|, 1) * bound fits, which
    bounds every partial sum of both contractions; otherwise on Python ints.
    uint64 rows are residues mod 2^64: their product wraps, which is exact
    mod 2^64, and needs no bound.
    """
    flat = op._flat64
    if x.dtype == y.dtype == np.uint64:
        flat = op._flat_u64
    elif not (
        flat is not None
        and x.dtype == y.dtype == np.int64
        and fits_int64(abs_max(x), max(abs_max(y), 1), op._bound)
    ):
        x, y, flat = x.astype(object, copy=False), y.astype(object, copy=False), op.flat
    return _contract(x, y, flat)


def _contract(x, y, flat):
    """The product step on rows x, y and the table flat of their dtype."""
    p = x.shape[-1]
    # (x @ flat)[..., j, k] = sum_i x_i C[i][j][k]; contract with y over j
    return (y[..., None, :] @ (x @ flat).reshape(*x.shape[:-1], p, p))[..., 0, :]


def _evaluate_rows(op: BilinearOperation, t: BinaryTree, rows):
    """den**internal_count(t) times t evaluated on rows[0], rows[1], ... in order.

    rows[r] is leaf r's integer row (or residues mod 2^64, see
    _int_product), or a batch of such rows with equal leading shapes: the
    product step runs row by row, so one pass evaluates the whole batch.
    It serves single trees; _tree_table evaluates every tree of an arity.
    """
    if t.is_leaf:
        return rows[0]
    k = t.left.leaf_count
    left, right = _evaluate_rows(op, t.left, rows[:k]), _evaluate_rows(op, t.right, rows[k:])
    return _int_product(op, left, right)


def _probe_tensor(op: BilinearOperation, m: int, pos: int) -> np.ndarray:
    """Integer tensor of the multilinear probe map of tree pos of arity m.

    Shape (p**(m+1), p); entry [probe, k] is den**m times the k-th output
    coordinate of the parenthesization evaluated at the probe tuple
    (lexicographic order over probe basis indices).  It is one contraction
    of the tensors of its two child classes (_class_tensor), and is not
    memoized itself.

    The dtype is fixed before any product: on unit probes bound**m bounds
    every entry and every partial sum of the product step (a step multiplies
    its factors' bounds by bound), so it runs in int64 when bound**m fits,
    as its subtrees then do, and otherwise on Python ints.
    """
    p = op.dimension
    if m == 0:
        return np.eye(p, dtype=np.int64)
    starts = _SPLITS[m]
    k = bisect_right(starts, pos) - 1
    i, j = divmod(pos - starts[k], _CATALAN[m - 1 - k])  # subtrees of arity k, m-1-k
    l, r = _class_tensor(op, k, i), _class_tensor(op, m - 1 - k, j)
    flat = op._flat64
    if not fits_int64(op._bound ** m):
        l, r, flat = l.astype(object, copy=False), r.astype(object, copy=False), op.flat
    return _contract(l[:, None], r[None], flat).reshape(-1, p)


def _class_tensor(op: BilinearOperation, n: int, i: int) -> np.ndarray:
    """The probe tensor of the class of tree i of arity n, memoized on op under
    (n, its representative in op._reps) within _TENSOR_CACHE_CELL_CAP cells."""
    reps = op._reps.get(n)
    key = (n, i if reps is None else reps.item(i))
    tensor = op._tensor_cache.get(key)
    if tensor is None:
        tensor = _probe_tensor(op, *key)
        if op._tensor_cells + tensor.size <= _TENSOR_CACHE_CELL_CAP:
            op._tensor_cache[key] = tensor
            op._tensor_cells += tensor.size
    return tensor


def _probe_cells(op, m) -> int:
    # p^(m+1) probe tuples, each with a p-entry output row
    return op.dimension ** (m + 2)


def _check_probe_budget(op, m, budget):
    needed = _probe_cells(op, m)
    if needed > budget:
        raise BudgetExceededError("fingerprint", needed, budget)


def _leaf_weights(p: int, leaves: int) -> np.ndarray:
    """(leaves, p) uint64 rows w_r: splitmix64 of 0..leaves*p-1, row by row."""
    z = np.arange(leaves * p, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z.reshape(leaves, p)


def _tree_table(op: BilinearOperation, leaves, tables: dict):
    """(C_m, *batch, p) values den^m t(leaves[0], ..., leaves[m]), enumerate_trees order.

    leaves[r] holds leaf r's integer rows (or residues mod 2^64), shape
    (m+1, *batch, p).  tables maps (n, o) to the values of every tree with n
    internal nodes on the leaves from o, and is kept across calls only for
    leaves that do not depend on m.  Its missing entries with n + o <= m are
    filled, lowest n first: table[0, o] is leaves[o], and table[n, o] joins,
    over splits k = 0..n-1, every row of table[k, o] times every row of
    table[n-1-k, o+k+1], left index major as in enumerate_trees.
    """
    m = len(leaves) - 1
    if (m, 0) not in tables:
        for o in range(m + 1):
            tables.setdefault((0, o), leaves[o : o + 1])
        for n in range(1, m + 1):
            for o in range(m - n + 1):
                if (n, o) not in tables:
                    tables[n, o] = np.concatenate([
                        _int_product(
                            op, tables[k, o][:, None], tables[n - 1 - k, o + k + 1][None]
                        ).reshape(-1, *leaves.shape[1:])
                        for k in range(n)
                    ])
    return tables[m, 0]


def _key_table(op: BilinearOperation, m: int) -> np.ndarray:
    """(C_m, p) uint64 keys den^m t(w_0, ..., w_m) mod 2^64, enumerate_trees
    order: the tree table on the rows w_r, kept on the operation."""
    if (m, 0) not in op._key_tables:  # skip the weights once the table is kept
        _tree_table(op, _leaf_weights(op.dimension, m + 1), op._key_tables)
    return op._key_tables[m, 0]


def tensor_fingerprint(
    op: BilinearOperation, t: BinaryTree, budget: int = DEFAULT_FINGERPRINT_BUDGET
) -> tuple:
    """Exact rational fingerprint of the parenthesization shaped by t.

    Concatenates, in lexicographic order of probe basis tuples, the output
    vectors of the parenthesization.  Two trees with the same number of leaves
    get equal fingerprints exactly when their parenthesizations are equal as
    maps.  Trees past enumerate_trees' limit are refused.
    """
    m = t.internal_count
    _check_probe_budget(op, m, budget)
    check_arity(m)
    tensor = _probe_tensor(op, m, tree_index(t))
    return tuple(Fraction(v, op.den**m) for v in tensor.reshape(-1).tolist())


# ---------------------------------------------------------------------------
# equivalence reports


@dataclass(frozen=True)
class EquivalenceReport:
    """Partition of the canonical tree list at one arity into equal-map classes."""

    m: int
    method: str
    classes: tuple
    merge_justifications: tuple | None = None

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def to_json_dict(self) -> dict:
        d = {
            "m": self.m,
            "method": self.method,
            "class_count": self.class_count,
            "classes": [list(c) for c in self.classes],
        }
        if self.merge_justifications is not None:
            d["merge_justifications"] = list(self.merge_justifications)
        return d


def _make_report(m, method, groups, justifications=None) -> EquivalenceReport:
    """The report of groups, lists of ascending indices into
    enumerate_trees(m) as every grouping here builds them, ordered by first
    index, with their justifications in the same order."""
    cm = catalan(m)
    # one mark per tree: cm indices, all in range and all marked, are a partition
    covered = np.fromiter(chain.from_iterable(groups), dtype=np.int64)
    marks = np.zeros(cm, dtype=bool)
    if len(covered) == cm and ((covered >= 0) & (covered < cm)).all():
        marks[covered] = True
    if not marks.all():
        raise ValueError("classes do not partition the tree list")
    if not 1 <= len(groups) <= cm:
        raise ValueError("class count out of range")
    order = sorted(range(len(groups)), key=lambda i: groups[i][0])
    classes = tuple(tuple(groups[i]) for i in order)
    if justifications is not None:
        justifications = tuple(justifications[i] for i in order)
    return EquivalenceReport(m, method, classes, justifications)


def _blocks(op: BilinearOperation) -> tuple:
    """The distinct direct-sum blocks of op as operations, or (op,) if none.

    Basis indices i, j and k are joined whenever den C[i][j][k] != 0.  Each
    connected component then spans an ideal and products across components
    vanish, so a tree's value is the sum of its values on the components
    (direct_product's argument): two trees are equal on op exactly when they
    are equal on every block, and blocks whose sub-cubes agree in index
    order partition alike.  Cached on op.
    """
    if op._blocks is None:
        op._blocks = _split(op)
    return op._blocks


def _split(op: BilinearOperation) -> tuple:
    # link i, j and k of every nonzero den C[i][j][k]; ceil(log2 d) boolean
    # squarings close the links into the connected components, keyed here
    # by their smallest index
    d = op.dimension
    i, jk = np.nonzero(op.flat)
    j, k = np.divmod(jk, d)
    link = np.eye(d, dtype=bool)
    for a, b in ((i, j), (i, k), (j, k)):
        link[a, b] = link[b, a] = True
    for _ in range((d - 1).bit_length()):
        link = link @ link
    components = {}
    for x, first in enumerate(link.argmax(axis=1).tolist()):
        components.setdefault(first, []).append(x)
    if len(components) == 1:
        return (op,)
    cube = op._cube()
    distinct = {}
    for idx in components.values():
        sub = cube[np.ix_(idx, idx, idx)]
        key = tuple(sub.ravel().tolist())
        if key not in distinct:
            distinct[key] = BilinearOperation.from_int_table(op.den, sub)
    return tuple(distinct.values())


def group_trees_by_fingerprint(op: BilinearOperation, trees, budget=DEFAULT_FINGERPRINT_BUDGET):
    """Group an explicit tree list (all of one arity) by exact fingerprint.

    Returns a list of index lists in first-seen order.  The budget is
    checked on op itself and on nothing else.  A zero operation is one
    class.  An op with two or more direct-sum blocks (see _blocks) is
    grouped once per distinct block, and trees with equal tuples of block
    class ids form one class.  Otherwise _group_connected merges trees by
    their child classes and builds probe tensors only where keys collide.
    """
    if not trees:
        return []
    m = trees[0].internal_count
    if any(t.internal_count != m for t in trees):
        raise ValueError("all trees must have the same number of internal nodes")
    _check_probe_budget(op, m, budget)
    return _group(op, m, [tree_index(t) for t in trees])


def _group(op: BilinearOperation, m: int, positions) -> list:
    """group_trees_by_fingerprint on the trees of arity m at positions, with
    the budget already checked."""
    if op.is_zero:
        return [list(range(len(positions)))]
    blocks = _blocks(op)
    if blocks == (op,):
        return _group_connected(op, m, positions)
    groupings = [_group(b, m, positions) for b in blocks]
    if len(groupings) == 1:  # copies of one block partition as it does
        return groupings[0]
    by_ids = {}
    for idx, ids in enumerate(zip(*map(_class_ids, groupings))):
        by_ids.setdefault(ids, []).append(idx)
    return list(by_ids.values())


def _class_ids(groups) -> list:
    ids = [0] * sum(map(len, groups))
    for n, group in enumerate(groups):
        for idx in group:
            ids[idx] = n
    return ids


def _group_connected(op: BilinearOperation, m: int, positions) -> list:
    """Exact grouping on one operation, proving merges by children or tensors.

    Returns the groups ordered by first index, each ascending.  Pairwise
    different keys make every tree a class of its own in one step, tried
    only while no lower arity holds a recorded merge: a merge below gives
    two trees of arity m equal maps, so their keys could not differ.
    Otherwise trees join by their child pairs (_child_pairs); a pair alone
    with its key is a class of its own, and the pairs of a shared key build
    their tensors and are split by exact equality, those tensors dropped
    before the next key.  A grouping that merges two positions records
    every tree's representative in op._reps[m].  Arities past
    enumerate_trees' limit are refused.
    """
    check_arity(m)
    pos = np.asarray(positions, dtype=np.int64)
    if m == 0:  # every tree is the leaf
        return [list(range(len(pos)))]
    keys = _key_table(op, m)[pos]
    if all(n >= m for n in op._reps) and _distinct_rows(keys):
        return [[idx] for idx in range(len(pos))]
    # pair groups, each named by its first index
    pairs, first, pair_of = np.unique(_child_pairs(op, m, pos), return_index=True, return_inverse=True)
    rows, names, pairs = keys[first].tolist(), first.tolist(), pairs.tolist()
    by_key = {}
    for g in np.argsort(first).tolist():
        by_key.setdefault(tuple(rows[g]), []).append(g)
    label = first.copy()  # each pair group's class, named by its first index
    for same_key in by_key.values():
        if len(same_key) == 1:
            continue
        heads = []  # (tensor, name) of the classes of this key
        for g in same_key:
            tensor = _probe_tensor(op, m, pairs[g])
            for head, name in heads:
                if np.array_equal(head, tensor):
                    label[g] = name
                    break
            else:
                heads.append((tensor, names[g]))
    labels = label[pair_of]
    order = np.argsort(labels, kind="stable")
    cuts = (np.flatnonzero(np.diff(labels[order])) + 1).tolist()
    order = order.tolist()
    groups = [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(order)])]
    heads_pos = pos[labels]
    reps = op._reps.get(m)
    if reps is None and (heads_pos != pos).any():
        reps = op._reps[m] = np.arange(catalan(m))
    if reps is not None:
        reps[pos] = reps[heads_pos]
    return groups


def _distinct_rows(rows) -> bool:
    """Whether the rows of a 2-d array are pairwise different: at once when
    their first entries are, else by comparing whole rows."""
    column = np.sort(rows[:, 0])
    if (column[1:] != column[:-1]).all():
        return True
    return len(set(map(tuple, rows.tolist()))) == len(rows)


def _child_pairs(op: BilinearOperation, m: int, pos) -> np.ndarray:
    """The (left class, right class) pair of each tree at pos, as a position.

    In enumerate_trees(m), split k holds the trees off_k + i C_{m-1-k} + j
    whose subtrees are tree i of arity k and tree j of arity m-1-k, so the
    pair is the tree of their representatives, off_k + rep_k[i] C_{m-1-k} +
    rep_{m-1-k}[j].  An arity with no record in op._reps is its own
    representatives.
    """
    cat = np.array(_CATALAN[:m])
    starts = np.array(_SPLITS[m])  # off_k
    k = np.searchsorted(starts, pos, side="right") - 1
    width = cat[m - 1 - k]
    i, j = np.divmod(pos - starts[k], width)
    # every lower arity's representatives in one array, arity n from base[n]
    base = np.concatenate(([0], np.cumsum(cat)))
    reps = np.concatenate([
        op._reps[n] if n in op._reps else np.arange(c) for n, c in enumerate(cat.tolist())
    ])
    return starts[k] + reps[base[k] + i] * width + reps[base[m - 1 - k] + j]


def count_classes_exact(
    op: BilinearOperation, m: int, budget: int = DEFAULT_FINGERPRINT_BUDGET
) -> EquivalenceReport:
    """Partition the C_m parenthesizations of m+1 factors by exact equality.

    Groups as group_trees_by_fingerprint, on the enumeration's own positions:
    the budget applies to every operation, and a zero operation is one class.
    """
    check_arity(m)
    _check_probe_budget(op, m, budget)
    return _make_report(m, METHOD_TENSOR, _group(op, m, np.arange(catalan(m))))


def double_minus_classes(m: int) -> EquivalenceReport:
    """Classes of the double-minus operation: group by depth sequence mod 2."""
    groups = {}
    for idx, depths in enumerate(depth_tuples(m)):
        groups.setdefault(tuple(d & 1 for d in depths), []).append(idx)
    return _make_report(m, METHOD_DEPTH_MOD2, list(groups.values()))


def a000975_value(m: int) -> int:
    """floor(2^(m+1)/3): 1, 2, 5, 10, 21, 42, 85, ... for m = 1, 2, 3, ...

    Only defined here for m >= 1; the m = 0 count of any operation is 1 for
    the trivial reason that there is a single one-leaf tree.
    """
    if m < 1:
        raise ValueError("a000975_value requires m >= 1")
    return (2 ** (m + 1)) // 3


def direct_product(op1: BilinearOperation, op2: BilinearOperation) -> BilinearOperation:
    """Componentwise operation on the direct sum of the two spaces.

    Basis vectors from different factors multiply to zero, so a tree evaluated
    on the product is the pair of its evaluations on the factors; classes of
    the product partition is the common refinement of the factor partitions.
    The integer tables are put over the lcm of the two dens.
    """
    d1, d = op1.dimension, op1.dimension + op2.dimension
    den = lcm(op1.den, op2.den)
    cube = np.zeros((d, d, d), dtype=object)
    for op, at in ((op1, slice(0, d1)), (op2, slice(d1, d))):
        cube[at, at, at] = op._cube() * (den // op.den)
    return BilinearOperation.from_int_table(den, cube)
