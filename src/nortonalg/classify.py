"""Nonassociativity counts and the three-way classification of family algebras.

The number of distinct maps among the C_m parenthesizations of x_0 * ... * x_m
lands in exactly one of three regimes: a single class (the product is
associative, in fact zero), the A000975 pattern 1, 2, 5, 10, 21, ... (trees
merge exactly when their depth sequences agree mod 2), or all C_m classes
(totally nonassociative).  Counting uses either exact probe tensors or the
much cheaper one-off pattern: evaluate each tree on assignments that place a
distinguished vector at one position and a second one everywhere else.
Differing one-off results certify distinctness outright; merges are justified
by full fingerprints when affordable and otherwise by the mod-2 criterion,
which only the A000975 branch may invoke.  Fingerprint merges go through
binop's grouping, which compares the exact probe tensors of trees whose
keys agree, so the tensor and pattern strategies share one exact check.

One-off values are integers from binop's tree table on one batched leaf
layout: leaf r is an (m+1) x p block with the distinguished vector u in
row r and the second vector v in the others, so one table gives all m+1
values of every tree of an arity.  When the operation is commutative and
v * v = mu v exactly, the value with u at leaf r depends only on the depth
of that leaf (the coefficient lemma): the m+1 values of one arity, one
per depth, come from a chain of m products kept on the algebra.  A full
binary tree is determined by its leaf depth sequence, so when those m+1
depth rows are pairwise distinct, all C_m classes are singletons, proved
with no tree enumerated.  When two rows agree (the zero operation, the
A000975 branch) each tree is keyed by its depth sequence mapped through
the rows, and when mu is unproved by its row of the table; the merges
are then justified as above.  Values stay in int64 while binop's
overflow bound allows and move to Python integers past it.

The lemma's closed forms are checked against one integer chain of left
combs (_lemma_chain), so every one-off value comes from the tree table or
a depth chain, and Fractions appear only in the coefficients returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .binop import (
    DEFAULT_FINGERPRINT_BUDGET,
    METHOD_PATTERN,
    BilinearOperation,
    EquivalenceReport,
    _check_probe_budget,
    _group,
    _int_product,
    _make_report,
    _probe_cells,
    _tree_table,
    a000975_value,
    count_classes_exact,
    double_minus_classes,
)
from .errors import ConstructionError
from .graphs import (
    DualPolarFamily,
    GrassmannFamily,
    GraphInstance,
    HammingFamily,
    JohnsonFamily,
    distance_row,
)
from .intlinalg import abs_max, fits_int64
from .norton import NortonAlgebra, OracleProducts, family_constants
from .spectral import SpectralData
from .trees import catalan, depth_tuples, enumerate_trees

BRANCH_ASSOCIATIVE = "associative"
BRANCH_A000975 = "a000975"
BRANCH_TOTALLY = "totally_nonassociative"

JUSTIFY_SIGNATURE = "signature-distinct"
JUSTIFY_FINGERPRINT = "fingerprint-verified"
JUSTIFY_THEOREM = "mod2-theorem"
JUSTIFY_ZERO = "zero-operation"


def predicted_branch(family) -> str:
    """Which of the three regimes the family parameters select."""
    if isinstance(family, JohnsonFamily):
        if family.n == 2 * family.k:
            return BRANCH_ASSOCIATIVE
        if (family.n, family.k) == (3, 1):
            return BRANCH_A000975
        return BRANCH_TOTALLY
    if isinstance(family, GrassmannFamily):
        return BRANCH_TOTALLY
    if isinstance(family, HammingFamily):
        if family.e == 2:
            return BRANCH_ASSOCIATIVE
        if family.e == 3:
            return BRANCH_A000975
        return BRANCH_TOTALLY
    if isinstance(family, DualPolarFamily):
        if (family.kind, family.d, family.q) == ("D", 2, 2):
            return BRANCH_A000975
        return BRANCH_TOTALLY
    raise ValueError(f"no classification for {family!r}")


def expected_class_count(branch: str, m: int) -> int:
    """Predicted number of classes at arity m + 1 for one branch."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if branch not in (BRANCH_ASSOCIATIVE, BRANCH_A000975, BRANCH_TOTALLY):
        raise ValueError(f"unknown branch {branch!r}")
    if m == 0 or branch == BRANCH_ASSOCIATIVE:
        return 1
    return a000975_value(m) if branch == BRANCH_A000975 else catalan(m)


# ---------------------------------------------------------------------------
# one-off evaluations


def _one_off_proof(alg: NortonAlgebra):
    """(pair, mu, s), proved once per algebra and kept on it.

    pair holds the preferred pair u, v scaled by the lcm s of their
    denominators, as integer rows (NortonAlgebra.one_off_rows).  mu is an
    integer with den (v * v) == mu v exactly when the operation is
    commutative and such an integer exists, and None otherwise.
    """
    if alg.one_off_proof is None:
        op = alg.operation
        s, pair = alg.one_off_rows()
        pair = pair.astype(np.int64) if fits_int64(abs_max(pair)) else pair
        mu = None
        if op.is_commutative:
            v = pair[1:]
            vv = _int_product(op, v, v)[0].tolist()
            v_list = v[0].tolist()
            lead = next((i for i, x in enumerate(v_list) if x), None)
            mu = 0 if lead is None else vv[lead] // v_list[lead]
            if vv != [mu * x for x in v_list]:
                mu = None
        alg.one_off_proof = (pair, mu, s)
    return alg.one_off_proof


def _depth_rows(alg: NortonAlgebra, m: int):
    """The one-off row at each leaf depth h = 0..m, or None when unproved.

    With u, v and mu from _one_off_proof, every all-v subtree with k leaves
    is mu^(k-1) v whatever its shape, and the leaf holding u at depth h
    meets one all-v sibling per ancestor, in either order; the siblings
    hold the other m leaves.  So its one-off value is mu^(m-h) a_h, with
    a_0 = u and a_{h+1} = den (a_h * v): the value depends only on the depth
    of the leaf (the coefficient lemma), and carries the s^(m+1) den^m
    scaling of _one_off_signatures.  The chain a_h does not depend on m, so
    it is kept on the algebra (depth_chain) and extended only past the
    largest m asked so far: rows up to m_max cost m_max products in all.
    """
    pair, mu, _ = _one_off_proof(alg)
    if mu is None:
        return None
    if alg.depth_chain is None:
        alg.depth_chain = [pair[:1]]
    chain = alg.depth_chain
    while len(chain) <= m:
        chain.append(_int_product(alg.operation, chain[-1], pair[1:]))
    return [tuple(mu ** (m - h) * x for x in chain[h][0].tolist()) for h in range(m + 1)]


def _one_off_leaves(pair, m: int):
    """The (m+1, m+1, p) one-off layout: leaf r holds u in row r, v elsewhere."""
    leaves = np.tile(pair[1], (m + 1, m + 1, 1))
    leaves[range(m + 1), range(m + 1)] = pair[0]
    return leaves


def _one_off_signatures(op: BilinearOperation, pair, m: int):
    """(C_m, m+1, p): [i, r] is den^m times enumerate_trees(m)[i] with u at
    leaf r and v elsewhere, the tree table on the one-off layout."""
    return _tree_table(op, _one_off_leaves(pair, m), {})


def _theorem_justification(alg: NortonAlgebra, holds, failure: str):
    """What justifies merging trees the one-off pattern cannot separate, or None.

    zero-operation when every product vanishes; mod2-theorem on the A000975
    branch once holds() confirms that the merges follow the mod-2 depth
    sequences, and a ConstructionError naming failure when it does not;
    None on the other branches and for a family with no prediction.
    """
    if alg.operation.is_zero:
        return JUSTIFY_ZERO
    try:
        branch = predicted_branch(alg.family)
    except ValueError:  # no prediction for this family
        return None
    if branch != BRANCH_A000975:
        return None
    if not holds():
        raise ConstructionError(f"{alg.label()}: {failure}")
    return JUSTIFY_THEOREM


def count_norton_classes(
    alg: NortonAlgebra,
    m: int,
    strategy: str = "auto",
    budget: int = DEFAULT_FINGERPRINT_BUDGET,
) -> EquivalenceReport:
    """Partition the arity-(m+1) parenthesizations of a Norton algebra.

    tensor: exact probe-tensor grouping (cost dim^(m+2)).  pattern: when the
    m+1 depth rows are proved (_depth_rows) and pairwise distinct, every
    tree is its own class, with no tree enumerated.  Otherwise group by
    one-off signatures, then justify every merge, by full fingerprints when
    the budget allows and otherwise by the mod-2 criterion (A000975 branch)
    or triviality (zero operation); an unjustifiable merge raises.  auto
    picks tensor whenever it fits the budget.
    """
    op = alg.operation
    affordable = _probe_cells(op, m) <= budget
    if strategy == "auto":
        strategy = "tensor" if affordable else "pattern"
    if strategy == "tensor":
        return count_classes_exact(op, m, budget=budget)
    if strategy != "pattern":
        raise ValueError(f"unknown strategy {strategy!r}")

    rows = _depth_rows(alg, m)
    if rows is not None and len(set(rows)) == len(rows):
        # leaf r's value is rows[depth of leaf r], and a tree is determined by
        # its leaf depths: distinct rows give every tree its own signature
        n = catalan(m)
        classes = tuple((i,) for i in range(n))
        return EquivalenceReport(m, METHOD_PATTERN, classes, (JUSTIFY_SIGNATURE,) * n)
    if rows is None:
        # one row of one-off values per tree, in enumerate_trees order
        signatures = _one_off_signatures(op, _one_off_proof(alg)[0], m)
        keys = map(tuple, signatures.reshape(len(signatures), -1).tolist())
    else:
        # equal rows share an id, so equal id tuples are equal signatures
        first = {}
        ids = [first.setdefault(row, len(first)) for row in rows]
        keys = (tuple(map(ids.__getitem__, d)) for d in depth_tuples(m))
    by_signature = {}
    for idx, key in enumerate(keys):
        by_signature.setdefault(key, []).append(idx)

    groups = []
    justifications = []
    theorem = None  # a merge's justification past the budget, found once
    for idxs in by_signature.values():
        if len(idxs) == 1:
            groups.append(idxs)
            justifications.append(JUSTIFY_SIGNATURE)
            continue
        if affordable:
            # affordable proved the budget, and idxs are positions of arity m
            for sub in _group(op, m, idxs):
                groups.append([idxs[j] for j in sub])
                justifications.append(JUSTIFY_FINGERPRINT)
            continue
        if theorem is None:
            theorem = _theorem_justification(
                alg,
                lambda: {frozenset(g) for g in by_signature.values()}
                == {frozenset(c) for c in double_minus_classes(m).classes},
                f"one-off signatures contradict the mod-2 criterion at m={m}",
            )
            if theorem is None:
                _check_probe_budget(op, m, budget)  # not affordable, so it raises
        groups.append(idxs)
        justifications.append(theorem)
    return _make_report(m, METHOD_PATTERN, groups, justifications)


# ---------------------------------------------------------------------------
# coefficient lemmas


@dataclass(frozen=True)
class CoefficientRow:
    """Exact one-off coefficients at depth h: value = alpha*u + beta*v
    (+ gamma * sum over the line through the pair, Grassmann only)."""

    h: int
    alpha: Fraction
    beta: Fraction
    gamma: Fraction | None = None


@dataclass(frozen=True)
class CoefficientTable:
    family: object
    c: Fraction
    b: Fraction | None
    b_prime: Fraction | None
    rows: tuple

    def row(self, h: int) -> CoefficientRow:
        if not 1 <= h <= len(self.rows):
            raise ValueError(f"depth {h} is outside 1..{len(self.rows)}")
        return self.rows[h - 1]


def _lemma_chain(alg: NortonAlgebra, h_max: int):
    """(s, rows, chain): the lemma pair u, v and its left combs in integers.

    rows is s times u, v and the sum of the points on the pair's line (zero
    when it has none), int64 when it fits.  u, v are the preferred pair over
    "diagonal" (u * u = diagonal u; Hamming only, else 1), so v * v = v.
    chain[h] = s^(h+1) den^h times the left comb of depth h on u, v, by the
    recurrence of _depth_rows: chain[h+1] = den (chain[h] * s v).
    """
    con = family_constants(alg.family)
    if con.get("zero_product"):
        raise ValueError("zero product: no coefficient lemma")
    scale = 1 / Fraction(con.get("diagonal", 1))
    pair = alg.coords[[alg.points.index(w) for w in alg.one_off]] * scale.numerator
    line = alg.coords[[alg.points.index(w) for w in alg.one_off_line]].sum(axis=0)
    rows = np.vstack([pair, line * scale.denominator])
    den = alg.coords_den * scale.denominator
    unit = gcd(den, *rows.ravel().tolist())
    s, rows = den // unit, rows // unit
    rows = rows.astype(np.int64) if fits_int64(abs_max(rows)) else rows
    chain = [rows[:1]]
    for _ in range(h_max):
        chain.append(_int_product(alg.operation, chain[-1], rows[1:2]))
    return s, rows, chain


def pattern_coefficients(alg: NortonAlgebra, h: int) -> CoefficientRow:
    """Closed-form one-off coefficients at depth h, cross-checked directly.

    alpha(h) = c^h always; beta(h) = c + ... + c^h except over Grassmann,
    where beta has no closed form and is measured from the evaluation while
    gamma(h) = ((qb+c)^h - c^h)/q is checked against it.  The cross-check
    demands exact agreement with the left comb of depth h on the lemma
    pair, chain[h] of _lemma_chain, in integers.
    """
    if h < 1:
        raise ValueError("depth must be at least 1")
    s, rows, chain = _lemma_chain(alg, h)
    u, v, line = rows.astype(object)
    direct = chain[h][0].astype(object)
    k = (s * alg.operation.den) ** h
    con = family_constants(alg.family)
    c = con["c"]
    alpha = c ** h
    if isinstance(alg.family, GrassmannFamily):
        q = alg.family.q
        gamma = ((q * con["b"] + c) ** h - c ** h) / q
        d = alpha.denominator * gamma.denominator
        # d k beta v, if the lemma holds
        residual = d * direct - k * (int(d * alpha) * u + int(d * gamma) * line)
        lead = np.flatnonzero(v)
        beta = Fraction(residual[lead[0]], d * k * v[lead[0]]) if lead.size else Fraction(0)
        if (residual * beta.denominator != beta.numerator * d * k * v).any():
            raise ConstructionError(
                f"{alg.label()}: one-off residual at depth {h} is not a "
                "multiple of the second lemma vector"
            )
        return CoefficientRow(h, alpha, beta, gamma)
    beta = sum(c ** j for j in range(1, h + 1))
    d = alpha.denominator * beta.denominator
    if (d * direct != k * (int(d * alpha) * u + int(d * beta) * v)).any():
        raise ConstructionError(
            f"{alg.label()}: depth-{h} one-off evaluation disagrees with "
            "the closed form"
        )
    return CoefficientRow(h, alpha, beta)


def coefficient_table(alg: NortonAlgebra, h_max: int) -> CoefficientTable:
    con = family_constants(alg.family)
    if con.get("zero_product"):
        raise ValueError("zero product: no coefficient lemma")
    return CoefficientTable(
        family=alg.family,
        c=con["c"],
        b=con.get("b"),
        b_prime=con.get("b_prime"),
        rows=tuple(pattern_coefficients(alg, h) for h in range(1, h_max + 1)),
    )


def verify_pattern_lemma(alg: NortonAlgebra, m_max: int) -> int:
    """Check the coefficient lemma on every tree and position up to m_max.

    v * v = v on the lemma pair makes every all-v sibling a single v, so
    with u at depth h every tree's one-off value is the left comb of depth
    h.  Each arity's one-off table is compared in integers with the chain
    rows of _lemma_chain gathered by leaf depth, scaled by (s den)^(m-h), and
    the first failure in enumeration order is reported; then the closed
    form at depth m is checked.  Returns the number of identities checked.
    """
    s, rows, chain = _lemma_chain(alg, m_max)
    op = alg.operation
    scale = s * op.den
    checked = 0
    for m in range(1, m_max + 1):
        at = np.array(depth_tuples(m))  # each leaf's depth
        want = np.array([chain[h][0].astype(object) * scale ** (m - h) for h in range(m + 1)])
        bad = (_one_off_signatures(op, rows[:2], m) != want[at]).any(axis=-1)
        if bad.any():
            i, r = np.argwhere(bad)[0].tolist()
            raise ConstructionError(
                f"{alg.label()}: lemma fails on tree {enumerate_trees(m)[i]!r} at "
                f"position {r} (depth {at[i, r]})"
            )
        checked += bad.size
        pattern_coefficients(alg, m)
    return checked


# ---------------------------------------------------------------------------
# the classification theorem


@dataclass(frozen=True)
class ClassificationVerdict:
    """Observed class counts against the branch prediction, m = 0..m_max."""

    instance: str
    branch: str
    m_values: tuple
    counts: tuple
    expected: tuple
    methods: tuple
    passed: bool
    failures: tuple

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance,
            "branch": self.branch,
            "m_values": list(self.m_values),
            "counts": list(self.counts),
            "expected": list(self.expected),
            "methods": list(self.methods),
            "passed": self.passed,
            "failures": [list(f) for f in self.failures],
        }


def verify_classification(
    alg: NortonAlgebra,
    m_max: int,
    strategy: str = "auto",
    budget: int = DEFAULT_FINGERPRINT_BUDGET,
) -> ClassificationVerdict:
    """Compare observed class counts with the three-way prediction.

    Also pins the distinguishing constant of the branch: the associative
    instances carry the zero product, the A000975 instances have c = -1, and
    the totally nonassociative ones have c different from 0 and +-1.  Count
    mismatches produce a failing verdict rather than an exception.
    """
    branch = predicted_branch(alg.family)
    con = family_constants(alg.family)
    if branch == BRANCH_ASSOCIATIVE:
        pinned = con.get("zero_product") and alg.operation.is_zero
    elif branch == BRANCH_A000975:
        pinned = con.get("c") == -1
    else:
        pinned = con.get("c") not in (None, -1, 0, 1) and not alg.operation.is_zero
    if not pinned:
        raise ConstructionError(
            f"{alg.label()}: constants {con} contradict the {branch} branch"
        )
    m_values = tuple(range(m_max + 1))
    # keep only count and method: a totally nonassociative report at m = 12
    # holds C_12 = 208012 singleton classes
    counts, methods = [], []
    for m in m_values:
        rep = count_norton_classes(alg, m, strategy=strategy, budget=budget)
        counts.append(rep.class_count)
        methods.append(rep.method)
    expected = tuple(expected_class_count(branch, m) for m in m_values)
    failures = tuple(
        (m, got, want)
        for m, got, want in zip(m_values, counts, expected)
        if got != want
    )
    return ClassificationVerdict(
        instance=alg.label(),
        branch=branch,
        m_values=m_values,
        counts=tuple(counts),
        expected=expected,
        methods=tuple(methods),
        passed=not failures,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# the exceptional coincidence


def d22_hamming_aligned_operation(
    g: GraphInstance, spectral: SpectralData
) -> BilinearOperation:
    """The bipartite dual polar algebra in coordinates matching H(2,3).

    Splits the six vertices into the two parts of the bipartition, takes the
    centered vertex indicators of the first two vertices of each part as a
    basis, and expands oracle products over it.  The resulting cube is
    identical to the H(2,3) structure constants: each part behaves like one
    coordinate of the Hamming word.
    """
    fam = g.family
    if not (
        isinstance(fam, DualPolarFamily)
        and (fam.kind, fam.d, fam.q) == ("D", 2, 2)
    ):
        raise ValueError("alignment is specific to the bipartite instance D2(2)")
    # the centered indicator of vertex a in its part of three is e_a minus
    # a third of the part: over scale 3, 3 e_a minus the part's indicator
    side = distance_row(g, 0) % 2
    basis = np.concatenate([np.flatnonzero(side == p)[:2] for p in (0, 1)])
    rows = 3 * np.eye(g.vertex_count, dtype=np.int64)[basis] - (side[basis, None] == side)
    products = OracleProducts.of_rows(g, spectral, range(len(basis)), rows, 3)
    if not products.fixed.all():
        raise ConstructionError("aligned basis vectors leave V_1")
    op = products.expand(range(len(basis)))[3]
    if not op.is_commutative:
        raise ConstructionError("aligned structure constants are not commutative")
    return op
