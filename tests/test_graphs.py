"""Graph families: construction, distance laws, lattices, distance regularity."""

import ast
import dataclasses
import itertools
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from nortonalg import fq, graphs, intlinalg
from nortonalg.errors import (
    BudgetExceededError,
    ConstructionError,
    NotDistanceRegularError,
    NotPathMetricError,
)
from nortonalg.graphs import (
    TOP,
    DualPolarFamily,
    GrassmannFamily,
    HammingFamily,
    JohnsonFamily,
    build_dual_polar,
    build_grassmann,
    build_hamming,
    build_johnson,
    check_distance_regular,
    dual_polar_vertex_count,
    graph_from_distance_matrix,
    q_binomial,
    q_int,
)
from nortonalg.intlinalg import is_prime
from conftest import BUILDERS, run_optimized
from test_spectral import cycle, petersen


def _bfs_all_pairs(dist):
    """Graph distances from the adjacency relation dist == 1 (independent oracle)."""
    n = dist.shape[0]
    adj = [list(np.nonzero(dist[i] == 1)[0]) for i in range(n)]
    out = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        out[s, s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if out[s, v] < 0:
                        out[s, v] = d
                        nxt.append(v)
            frontier = nxt
    return out


def span_vectors(rref_rows, q):
    """Every vector of the row space over Z/q (q^dim of them), in no particular order."""
    n = len(rref_rows[0]) if rref_rows else 0
    vecs = [(0,) * n]
    for row in rref_rows:
        vecs = [
            tuple((x + c * y) % q for x, y in zip(v, row))
            for v in vecs
            for c in range(q)
        ]
    return vecs


# ---------------------------------------------------------------------------
# q-integers


def test_q_int_values():
    assert q_int(0, 2) == 0
    assert q_int(2, 2) == 3
    assert q_int(4, 2) == 15
    assert q_int(2, 3) == 4
    assert q_int(3, 3) == 13


def test_q_binomial_against_subspace_enumeration():
    # oracle: count the enumerated rref matrices directly
    for q in (2, 3):
        for n in range(5):
            levels = graphs._subspace_levels(n, n, q)
            for k in range(n + 1):
                assert len(levels[k]) == q_binomial(n, k, q)
    assert q_binomial(4, 2, 2) == 35
    assert q_binomial(4, 2, 3) == 130
    assert q_binomial(4, 1, 2) == 15


def _brute_force_levels(n, top, q, polar=None, quad=None):
    """Levels 0..top as the rref of every j-set of vectors spanning a j-space,
    kept when every vector of the span is singular (for a symplectic form,
    with quad None: when every pair of them is orthogonal).  Spanning sets
    are drawn from the singular vectors only, since a totally isotropic
    space consists of them."""
    vectors = [
        v
        for v in itertools.product(range(q), repeat=n)
        if any(v) and (quad is None or quad(v) % q == 0)
    ]
    levels = []
    for j in range(top + 1):
        found = set()
        for rows in itertools.combinations(vectors, j):
            r = fq.rref(rows, q)
            if len(r) != j or r in found:
                continue
            span = span_vectors(r, q) if r else []
            if polar is None:
                found.add(r)
            elif quad is not None:
                if all(quad(u) % q == 0 for u in span):
                    found.add(r)
            elif all(polar(u, v) % q == 0 for u in span for v in span):
                found.add(r)
        levels.append(tuple(sorted(found)))
    return levels


@pytest.mark.parametrize(
    "n, top, q, kind, d",
    [
        (2, 2, 2, None, None),
        (3, 3, 2, None, None),
        (4, 4, 2, None, None),
        (2, 2, 3, None, None),
        (3, 3, 3, None, None),
        (None, 3, 2, "C", 2),
        (None, 3, 2, "B", 2),
        (None, 3, 2, "D", 2),
        (None, 3, 2, "Dplus", 2),
        (None, 3, 3, "D", 2),
    ],
    ids=["F_2^2", "F_2^3", "F_2^4", "F_3^2", "F_3^3", "C_2(2)", "B_2(2)", "D_2(2)",
         "D_3(2)^+", "D_2(3)"],
)
def test_subspace_levels_match_brute_force(n, top, q, kind, d):
    # every level in full and in order, dual polar ones one past d (empty)
    polar = quad = None
    if kind is not None:
        n, polar, quad = graphs._dual_polar_form(kind, d, q)
    want = _brute_force_levels(n, top, q, polar, quad)
    assert graphs._subspace_levels(n, top, q, polar, quad) == want
    if kind is not None:
        assert want[d + 1] == () and len(want[d]) == dual_polar_vertex_count(kind, d, q)


# ---------------------------------------------------------------------------
# fq helpers


def test_fq_rref_is_canonical():
    rows = ((1, 1, 0), (0, 1, 1))
    r1 = fq.rref(rows, 2)
    r2 = fq.rref((r1[1], r1[0]), 2)
    assert r1 == r2 == fq.rref(r1, 2)
    assert len(fq.rref(((1, 1), (1, 1)), 2)) == 1


def test_fq_intersect_matches_brute_force():
    rng = random.Random(11)
    for q in (2, 3):
        for _ in range(20):
            a = fq.rref([[rng.randrange(q) for _ in range(4)] for _ in range(2)], q)
            b = fq.rref([[rng.randrange(q) for _ in range(4)] for _ in range(2)], q)
            inter = fq.intersect(a, b, q)
            brute = [
                v
                for v in span_vectors(a, q)
                if fq.in_span(v, b, q)
            ] if a else []
            assert fq.rref(brute, q) == inter
            assert fq.span_le(inter, a, q) and fq.span_le(inter, b, q)


def _order(w, q):
    """The multiplicative order of w modulo q, by repeated multiplication."""
    x, order = w, 1
    while x != 1:
        x, order = x * w % q, order + 1
    return order


def test_fq_primitive_root_is_the_least_generator():
    for q in (p for p in range(2, 200) if is_prime(p)):
        w = fq.primitive_root(q)
        assert _order(w, q) == q - 1
        assert all(_order(v, q) < q - 1 for v in range(1, w))


# ---------------------------------------------------------------------------
# Johnson


def test_johnson_small_cases():
    g = build_johnson(3, 1)
    lat = g.lattice
    assert g.vertex_count == 3 and g.diameter == 1
    assert np.all(g.dist[np.triu_indices(3, 1)] == 1)  # complete graph K_3

    g42 = build_johnson(4, 2)
    assert g42.vertex_count == 6 and g42.diameter == 2
    assert g42.vertices[0] == (1, 2)

    g52 = build_johnson(5, 2)
    assert g52.vertex_count == 10
    arr = check_distance_regular(g52)
    assert arr.degree == 6


def test_johnson_distance_law_and_bfs():
    g = build_johnson(5, 2)
    for i, x in enumerate(g.vertices):
        for j, y in enumerate(g.vertices):
            assert g.dist[i, j] == 2 - len(set(x) & set(y))
    assert np.array_equal(_bfs_all_pairs(g.dist), g.dist)


def test_johnson_normalization_by_complement():
    g = build_johnson(5, 3)
    assert g.family == JohnsonFamily(5, 2)
    assert any("complement" in n for n in g.notes)


def test_johnson_complement_isomorphism():
    g = build_johnson(5, 2)
    full = set(range(1, 6))
    for i, x in enumerate(g.vertices):
        for j, y in enumerate(g.vertices):
            xc, yc = full - set(x), full - set(y)
            assert 3 - len(xc & yc) == g.dist[i, j]


def test_johnson_lattice():
    g = build_johnson(4, 2)
    lat = g.lattice
    assert [len(lv) for lv in lat.levels] == [1, 4, 6]
    assert lat.join((1,), (2,)) == (1, 2)
    assert lat.join((1, 2), (3,)) is TOP
    assert lat.meet((1, 2), (2, 3)) == (2,)
    assert lat.rank_of(()) == 0 and lat.rank_of(TOP) is None
    assert lat.leq((1,), (1, 2)) and not lat.leq((3,), (1, 2))


def test_johnson_validation_and_budget():
    with pytest.raises(ValueError):
        build_johnson(3, 0)
    with pytest.raises(ValueError):
        build_johnson(3, 3)
    with pytest.raises(BudgetExceededError):
        build_johnson(100, 3)


# ---------------------------------------------------------------------------
# Hamming


def test_hamming_small_cases():
    g = build_hamming(2, 2)
    assert g.vertex_count == 4 and g.diameter == 2
    # H(2,2) is the 4-cycle: every vertex has exactly one antipode
    assert all(sorted(row) == [0, 1, 1, 2] for row in g.dist.tolist())

    g23 = build_hamming(2, 3)
    assert g23.vertex_count == 9
    assert check_distance_regular(g23).degree == 4

    g14 = build_hamming(1, 4)
    assert g14.vertex_count == 4 and g14.diameter == 1


def test_hamming_bfs_cross_check():
    g = build_hamming(2, 3)
    assert np.array_equal(_bfs_all_pairs(g.dist), g.dist)


def test_hamming_lattice():
    lat = build_hamming(2, 3).lattice
    assert [len(lv) for lv in lat.levels] == [1, 6, 9]
    assert lat.join((0, 2), (1, 0)) == (1, 2)
    assert lat.join((0, 2), (1, 1)) is TOP  # conflicting nonzero letters
    assert lat.meet((1, 2), (1, 3)) == (1, 0)
    assert lat.leq((0, 2), (1, 2)) and lat.leq((0, 2), (2, 2))
    assert not lat.leq((0, 2), (1, 1))


def test_hamming_validation():
    with pytest.raises(ValueError):
        build_hamming(0, 3)
    with pytest.raises(ValueError):
        build_hamming(2, 1)
    with pytest.raises(BudgetExceededError):
        build_hamming(20, 3)


# ---------------------------------------------------------------------------
# Grassmann


def test_grassmann_vertex_counts():
    g = build_grassmann(2, 4, 2)
    assert g.vertex_count == 35
    g3 = build_grassmann(3, 4, 2)
    assert g3.vertex_count == 130


def test_grassmann_distance_law():
    g = build_grassmann(2, 4, 2)
    assert g.diameter == 2
    for i, x in enumerate(g.vertices):
        for j, y in enumerate(g.vertices):
            assert g.dist[i, j] == 2 - len(fq.intersect(x, y, 2))
    assert np.array_equal(_bfs_all_pairs(g.dist), g.dist)


def _letter_disagreements(x, y):
    return sum(a != b for a, b in zip(x, y))


def _codimension_of_meet(d, q):
    return lambda x, y: d - len(fq.intersect(x, y, q))


@pytest.mark.parametrize(
    "build, law",
    [
        (lambda: build_hamming(2, 3), _letter_disagreements),
        (lambda: build_hamming(3, 3), _letter_disagreements),
        (lambda: build_grassmann(3, 4, 2), _codimension_of_meet(2, 3)),
        (lambda: build_dual_polar("C", 2, 2), _codimension_of_meet(2, 2)),
        (lambda: build_dual_polar("D", 3, 2), _codimension_of_meet(3, 2)),
        (lambda: build_dual_polar("B", 2, 2), _codimension_of_meet(2, 2)),
        (lambda: build_dual_polar("Dplus", 2, 2), _codimension_of_meet(2, 2)),
    ],
    ids=["H(2,3)", "H(3,3)", "J_3(4,2)", "C_2(2)", "D_3(2)", "B_2(2)", "D_3(2)^+"],
)
def test_distance_law_by_definition(build, law):
    # each family's own distance, pair by pair, beside the lattice-meet route
    g = build()
    want = [[law(x, y) for y in g.vertices] for x in g.vertices]
    assert g.dist.tolist() == want


def test_grassmann_lattice_sizes():
    lat = build_grassmann(2, 4, 2).lattice
    assert [len(lv) for lv in lat.levels] == [1, 15, 35]
    a = ((1, 0, 0, 0),)
    b = ((0, 1, 0, 0),)
    assert lat.join(a, b) == ((1, 0, 0, 0), (0, 1, 0, 0))
    c = ((0, 0, 1, 0),)
    ab = lat.join(a, b)
    assert lat.join(ab, c) is TOP
    assert lat.meet(ab, lat.join(a, c)) == a


def test_grassmann_validation():
    with pytest.raises(ValueError, match="must be prime"):
        build_grassmann(4, 8, 2)
    with pytest.raises(ValueError):
        build_grassmann(2, 3, 2)  # n < 2k
    with pytest.raises(BudgetExceededError):
        build_grassmann(2, 10, 3)


def test_is_prime_agrees_with_trial_division_below_10_5():
    n = 10**5
    sieve = [False, False] + [True] * (n - 2)
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(range(d * d, n, d))
    assert [is_prime(k) for k in range(-3, n)] == [False] * 3 + sieve


def test_is_prime_past_the_small_bases():
    # the least strong pseudoprimes to the bases 2, 3, 5, 7 and to the
    # first nine primes, 2 to 23, are composite
    assert 3_215_031_751 == 151 * 751 * 28351
    assert not is_prime(3_215_031_751)
    assert not is_prime(3_825_123_056_546_413_051)
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    assert not is_prime((2**31 - 1) ** 2)
    bound = 3_317_044_064_679_887_385_961_981
    for n in (bound, bound + 2):
        with pytest.raises(ValueError, match=str(bound)):
            is_prime(n)


def dropped_subspaces_caught():
    """The refusals of corrupted subspace enumerations, as messages.

    J_2(4,2) and then C_2(2) lose one vertex (dimension 2), then one point
    (dimension 1).  Last, C_2(2) is built on the form of C_3(2), whose Witt
    index 3 leaves level 3 nonempty; its lower levels are made to match the
    closed form, so only the empty level past d can refuse it.  Each of the
    five builds must raise ConstructionError.
    """
    real_levels = graphs._subspace_levels
    real_form = graphs._dual_polar_form
    real_count = graphs.isotropic_subspace_count
    caught = []

    def build(builder, *args):
        try:
            builder(*args)
        except ConstructionError as exc:
            caught.append(str(exc))

    try:
        for builder, args in ((build_grassmann, (2, 4, 2)), (build_dual_polar, ("C", 2, 2))):
            for dim in (2, 1):
                graphs._subspace_levels = lambda *a, dim=dim: [
                    lv[1:] if j == dim else lv for j, lv in enumerate(real_levels(*a))
                ]
                build(builder, *args)
        graphs._subspace_levels = real_levels
        graphs._dual_polar_form = lambda kind, d, q: real_form(kind, d + 1, q)
        graphs.isotropic_subspace_count = lambda kind, d, q, i: (
            real_count(kind, d + 1, q, i) if i <= d else 0
        )
        build(build_dual_polar, "C", 2, 2)
    finally:
        graphs._subspace_levels = real_levels
        graphs._dual_polar_form = real_form
        graphs.isotropic_subspace_count = real_count
    return caught


DROPPED_REFUSALS = [
    "J_2(4,2): 34 subspaces of dimension 2, expected 35",
    "J_2(4,2): 14 subspaces of dimension 1, expected 15",
    "C2(2): 14 subspaces of dimension 2, expected 15",
    "C2(2): 14 subspaces of dimension 1, expected 15",
    "C2(2): 135 subspaces of dimension 3, expected 0",
]


def test_dropped_subspace_raises():
    assert dropped_subspaces_caught() == DROPPED_REFUSALS
    assert build_grassmann(2, 4, 2).vertex_count == 35
    assert build_dual_polar("C", 2, 2).vertex_count == 15


DROPPED_SCRIPT = """
from test_graphs import dropped_subspaces_caught
print(dropped_subspaces_caught())
"""


def test_dropped_subspace_raises_under_optimize():
    assert ast.literal_eval(run_optimized(DROPPED_SCRIPT)) == DROPPED_REFUSALS


# ---------------------------------------------------------------------------
# dual polar


def test_dual_polar_vertex_counts():
    assert dual_polar_vertex_count("C", 2, 2) == 15
    assert dual_polar_vertex_count("D", 2, 2) == 6
    assert dual_polar_vertex_count("B", 2, 2) == 15
    assert dual_polar_vertex_count("Dplus", 2, 2) == 45
    for kind, d, q in [("C", 2, 2), ("D", 2, 2), ("B", 2, 2), ("Dplus", 2, 2), ("D", 2, 3)]:
        g = build_dual_polar(kind, d, q)
        assert g.vertex_count == dual_polar_vertex_count(kind, d, q)


def test_d22_is_k33():
    g = build_dual_polar("D", 2, 2)
    lat = g.lattice
    assert g.vertex_count == 6 and g.diameter == 2
    side = [i for i in range(6) if g.dist[0, i] % 2 == 0]
    other = [i for i in range(6) if g.dist[0, i] == 1]
    assert len(side) == 3 and len(other) == 3
    for i in side:
        for j in side:
            assert g.dist[i, j] in (0, 2)
        for j in other:
            assert g.dist[i, j] == 1
    assert any("exceptional" in n for n in g.notes)
    # the singular-point level: formula [2]_2 * (2^(2+0-1)+1) = 9, not 6
    assert len(lat.levels[1]) == 9


def test_d23_is_k44():
    g = build_dual_polar("D", 2, 3)
    assert g.vertex_count == 8
    assert sorted(g.dist[0].tolist()) == [0, 1, 1, 1, 1, 2, 2, 2]


def test_c22_structure():
    g = build_dual_polar("C", 2, 2)
    lat = g.lattice
    assert g.vertex_count == 15
    assert len(lat.levels[1]) == 15  # all points of F_2^4 are isotropic
    arr = check_distance_regular(g)
    assert arr.degree == 6
    assert np.array_equal(_bfs_all_pairs(g.dist), g.dist)


def test_dual_polar_lattice_levels_match_formula():
    # |L_i| = qbinom(d,i) * prod_{j<i} (q^(d+e-j-1) + 1)
    for kind, d, q in [("C", 2, 2), ("D", 2, 2), ("B", 2, 2), ("Dplus", 2, 2)]:
        lat = build_dual_polar(kind, d, q).lattice
        e = DualPolarFamily(kind, d, q).e
        for i, lv in enumerate(lat.levels):
            expect = q_binomial(d, i, q)
            for j in range(i):
                expect *= q ** (d + e - j - 1) + 1
            assert len(lv) == expect, (kind, i)


def test_dual_polar_validation():
    with pytest.raises(ValueError):
        build_dual_polar("A", 2, 2)
    with pytest.raises(ValueError):
        build_dual_polar("C", 1, 2)
    with pytest.raises(ValueError):
        build_dual_polar("C", 2, 4)
    with pytest.raises(BudgetExceededError):
        build_dual_polar("C", 6, 3)


# ---------------------------------------------------------------------------
# distance regularity


def test_intersection_numbers_brute_force():
    g = build_johnson(4, 2)
    arr = check_distance_regular(g)
    # independent loop-based oracle on one pair per distance
    for k in range(g.diameter + 1):
        xs, ys = np.nonzero(g.dist == k)
        x, y = int(xs[0]), int(ys[0])
        for i in range(g.diameter + 1):
            for j in range(g.diameter + 1):
                count = sum(
                    1
                    for z in range(g.vertex_count)
                    if g.dist[x, z] == i and g.dist[z, y] == j
                )
                assert arr.value(i, j, k) == count
    assert arr.value(1, 1, 1) == 2  # adjacent pairs in the octahedron share 2 neighbours


def test_builtin_families_are_distance_regular():
    for g in [
        build_johnson(5, 2),
        build_hamming(2, 3),
        build_grassmann(2, 4, 2),
        build_dual_polar("D", 2, 2),
        build_dual_polar("C", 2, 2),
        build_dual_polar("Dplus", 2, 2),
    ]:
        arr = check_distance_regular(g)
        assert arr.value(0, 0, 0) == 1


def _count(dist, i, j, pair):
    x, y = pair
    return sum(1 for z in range(len(dist)) if dist[x][z] == i and dist[z][y] == j)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_hamming(3, 3),
        lambda: build_johnson(7, 3),
        lambda: build_dual_polar("D", 3, 2),
        *BUILDERS.values(),
        petersen,
        lambda: cycle(6),
    ],
)
def test_intersection_array_matches_every_shell_product(build):
    # the check reads only c_k, a_k, b_k off the graph and derives the rest of
    # p[i][j][k] by recurrence; check every entry against A_i A_j itself,
    # also on graphs (Petersen, C_6) that have no lattice
    g = build()
    p = check_distance_regular(g).p
    shells = [(g.dist == i).astype(np.int64) for i in range(g.diameter + 1)]
    for i in range(g.diameter + 1):
        for j in range(g.diameter + 1):
            counts = shells[i] @ shells[j]
            for k in range(g.diameter + 1):
                assert set(counts[g.dist == k].tolist()) == {p[i, j, k]}


def _q(m, q):
    return (q ** m - 1) // (q - 1)


def closed_form_b_c(family):
    """(b_0..b_{D-1}, c_1..c_D) from the classical formulas (BCN 9.1-9.4)."""
    if isinstance(family, HammingFamily):
        d, e = family.d, family.e
        b = [(d - i) * (e - 1) for i in range(d)]
        c = list(range(1, d + 1))
    elif isinstance(family, JohnsonFamily):
        n, k = family.n, family.k
        b = [(k - i) * (n - k - i) for i in range(k)]
        c = [i * i for i in range(1, k + 1)]
    elif isinstance(family, GrassmannFamily):
        q, n, k = family.q, family.n, family.k
        b = [q ** (2 * i + 1) * _q(k - i, q) * _q(n - k - i, q) for i in range(k)]
        c = [_q(i, q) ** 2 for i in range(1, k + 1)]
    else:
        q, d, e = family.q, family.d, family.e
        b = [q ** (i + e) * _q(d - i, q) for i in range(d)]
        c = [_q(i, q) for i in range(1, d + 1)]
    return b, c


PAST_DESK_SCALE = {
    "h63": lambda: build_hamming(6, 3),
    "j144": lambda: build_johnson(14, 4),
    "g252": lambda: build_grassmann(2, 5, 2),
}


@pytest.mark.parametrize("name", [*BUILDERS, *PAST_DESK_SCALE])
def test_intersection_array_matches_closed_form(name):
    g = {**BUILDERS, **PAST_DESK_SCALE}[name]()
    arr = check_distance_regular(g)
    b, c = closed_form_b_c(g.family)
    d = g.diameter
    assert [arr.value(i + 1, 1, i) for i in range(d)] == b
    assert [arr.value(i - 1, 1, i) for i in range(1, d + 1)] == c
    a = [b[0] - bi - ci for bi, ci in zip(b + [0], [0] + c)]
    assert [arr.value(i, 1, i) for i in range(d + 1)] == a
    # k_i = p^0_ii = b_0 ... b_{i-1} / (c_1 ... c_i), and they count every vertex
    valencies = [1]
    for bi, ci in zip(b, c):
        valencies.append(valencies[-1] * bi // ci)
    assert [arr.value(i, i, 0) for i in range(d + 1)] == valencies
    assert sum(valencies) == g.vertex_count


def test_prism_is_not_distance_regular_and_witness_is_real():
    # triangular prism: triangle edges have a common neighbour, rungs do not
    tri = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    dist = [
        [tri[a][b] + (x != y) for y in range(2) for b in range(3)]
        for x in range(2)
        for a in range(3)
    ]
    g = graph_from_distance_matrix("prism3", dist)
    with pytest.raises(NotDistanceRegularError) as exc:
        check_distance_regular(g)
    i, j, k, pair_a, pair_b, count_a, count_b = exc.value.witness
    assert dist[pair_a[0]][pair_a[1]] == dist[pair_b[0]][pair_b[1]] == k
    assert (count_a, count_b) == (_count(dist, i, j, pair_a), _count(dist, i, j, pair_b))
    assert count_a != count_b


def test_hexagonal_prism_witness_counts_common_neighbours():
    # C_6 x K_2 is bipartite, so every a_k is 0; distance-2 pairs on one
    # hexagon share one neighbour, the others two
    dist = [
        [min(abs(i - j), 6 - abs(i - j)) + (s != t) for t in range(2) for j in range(6)]
        for s in range(2)
        for i in range(6)
    ]
    with pytest.raises(NotDistanceRegularError) as exc:
        check_distance_regular(graph_from_distance_matrix("prism6", dist))
    i, j, k, pair_a, pair_b, count_a, count_b = exc.value.witness
    assert (i, j, k) == (1, 1, 2)
    assert dist[pair_a[0]][pair_a[1]] == dist[pair_b[0]][pair_b[1]] == k
    assert [_count(dist, i, j, pair) for pair in (pair_a, pair_b)] == [count_a, count_b]
    assert count_a != count_b


def test_asymmetric_distance_matrix_rejected():
    # distances along a directed 3-cycle: every p[i][j][k] is constant
    dist = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
    with pytest.raises(ConstructionError, match="not symmetric"):
        check_distance_regular(graph_from_distance_matrix("directed C3", dist))


def test_path_graph_is_not_distance_regular():
    # P_4: the two ends have different neighbour distance profiles
    dist = [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]
    g = graph_from_distance_matrix("path4", dist)
    with pytest.raises(NotDistanceRegularError) as exc:
        check_distance_regular(g)
    assert exc.value.witness is not None


STAR = [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]]
# a 4-cycle whose antipodal pair (0, 2) is labelled 3 apart
FAKE_C4 = [[0, 1, 3, 1], [1, 0, 1, 2], [3, 1, 0, 1], [1, 2, 1, 0]]


def refusals():
    """The witnesses of the check's refusals of K_{1,3} and of FAKE_C4."""
    out = []
    try:
        check_distance_regular(graph_from_distance_matrix("star", STAR))
    except NotDistanceRegularError as exc:
        out.append(exc.witness)
    try:
        check_distance_regular(graph_from_distance_matrix("fake C4", FAKE_C4))
    except NotPathMetricError as exc:
        out.append(exc.vertices)
    return out


def test_irregular_degree_and_non_path_metric_witnesses_are_real():
    star, fake = refusals()
    # K_{1,3}: the centre and a leaf differ in p^0_11, their degree
    i, j, k, pair_a, pair_b, count_a, count_b = star
    assert (i, j, k) == (1, 1, 0)
    assert STAR[pair_a[0]][pair_a[1]] == STAR[pair_b[0]][pair_b[1]] == 0
    assert [_count(STAR, i, j, pair) for pair in (pair_a, pair_b)] == [count_a, count_b]
    assert count_a != count_b
    # FAKE_C4: a neighbour z of y whose distance from x jumps by more than 1
    x, y, z = fake
    assert FAKE_C4[y][z] == 1
    assert abs(FAKE_C4[x][z] - FAKE_C4[x][y]) > 1


WITNESS_SCRIPT = """
from test_graphs import refusals
print(refusals())
"""


def test_irregular_degree_and_non_path_metric_refused_under_optimize():
    assert ast.literal_eval(run_optimized(WITNESS_SCRIPT)) == refusals()


@pytest.mark.parametrize(
    "dist,vertices",
    [
        # a loop at 1
        ([[0, 1], [1, 1]], (1, 1)),
        # two disjoint edges labelled 2 apart: every count is constant, but
        # no neighbour of 2 is closer to 0
        ([[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]], (0, 2)),
    ],
)
def test_degenerate_distances_are_not_a_path_metric(dist, vertices):
    with pytest.raises(NotPathMetricError) as exc:
        check_distance_regular(graph_from_distance_matrix("degenerate", dist))
    assert exc.value.vertices == vertices


def test_diameter_must_be_the_largest_distance():
    g = dataclasses.replace(cycle(6), diameter=4)
    with pytest.raises(ConstructionError, match="diameter 4"):
        check_distance_regular(g)
    # a lattice graph's vertex 0 reads distance 3 past a diameter of 2, and
    # no distance 4 below one of 4: both go on to the every-row refusal
    for diameter in (2, 4):
        g = dataclasses.replace(build_johnson(6, 3), diameter=diameter)
        with pytest.raises(ConstructionError, match=f"largest distance 3, diameter {diameter}"):
            check_distance_regular(g)


def _block_sizes(g):
    """BLOCK_CELLS for neighbour gathers of one row, of a row count that does
    not divide n, and the default."""
    n, k = g.vertex_count, int(np.count_nonzero(g.dist[0] == 1))
    rows = next(r for r in itertools.count(2) if n % r)
    return {"one row": n * k, "non-divisor": rows * n * k, "default": intlinalg.BLOCK_CELLS}


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_johnson(6, 3),
        lambda: build_hamming(3, 3),
        lambda: graph_from_distance_matrix("J(6,3)", build_johnson(6, 3).dist),
        lambda: graph_from_distance_matrix("H(3,3)", build_hamming(3, 3).dist),
    ],
    ids=["J(6,3)", "H(3,3)", "J(6,3) lattice-free", "H(3,3) lattice-free"],
)
def test_drg_check_agrees_across_block_seams(monkeypatch, build):
    # the same array at every gather block size; a lattice graph's comes
    # from the rows of vertex 0 and its neighbours, a lattice-free one's
    # from every row block, where a distance planted in the last row block
    # is refused with the same witness each time
    sizes = _block_sizes(build())
    arrays, refusals = [], []
    for cells in sizes.values():
        monkeypatch.setattr(intlinalg, "BLOCK_CELLS", cells)
        g = build()
        if g.lattice is None:
            x = g.vertex_count - 1
            y = int(np.flatnonzero(g.dist[x] == 2)[-1])
            dist = g.dist.copy()
            dist[x, y] = dist[y, x] = 3
            with pytest.raises(NotPathMetricError) as exc:
                check_distance_regular(graph_from_distance_matrix(g.label(), dist))
            assert {x, y} <= set(exc.value.vertices)
            refusals.append((str(exc.value), exc.value.vertices))
        arrays.append(check_distance_regular(g).p)
    assert all(np.array_equal(p, arrays[0]) for p in arrays)
    assert refusals == refusals[:1] * len(refusals)


def test_recurrence_refuses_inexact_division():
    # c = (0, 1, 2), a = 0, b = (3, 1, 0) is no graph's array: A_2 would be
    # (A_1^2 - 3 I) / 2, which has entry 3/2
    c, a, b = np.array([0, 1, 2]), np.array([0, 0, 0]), np.array([3, 1, 0])
    with pytest.raises(ConstructionError, match="not integral"):
        graphs._intersection_numbers(c, a, b)


# ---------------------------------------------------------------------------
# lattice laws


def _lattice_instances():
    yield build_johnson(5, 2).lattice
    yield build_hamming(2, 3).lattice
    yield build_dual_polar("D", 2, 2).lattice
    yield build_dual_polar("C", 2, 2).lattice


def test_lattice_laws_exhaustive_small():
    for lat in _lattice_instances():
        els = list(lat.all_elements())
        assert len(els) <= 40
        for a in els:
            assert lat.join(a, a) == a or (a is TOP and lat.join(a, a) is TOP)
            assert lat.meet(a, a) == a
            assert lat.leq(a, TOP)
        for a, b in itertools.product(els, repeat=2):
            j = lat.join(a, b)
            m = lat.meet(a, b)
            assert j == lat.join(b, a)
            assert m == lat.meet(b, a)
            assert lat.leq(m, a) and lat.leq(m, b)
            assert lat.leq(a, j) and lat.leq(b, j)
            # absorption
            assert lat.join(a, m) == a
            assert lat.meet(a, j) == a
        for a, b, c in itertools.product(els, repeat=3):
            assert lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))
            assert lat.meet(lat.meet(a, b), c) == lat.meet(a, lat.meet(b, c))


def test_lattice_laws_sampled_grassmann():
    lat = build_grassmann(2, 4, 2).lattice
    els = list(lat.all_elements())
    rng = random.Random(5)
    for _ in range(400):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))
        assert lat.meet(lat.meet(a, b), c) == lat.meet(a, lat.meet(b, c))
        m = lat.meet(a, b)
        assert lat.join(a, m) == a and lat.leq(m, b)


def test_lattice_graph_refuses_uneven_levels():
    # a top level that mixes a 3-set into the 2-sets: its point codes cannot
    # be one array with a column per point below each element
    lat = graphs.SubsetLattice(4, 2)
    lat.levels = lat.levels[:2] + (((1, 2, 3),) + lat.levels[2],)
    with pytest.raises(ConstructionError, match="points below them"):
        graphs._lattice_graph(JohnsonFamily(4, 2), lat)


@pytest.mark.parametrize(
    "lattice, odd",
    [
        (lambda: graphs.WordLattice(2, 3), (1, 0)),
        (lambda: graphs.SubspaceLattice(2, graphs._subspace_levels(3, 2, 2)), ((1, 0, 0),)),
    ],
    ids=["H(2,3)", "J_2(3,2)"],
)
def test_uneven_word_and_subspace_levels_are_refused(lattice, odd):
    # a word with one letter among two-letter words, a line among planes
    lattice = lattice()
    lattice.levels = lattice.levels[:-1] + ((odd,) + lattice.levels[-1][1:],)
    with pytest.raises(ConstructionError, match="differ in the points below them"):
        graphs._lattice_graph(graphs.CustomFamily("uneven"), lattice)


def test_a_count_that_names_no_distance_is_refused_where_distances_are_read():
    # J(6,3)'s lattice without its 2-subsets: two vertices that share two
    # points meet in no level, so that count names no distance.  The build
    # forms no distances; reading them, or checking the graph, refuses it
    lat = graphs.SubsetLattice(6, 3)
    lat.levels = lat.levels[:2] + lat.levels[3:]
    g = graphs._lattice_graph(JohnsonFamily(6, 3), lat)
    assert g.point_counts == (3, 1, 0)
    for read in (lambda: g.dist, lambda: check_distance_regular(g)):
        with pytest.raises(ConstructionError, match=r"J\(6,3\): elements of one level differ"):
            read()


class ShortVertexLattice(graphs.SubsetLattice):
    """J(5,2)'s subsets whose last vertex lists one point twice, so that the
    other is missing below it."""

    def point_codes(self, elements):
        codes = super().point_codes(elements)
        if elements[-1] == self.levels[-1][-1]:
            codes[-1, 0] = codes[-1, 1]
        return codes


def test_lattice_graph_refuses_a_vertex_away_from_itself():
    # (4, 5) has one point below it, the count of a rank-1 element, so its
    # row of the incidence Gram reads d((4, 5), (4, 5)) = 1
    with pytest.raises(ConstructionError, match=r"vertex \(4, 5\) is at distance 1 from itself"):
        graphs._lattice_graph(JohnsonFamily(5, 2), ShortVertexLattice(5, 2))
    graphs._lattice_graph(JohnsonFamily(5, 2), graphs.SubsetLattice(5, 2))


class PrefixLattice(graphs.RankedLattice):
    """Binary words below length 4 that start with 0, ordered by prefix.

    (0,) is the only point, so every element above it has one point below
    it, and the point count of x meet y cannot tell the meet (0,) of
    (0, 0, 0) and (0, 1, 0) from the meet (0, 0) of (0, 0, 0) and
    (0, 0, 1), or from a vertex.
    """

    def __init__(self):
        levels = [[(0,) + w for w in itertools.product((0, 1), repeat=i)] for i in range(3)]
        super().__init__([((),)] + levels)

    def point_codes(self, elements):
        return np.zeros((len(elements), 1 if elements[0] else 0), dtype=np.int64)


def equal_point_counts_refusal():
    try:
        graphs._lattice_graph(graphs.CustomFamily("prefix tree"), PrefixLattice())
    except ConstructionError as exc:
        return str(exc)
    return None


def test_lattice_graph_refuses_levels_with_equal_point_counts():
    assert equal_point_counts_refusal() == (
        "prefix tree: two levels have the same number of points below, (1, 1, 1, 0)"
    )


EQUAL_COUNTS_SCRIPT = """
from test_graphs import equal_point_counts_refusal
print(equal_point_counts_refusal())
"""


def test_lattice_graph_refuses_levels_with_equal_point_counts_under_optimize():
    assert run_optimized(EQUAL_COUNTS_SCRIPT).strip() == equal_point_counts_refusal()


@pytest.mark.parametrize("name", BUILDERS)
def test_point_counts_read_off_incidence_gram(name):
    g = BUILDERS[name]()
    gram = g.incidence @ g.incidence.T
    assert np.array_equal(np.array(g.point_counts)[g.dist], gram)
    assert len(set(g.point_counts)) == g.diameter + 1


# ---------------------------------------------------------------------------
# incidence read off the enumerator


INCIDENCE_CASES = {
    **BUILDERS,
    "g263": lambda: build_grassmann(2, 6, 3),
    "c32": lambda: build_dual_polar("C", 3, 2),
    "h43": lambda: build_hamming(4, 3),
    "j93": lambda: build_johnson(9, 3),
    "b23": lambda: build_dual_polar("B", 2, 3),
    "dplus22": lambda: build_dual_polar("Dplus", 2, 2),
    "g342": lambda: build_grassmann(3, 4, 2),
}


def leq_incidence(lattice):
    """(incidence, point_counts) from lattice.leq alone, the order itself."""
    points = lattice.levels[1]
    incidence = np.array(
        [[lattice.leq(p, x) for p in points] for x in lattice.levels[-1]], dtype=np.int64
    )
    counts = tuple(sum(lattice.leq(p, lv[0]) for p in points) for lv in lattice.levels[::-1])
    return incidence, counts


@pytest.mark.parametrize("name", INCIDENCE_CASES)
def test_incidence_matches_lattice_order(name):
    g = INCIDENCE_CASES[name]()
    incidence, counts = leq_incidence(g.lattice)
    assert g.incidence.dtype == incidence.dtype and g.incidence.flags.c_contiguous
    assert np.array_equal(g.incidence, incidence)
    assert g.point_counts == counts and set(map(type, g.point_counts)) == {int}


@pytest.mark.parametrize("name", INCIDENCE_CASES)
def test_graph_build_asks_no_order_query(monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("order query on the graph build")

    monkeypatch.setattr(graphs.RankedLattice, "leq", refuse)
    for attr in ("span_le", "in_span"):
        monkeypatch.setattr(fq, attr, refuse)
    g = INCIDENCE_CASES[name]()
    assert g.incidence.shape == (g.vertex_count, len(g.lattice.levels[1]))


def _code(vector, q):
    """A vector's code, its entries read as digits base q."""
    return sum(x * q ** i for i, x in enumerate(reversed(vector)))


def _digits(code, q, n):
    return tuple(code // q ** (n - 1 - i) % q for i in range(n))


class MutantLattice(graphs.SubspaceLattice):
    """A subspace lattice whose codes below elements other than the points
    are wrong in one way."""

    def __init__(self, q, levels, mutation):
        super().__init__(q, levels)
        self.mutation = mutation

    def point_codes(self, elements):
        codes = super().point_codes(elements)
        if elements == self.levels[1]:
            return codes
        q, n = self.q, len(self.levels[1][0][0])
        if self.mutation == "drop everywhere":
            return codes[:, :-1]
        if self.mutation == "drop at the last vertex":
            # the last vertex lists one point twice and misses another
            if elements[-1] == self.levels[-1][-1]:
                codes[-1, 0] = codes[-1, 1]
        elif self.mutation == "vertex as point":
            # a vertex's whole matrix read as one code, past every point's
            for i, el in enumerate(elements):
                if el in self.levels[-1]:
                    codes[i, 0] = _code(sum(el, ()), q)
        elif self.mutation == "zero row":
            codes[:, :1] = 0
        elif self.mutation == "doubled row":
            # over F_2 the zero row, over F_3 a row whose pivot is 2
            for row in codes[:, :1]:
                row[:] = [_code([2 * x % q for x in _digits(int(c), q, n)], q) for c in row]
        else:
            raise ValueError(self.mutation)
        return codes


MUTATIONS = [
    "drop everywhere", "drop at the last vertex", "vertex as point", "zero row",
    "doubled row",
]


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize(
    "family, q, levels",
    [
        (GrassmannFamily(2, 4, 2), 2, lambda: graphs._subspace_levels(4, 2, 2)),
        (GrassmannFamily(3, 4, 2), 3, lambda: graphs._subspace_levels(4, 2, 3)),
        (
            DualPolarFamily("C", 2, 2),
            2,
            lambda: graphs._subspace_levels(4, 2, 2, *graphs._dual_polar_form("C", 2, 2)[1:]),
        ),
    ],
    ids=["J_2(4,2)", "J_3(4,2)", "C2(2)"],
)
def test_wrong_points_below_is_refused(mutation, family, q, levels):
    # a point missing or a code that names no point is a ConstructionError,
    # never a KeyError or an IndexError; the real point codes on the same
    # levels build the graph
    with pytest.raises(ConstructionError):
        graphs._lattice_graph(family, MutantLattice(q, levels(), mutation))
    graphs._lattice_graph(family, graphs.SubspaceLattice(q, levels()))


@pytest.mark.parametrize(
    "lattice",
    [
        lambda: graphs.SubsetLattice(5, 2),
        lambda: graphs.WordLattice(2, 3),
        lambda: graphs.SubspaceLattice(3, graphs._subspace_levels(4, 2, 3)),
    ],
    ids=["J(5,2)", "H(2,3)", "J_3(4,2)"],
)
@pytest.mark.parametrize("swap", [(0, 1), (0, -1)], ids=["neighbours", "ends"])
def test_points_out_of_code_order_are_refused(lattice, swap):
    # searchsorted needs the points' own codes strictly ascending
    lat = lattice()
    points = list(lat.levels[1])
    points[swap[0]], points[swap[1]] = points[swap[1]], points[swap[0]]
    lat.levels = (lat.levels[0], tuple(points), *lat.levels[2:])
    with pytest.raises(ConstructionError, match="not one strictly ascending column"):
        graphs._lattice_graph(graphs.CustomFamily("swapped"), lat)


class StrayCodeLattice(graphs.SubspaceLattice):
    """J_3(4,2) whose vertex ((0,0,1,0), (0,0,0,1)) lists a stray code in place
    of its point (0,0,0,1)."""

    def __init__(self, stray):
        super().__init__(3, graphs._subspace_levels(4, 2, 3))
        self.stray = stray

    def point_codes(self, elements):
        codes = super().point_codes(elements)
        vertex = ((0, 0, 1, 0), (0, 0, 0, 1))
        if vertex in elements:
            row = codes[elements.index(vertex)]
            row[row == _code((0, 0, 0, 1), 3)] = self.stray
        return codes


@pytest.mark.parametrize(
    "stray",
    [0, _code((0, 0, 0, 2), 3), _code((0, 2, 1, 0), 3), 3 ** 4],
    ids=["zero row", "last-column pivot 2", "pivot 2", "past every point"],
)
def test_code_that_is_no_point_is_refused(stray):
    with pytest.raises(
        ConstructionError, match=r"a point code below \(\(0, 0, 1, 0\), \(0, 0, 0, 1\)\) names no point"
    ):
        graphs._lattice_graph(GrassmannFamily(3, 4, 2), StrayCodeLattice(stray))
    graphs._lattice_graph(GrassmannFamily(3, 4, 2), StrayCodeLattice(_code((0, 0, 0, 1), 3)))


@pytest.mark.parametrize("block", ["default", "one row", "non-divisor"])
@pytest.mark.parametrize("name", INCIDENCE_CASES)
def test_int8_distances_match_overlap_reference(monkeypatch, name, block):
    # the row-blocked Gram gives point_counts^-1 of a plain int64 M M^T, at
    # every seam between blocks
    n = INCIDENCE_CASES[name]().vertex_count
    if block == "one row":
        monkeypatch.setattr(intlinalg, "BLOCK_CELLS", 1)
    elif block == "non-divisor":
        rows = next(r for r in itertools.count(2) if n % r)
        monkeypatch.setattr(intlinalg, "BLOCK_CELLS", rows * n)
    g = INCIDENCE_CASES[name]()
    distance_of = np.full(max(g.point_counts) + 1, -1)
    distance_of[list(g.point_counts)] = np.arange(g.diameter + 1)
    assert g.dist.dtype == np.int8 and g.dist.shape == (n, n)
    gram = g.incidence @ g.incidence.T  # int64, with no float on the way
    assert np.array_equal(g.dist, distance_of[gram])


def test_distance_matrix_fixtures_keep_int64():
    for g in (petersen(), cycle(7), graph_from_distance_matrix("K_3", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])):
        assert g.dist.dtype == np.int64
        check_distance_regular(g)


def test_ranks_are_indexed_on_first_use():
    lat = build_hamming(2, 3).lattice
    assert "_rank" not in vars(lat)
    assert [lat.rank_of(x) for x in ((0, 0), (0, 2), (1, 2))] == [0, 1, 2]
    assert len(lat._rank) == 16


# ru_maxrss keeps the high-water mark of the process that forked the child,
# here the test session; VmHWM, that of the child's own memory, does not
MEMORY_SCRIPT = """
from nortonalg.instances import build_graph
g = build_graph("hamming", (8, 3))
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(g.vertex_count, peak_kb)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_large_graph_build_holds_no_dense_wide_matrix():
    # H(8,3): 6561 vertices, so an n x n float64 or int64 matrix is 344 MB
    # by itself, and even the int8 distances take 43 MB; the build, which
    # forms no n x n matrix, peaks near 44 MB
    result = subprocess.run(
        [sys.executable, "-c", MEMORY_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert result.returncode == 0, result.stderr
    n, peak_kb = map(int, result.stdout.split())
    assert n == 6561 and peak_kb < 64 * 1024


# ---------------------------------------------------------------------------
# distance regularity from one base vertex


def _moved_point(lattice, candidate, point):
    """The image of a point under one of a lattice's candidate automorphisms,
    read off the point's tuple: the reference for generator_images."""
    if isinstance(lattice, graphs.SubsetLattice):
        (i,) = point
        if candidate == 0:
            return ({1: 2, 2: 1}.get(i, i),)
        return (i % lattice.n + 1,)
    if isinstance(lattice, graphs.WordLattice):
        if candidate == 0:
            return ((point[0] % lattice.e + 1 if point[0] else 0),) + point[1:]
        return point[-1:] + point[:-1]
    # a subspace's point is one normalized row; the candidates act from the
    # right as (1 2), (1 2 ... n), I + E_12 and diag(w, 1, ..., 1)
    (row,) = point
    q = lattice.q
    if candidate == 0:
        image = (row[1], row[0]) + row[2:]
    elif candidate == 1:
        image = row[-1:] + row[:-1]
    elif candidate == 2:
        image = (row[0], (row[0] + row[1]) % q) + row[2:]
    else:
        image = (row[0] * fq.primitive_root(q) % q,) + row[1:]
    lead = next(x for x in image if x)
    return (tuple(x * fq.inv_mod(lead, q) % q for x in image),)


@pytest.mark.parametrize(
    "lattice, candidates",
    [
        (lambda: build_johnson(6, 3).lattice, 2),
        (lambda: build_hamming(3, 4).lattice, 2),
        (lambda: build_grassmann(2, 4, 2).lattice, 3),
        (lambda: build_grassmann(3, 4, 2).lattice, 4),
        (lambda: build_grassmann(2, 5, 2).lattice, 3),
        # the points of F_5^3: diag(w, 1, 1) with w = 2, and images led by
        # 2, 3 and 4, which must be scaled back to a leading 1
        (lambda: graphs.SubspaceLattice(5, graphs._subspace_levels(3, 1, 5)), 4),
        (lambda: build_dual_polar("C", 2, 3).lattice, 0),
    ],
    ids=["J(6,3)", "H(3,4)", "J_2(4,2)", "J_3(4,2)", "J_2(5,2)", "J_5(3,1)", "C2(3)"],
)
def test_generator_images_match_the_points_moved_one_by_one(lattice, candidates):
    lattice = lattice()
    points = lattice.levels[1]
    images = lattice.generator_images()
    assert len(images) == candidates
    if candidates:
        assert images.shape == (candidates, len(points))
        at = np.searchsorted(lattice.own_codes[:, 0], images)
        assert [[points[p] for p in row] for row in at] == [
            [_moved_point(lattice, c, point) for point in points] for c in range(candidates)
        ]


def _routes(monkeypatch):
    """The route of every _intersection_array call, True for vertex 0's row."""
    taken = []
    every_row = graphs._intersection_array

    def spy(g, base):
        taken.append(base)
        return every_row(g, base)

    monkeypatch.setattr(graphs, "_intersection_array", spy)
    return taken


# with INCIDENCE_CASES' h43 and j93, every graph the benchmark checks on
# vertex 0's route
ROUTE_CASES = {
    **INCIDENCE_CASES,
    "j84": lambda: build_johnson(8, 4),
    "g252": lambda: build_grassmann(2, 5, 2),
    "h25": lambda: build_hamming(2, 5),
    "j72": lambda: build_johnson(7, 2),
}


@pytest.mark.parametrize("name", ROUTE_CASES)
def test_base_vertex_route_agrees_with_every_row(monkeypatch, name):
    # Johnson, Hamming and Grassmann graphs take vertex 0's row; the same
    # distances with no lattice, and the dual polar graphs, take every row
    taken = _routes(monkeypatch)
    g = ROUTE_CASES[name]()
    p = check_distance_regular(g).p
    assert np.array_equal(check_distance_regular(graph_from_distance_matrix(name, g.dist)).p, p)
    assert taken == [not isinstance(g.family, DualPolarFamily), False]


def _outcome(g):
    """The array a check returns, or the text and witness of its refusal."""
    try:
        return check_distance_regular(g).p.tolist()
    except (NotPathMetricError, NotDistanceRegularError) as exc:
        return type(exc), str(exc), getattr(exc, "vertices", None) or exc.witness


class SwappedPointWords(graphs.WordLattice):
    """Words whose one candidate only trades letter 1 at the first
    coordinate for letter 1 at the second: it moves some words' points to
    two letters at one coordinate, which no word has."""

    def generator_images(self):
        own = self.own_codes[:, 0].copy()
        first = (self.e + 1) ** (self.d - 1)
        a, b = np.searchsorted(own, [first // (self.e + 1), first])
        own[[a, b]] = own[[b, a]]
        return own[None]


class TranspositionOnlySubsets(graphs.SubsetLattice):
    """Subsets with the candidate (1 2) alone, whose orbit of {1..k} is
    {1..k} and {1..k} again."""

    def generator_images(self):
        return super().generator_images()[:1]


class RookWords(graphs.WordLattice):
    """Words with letters 1..2 at the first coordinate and 1..3 at the
    second, whose graph is the rook's graph K2 x K3: its candidates, 1 <-> 2
    at the first coordinate and 1 -> 2 -> 3 at the second, are automorphisms
    transitive on the vertices, but an edge along the first coordinate lies
    in no triangle and one along the second in one."""

    def __init__(self):
        super().__init__(2, 3)
        self.levels = tuple(tuple(w for w in lv if w[0] <= 2) for lv in self.levels)

    def generator_images(self):
        # letter l at the first coordinate has code 4 l, at the second l
        own = self.own_codes[:, 0]
        first = own >= 4
        return np.stack([np.where(first, 12 - own, own), np.where(first, own, own % 3 + 1)])


def test_row_lookup_refuses_a_candidate_whatever_the_orbit(monkeypatch):
    # with the orbit step forced to pass, the moved rows of SwappedPointWords
    # (two letters at one coordinate) must still match no vertex's row
    g = graphs._lattice_graph(HammingFamily(3, 3), SwappedPointWords(3, 3))
    monkeypatch.setattr(graphs, "_orbit_is_everything", lambda maps: True)
    assert graphs._transitive_generators(g) is False
    assert graphs._transitive_generators(build_hamming(3, 3)) is True


def _repeat_incidence_row(g):
    # the last vertex's points copied onto vertex 1: two rows alike, so no
    # candidate permutes the vertices, and the distances derived from the
    # incidence put vertex 1 at distance 0 from the last
    incidence = g.incidence.copy()
    incidence[1] = incidence[-1]
    return dataclasses.replace(g, incidence=incidence)


@pytest.mark.parametrize(
    "build, routes",
    [
        (lambda: graphs._lattice_graph(HammingFamily(3, 3), SwappedPointWords(3, 3)), [False]),
        (lambda: graphs._lattice_graph(JohnsonFamily(6, 3), TranspositionOnlySubsets(6, 3)), [False]),
        (lambda: _repeat_incidence_row(build_johnson(6, 3)), [False]),
        # the candidates hold, and the pairs (x, 0) refuse the route: a_1 is
        # 0 or 1
        (lambda: graphs._lattice_graph(HammingFamily(2, 3), RookWords()), [True, False]),
    ],
    ids=["no vertex map", "short orbit", "repeated incidence row", "not distance regular"],
)
def test_refused_candidates_give_the_every_row_outcome(monkeypatch, build, routes):
    g = build()
    taken = _routes(monkeypatch)
    outcome = _outcome(g)
    assert taken == routes
    assert outcome == _outcome(graph_from_distance_matrix(g.label(), g.dist))


def _relabelled(g, f):
    """g with point_counts permuted so that each distance d reads f[d], f a
    permutation of 0..D: the incidence, so the candidate automorphisms,
    still hold, so only the checks of the pairs (x, 0) can refuse."""
    counts = [0] * len(f)
    for d, count in enumerate(g.point_counts):
        counts[f[d]] = count
    return dataclasses.replace(g, point_counts=tuple(counts))


@pytest.mark.parametrize(
    "build",
    [lambda: build_hamming(2, 3), lambda: build_hamming(3, 3), lambda: build_johnson(6, 3)],
    ids=["H(2,3)", "H(3,3)", "J(6,3)"],
)
def test_relabelled_distances_give_the_every_row_outcome(monkeypatch, build):
    # every relabelling starts on vertex 0's route, and whatever it accepts
    # or refuses there must be what every row gives
    def outcome(g):
        try:
            return _outcome(g)
        except ConstructionError as exc:
            return str(exc)

    g = build()
    taken = _routes(monkeypatch)
    for f in itertools.permutations(range(g.diameter + 1)):
        h = _relabelled(g, f)
        taken.clear()
        assert outcome(h) == outcome(graph_from_distance_matrix(h.label(), h.dist))
        assert taken[0] is True


CHECK_MEMORY_SCRIPT = """
import sys
from nortonalg.graphs import check_distance_regular
from nortonalg.instances import build_graph
g = build_graph(sys.argv[1], tuple(map(int, sys.argv[2:])), budget=10 ** 5)
check_distance_regular(g)
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(g.vertex_count, peak_kb)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_large_graph_check_holds_no_dense_mask():
    # build and check peak near 44 MB on H(8,3) and 90 MB on J(20,6), as
    # they read only the rows of vertex 0 and its neighbours; an n x n
    # bool mask or int8 copy of the distances adds 43 MB and 1.5 GB
    for spec, n, bound_mb in [(("hamming", 8, 3), 6561, 64), (("johnson", 20, 6), 38760, 200)]:
        result = subprocess.run(
            [sys.executable, "-c", CHECK_MEMORY_SCRIPT, *map(str, spec)],
            capture_output=True,
            text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert result.returncode == 0, result.stderr
        count, peak_kb = map(int, result.stdout.split())
        assert count == n and peak_kb < bound_mb * 1024
