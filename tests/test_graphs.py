"""Graph families: construction, distance laws, lattices, distance regularity."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nortonalg import fq, graphs
from nortonalg.errors import (
    BudgetExceededError,
    ConstructionError,
    NotDistanceRegularError,
)
from nortonalg.graphs import (
    TOP,
    DualPolarFamily,
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


# ---------------------------------------------------------------------------
# q-integers


def test_q_int_values():
    assert q_int(0, 2) == 0
    assert q_int(2, 2) == 3
    assert q_int(4, 2) == 15
    assert q_int(2, 3) == 4
    assert q_int(3, 3) == 13


def test_q_binomial_against_subspace_enumeration():
    # oracle: count rref matrices directly
    from nortonalg.graphs import _rref_matrices

    for q in (2, 3):
        for n in range(5):
            for k in range(n + 1):
                assert len(_rref_matrices(n, k, q)) == q_binomial(n, k, q)
    assert q_binomial(4, 2, 2) == 35
    assert q_binomial(4, 2, 3) == 130
    assert q_binomial(4, 1, 2) == 15


# ---------------------------------------------------------------------------
# fq helpers


def test_fq_rref_is_canonical():
    rows = ((1, 1, 0), (0, 1, 1))
    r1 = fq.rref(rows, 2)
    r2 = fq.rref((r1[1], r1[0]), 2)
    assert r1 == r2 == fq.rref(r1, 2)
    assert fq.rank(((1, 1), (1, 1)), 2) == 1


def test_fq_intersect_matches_brute_force():
    rng = random.Random(11)
    for q in (2, 3):
        for _ in range(20):
            a = fq.rref([[rng.randrange(q) for _ in range(4)] for _ in range(2)], q)
            b = fq.rref([[rng.randrange(q) for _ in range(4)] for _ in range(2)], q)
            inter = fq.intersect(a, b, q)
            brute = [
                v
                for v in fq.span_vectors(a, q)
                if fq.in_span(v, b, q)
            ] if a else []
            assert fq.rref(brute, q) == inter
            assert fq.span_le(inter, a, q) and fq.span_le(inter, b, q)


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
    with pytest.raises(ValueError):
        build_grassmann(4, 8, 2)  # q not prime
    with pytest.raises(ValueError):
        build_grassmann(2, 3, 2)  # n < 2k
    with pytest.raises(BudgetExceededError):
        build_grassmann(2, 10, 3)


def dropped_subspaces_caught():
    """How many builds of J_2(4,2) with one subspace dropped raise.

    The first case loses a vertex (dimension 2), the second a point of the
    lattice (dimension 1); both must raise ConstructionError.
    """
    real = graphs._rref_matrices
    caught = 0
    try:
        for dim in (2, 1):
            graphs._rref_matrices = lambda n, k, q, dim=dim: (
                real(n, k, q)[1:] if k == dim else real(n, k, q)
            )
            try:
                build_grassmann(2, 4, 2)
            except ConstructionError:
                caught += 1
    finally:
        graphs._rref_matrices = real
    return caught


def test_dropped_subspace_raises():
    assert dropped_subspaces_caught() == 2
    assert build_grassmann(2, 4, 2).vertex_count == 35


DROPPED_SCRIPT = """
import sys
from test_graphs import dropped_subspaces_caught
print(sys.flags.optimize, dropped_subspaces_caught())
"""


def test_dropped_subspace_raises_under_optimize():
    # conftest already put the package's src/ on PYTHONPATH
    path = os.pathsep.join([str(Path(__file__).parent), os.environ["PYTHONPATH"]])
    result = subprocess.run(
        [sys.executable, "-O", "-c", DROPPED_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1", "2"]


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
    ],
)
def test_intersection_array_matches_every_shell_product(build):
    # p[i][j] for i > j is filled from the transpose; check it against A_i A_j itself
    g = build()
    p = check_distance_regular(g).p
    shells = [(g.dist == i).astype(np.int64) for i in range(g.diameter + 1)]
    for i in range(g.diameter + 1):
        for j in range(g.diameter + 1):
            counts = shells[i] @ shells[j]
            for k in range(g.diameter + 1):
                assert set(counts[g.dist == k].tolist()) == {p[i, j, k]}


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
