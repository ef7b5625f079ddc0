"""Exact spectral decomposition tests.

Eigenvalues and multiplicities of the small family graphs are fixed by hand
(or by the closed forms, cross-checked against each other), and the full
idempotent invariant battery runs on every instance.  The n x n Lagrange
route, prod_{j != i} (A - theta_j I) / (theta_i - theta_j), lives here as
the reference the quotient-built idempotents are compared against; it and
the n x n battery run on integer numerators, never on Fraction matrices.
"""

import dataclasses
from fractions import Fraction
from itertools import combinations
from math import lcm

import numpy as np
import pytest

from nortonalg.errors import (
    ConstructionError,
    NotDistanceRegularError,
    NotPathMetricError,
    SpectralIntegralityError,
)
from nortonalg.graphs import (
    HammingFamily,
    IntersectionArray,
    JohnsonFamily,
    build_dual_polar,
    build_grassmann,
    build_hamming,
    build_johnson,
    check_distance_regular,
    graph_from_distance_matrix,
)
from nortonalg.intlinalg import coordinates, independent_rows
from nortonalg.spectral import (
    closed_form_eigenvalue,
    closed_form_multiplicity,
    spectral_data,
)
from conftest import BUILDERS, run_optimized
from test_norton import apply_dense, dense_idempotent, dense_numerator, integer_rows


def test_solve_linear_combination():
    basis = integer_rows([(1, 0, 1), (0, 1, 1)])
    kept, pivots = independent_rows(basis, range(2), 2)
    targets = integer_rows([(2, 3, 5), (0, 0, 1)])
    det, coords, inside = coordinates(basis[kept], pivots, targets)
    assert det > 0 and inside.tolist() == [True, False]
    assert coords[0].tolist() == [2 * det, 3 * det]
    # a dependent basis is solved over the independent rows picked from it
    basis = integer_rows([(1, 1), (2, 2), (0, 1)])
    kept, pivots = independent_rows(basis, range(3), 3)
    assert kept == [0, 2]
    det, [c], inside = coordinates(basis[kept], pivots, integer_rows([(3, 4)]))
    assert inside.all()
    assert all(
        sum(ci * basis[i][j] for ci, i in zip(c, kept)) == det * t
        for j, t in enumerate((3, 4))
    )


def test_rational_rank():
    def kept(rows):
        ints = integer_rows(rows)
        return independent_rows(ints, range(len(ints)), len(ints))[0]

    assert kept([(1, 2), (2, 4)]) == [0]
    assert kept([(1, 0), (0, 1), (1, 1)]) == [0, 1]
    assert kept([]) == []
    # Fraction rows are cleared to integers first
    assert (integer_rows([(Fraction(1, 2), 1), (1, 3)]) == [[1, 2], [2, 6]]).all()
    assert kept([(Fraction(1, 2), 1), (1, 3)]) == [0, 1]


def petersen():
    """Kneser graph K(5,2): 2-subsets of {0..4}, adjacent when disjoint."""
    pairs = list(combinations(range(5), 2))
    dist = np.array([[2 - (not set(x) & set(y)) for y in pairs] for x in pairs])
    np.fill_diagonal(dist, 0)
    return graph_from_distance_matrix("petersen", dist)


def cycle(n):
    dist = [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]
    return graph_from_distance_matrix(f"C{n}", dist)


def shell(g, i):
    """A_i, the distance-i 0/1 matrix, as Python integers."""
    return (g.dist == i).astype(int).astype(object)


def lagrange_idempotents(g, thetas):
    """Reference E_i as (num, den) in integers, E_i = num / den.

    num = prod_{j != i} (A - theta_j I) and den = prod_{j != i} (theta_i - theta_j).
    """
    a, ident = shell(g, 1), shell(g, 0)
    out = []
    for i, ti in enumerate(thetas):
        num, den = ident, 1
        for j, tj in enumerate(thetas):
            if j != i:
                num = num @ a - tj * num
                den *= ti - tj
        out.append((num, den))
    return out


def check_dense_battery(g, sd):
    """The n x n invariants: E^2 = E, A E = theta E, trace, sum, orthogonality.

    Each E_j is checked through its integer numerator F_j = den_j E_j, so
    E^2 = E reads F_j F_j = den_j F_j and E_i E_j = 0 reads F_i F_j = 0.
    """
    a1, ident = shell(g, 1), shell(g, 0)
    nums, dens = [], []
    for j in range(sd.count):
        row, den = sd.integer_coefficients(j)
        nums.append(np.array(row, dtype=object)[g.dist])
        dens.append(den)
    common = lcm(*dens)
    total = np.zeros_like(ident)
    for theta, mult, f, den in zip(sd.eigenvalues, sd.multiplicities, nums, dens):
        assert np.array_equal(f @ f, den * f)
        assert np.array_equal(a1 @ f, theta * f)
        assert np.trace(f) == mult * den
        total = total + f * (common // den)
    assert np.array_equal(total, common * ident)
    for i, j in combinations(range(sd.count), 2):
        assert not (nums[i] @ nums[j]).any()


# hand-fixed spectra: (builder, eigenvalues descending, multiplicities)
FIXED_SPECTRA = [
    (lambda: build_johnson(3, 1), (2, -1), (1, 2)),
    (lambda: build_johnson(4, 1), (3, -1), (1, 3)),
    (lambda: build_johnson(4, 2), (4, 0, -2), (1, 3, 2)),
    (lambda: build_johnson(5, 2), (6, 1, -2), (1, 4, 5)),
    (lambda: build_hamming(2, 2), (2, 0, -2), (1, 2, 1)),
    (lambda: build_hamming(2, 3), (4, 1, -2), (1, 4, 4)),
    (lambda: build_hamming(1, 4), (3, -1), (1, 3)),
    (lambda: build_grassmann(2, 4, 2), (18, 3, -3), (1, 14, 20)),
    (lambda: build_dual_polar("D", 2, 2), (3, 0, -3), (1, 4, 1)),
    (lambda: build_dual_polar("C", 2, 2), (6, 1, -3), (1, 9, 5)),
    (petersen, (3, 1, -2), (1, 5, 4)),
]


@pytest.mark.parametrize("build,thetas,mults", FIXED_SPECTRA)
def test_fixed_spectra(build, thetas, mults):
    g = build()
    sd = spectral_data(g)
    assert sd.eigenvalues == thetas
    assert sd.multiplicities == mults
    sd.validate()


@pytest.mark.parametrize("build,thetas,mults", FIXED_SPECTRA)
def test_dense_idempotents_match_lagrange_oracle(build, thetas, mults):
    g = build()
    sd = spectral_data(g)
    reference = lagrange_idempotents(g, thetas)
    for j, (num, den) in enumerate(reference):
        assert np.array_equal(dense_idempotent(g, sd, j) * den, num)
    check_dense_battery(g, sd)


@pytest.mark.parametrize(
    "family,build",
    [
        (HammingFamily(5, 3), lambda: build_hamming(5, 3)),
        (JohnsonFamily(9, 4), lambda: build_johnson(9, 4)),
        (JohnsonFamily(10, 3), lambda: build_johnson(10, 3)),
    ],
)
def test_past_desk_scale_spectra(family, build):
    # n = 243, 126, 120: far beyond what n x n matrix powers handle quickly
    g = build()
    sd = spectral_data(g, check_distance_regular(g))
    assert sd.validate() is True
    assert sd.count == g.diameter + 1
    for i in range(sd.count):
        assert sd.eigenvalues[i] == closed_form_eigenvalue(family, i)
        assert sd.multiplicities[i] == closed_form_multiplicity(family, i)


def test_spectral_data_reuses_the_proved_intersection_array():
    g = build_johnson(5, 2)
    arr = check_distance_regular(g)
    assert check_distance_regular(g) is arr
    assert spectral_data(g).intersection is arr
    assert spectral_data(g, arr).coefficients == spectral_data(g).coefficients


def _corruptions(sd):
    """Copies with two multiplicities swapped, and with one eigenvalue changed."""
    t, m = sd.eigenvalues, sd.multiplicities
    return [
        dataclasses.replace(sd, multiplicities=(m[0], m[2], m[1])),
        dataclasses.replace(sd, eigenvalues=(t[0], t[1] + 1, t[2])),
    ]


def test_validate_rejects_corrupted_spectral_data():
    sd = spectral_data(build_johnson(5, 2))  # (6, 1, -2) with (1, 4, 5)
    for bad in _corruptions(sd):
        # the corruption keeps count, order and sum, so only the identities catch it
        assert sum(bad.multiplicities) == sum(sd.multiplicities)
        with pytest.raises(ConstructionError):
            bad.validate()


OPTIMIZED_SCRIPT = """
from nortonalg.errors import ConstructionError
from nortonalg.graphs import build_johnson
from nortonalg.spectral import spectral_data
from test_spectral import _corruptions

sd = spectral_data(build_johnson(5, 2))
caught = 0
for bad in _corruptions(sd):
    try:
        bad.validate()
    except ConstructionError:
        caught += 1
print(caught, sd.validate())
"""


def test_validate_rejects_corrupted_spectral_data_under_optimize():
    assert run_optimized(OPTIMIZED_SCRIPT).split() == ["2", "True"]


def _moved(sd, i):
    """A copy with 1/c of A_i moved from E_2 to E_1, c = lcm(den_1, den_2).

    sum_j E_j is kept, and so is every other coefficient.
    """
    f, dens = sd.numerators.copy(), list(sd.denominators)
    c = lcm(dens[1], dens[2])
    for j in (1, 2):
        f[j] *= c // dens[j]
        dens[j] = c
    f[1, i] += 1
    f[2, i] -= 1
    return dataclasses.replace(sd, numerators=f, denominators=tuple(dens))


def _identity_corruptions(sd):
    """(copy, message) pairs, one per identity of validate, in its order.

    Each copy passes every check before its own.  With the true intersection
    array the first three identities already force E_j = the true E_j (A_1
    has one eigenvector per theta_j in the algebra), so only a wrong p^k_ab
    with b != 1 reaches E_j E_l = delta_jl E_j alone.
    """
    p = sd.intersection.p.copy()
    p[2, 2, 0] += 1
    halved = sd.denominators[:2] + (2 * sd.denominators[2],) + sd.denominators[3:]
    return [
        (dataclasses.replace(sd, denominators=halved), "sum_j E_j != I"),
        (_moved(sd, 0), "trace E_1 != m_1 = 4"),
        (_moved(sd, 1), "A E_1 != theta E_1"),
        (dataclasses.replace(sd, intersection=IntersectionArray(p)), "E_0 E_0"),
    ]


def test_validate_names_each_identity_it_refutes():
    sd = spectral_data(build_johnson(5, 2))  # (6, 1, -2) with (1, 4, 5)
    for bad, what in _identity_corruptions(sd):
        with pytest.raises(ConstructionError, match=f"^J\\(5,2\\): spectral check failed: {what}$"):
            bad.validate()
    assert sd.validate() is True


def test_closed_forms_match_computation():
    instances = [
        build_johnson(3, 1),
        build_johnson(4, 1),
        build_johnson(4, 2),
        build_johnson(5, 2),
        build_grassmann(2, 4, 2),
        build_hamming(2, 2),
        build_hamming(2, 3),
        build_hamming(1, 4),
        build_dual_polar("D", 2, 2),
        build_dual_polar("C", 2, 2),
    ]
    for g in instances:
        sd = spectral_data(g)
        for i in range(sd.count):
            assert sd.eigenvalues[i] == closed_form_eigenvalue(g.family, i), g.label()
            assert sd.multiplicities[i] == closed_form_multiplicity(g.family, i), g.label()


def test_johnson_3_1_idempotents():
    g = build_johnson(3, 1)
    sd = spectral_data(g)
    e0 = dense_idempotent(g, sd, 0)
    e1 = dense_idempotent(g, sd, 1)
    assert e0.tolist() == [[Fraction(1, 3)] * 3] * 3
    assert np.array_equal(e1, shell(g, 0) - e0)


def test_perron_idempotent_is_uniform():
    for g in (build_hamming(2, 3), build_dual_polar("C", 2, 2)):
        sd = spectral_data(g)
        n = g.vertex_count
        e0 = dense_idempotent(g, sd, 0)
        assert all(x == Fraction(1, n) for x in e0.reshape(-1).tolist())


def test_projection_fixed_point():
    g = build_hamming(2, 3)
    sd = spectral_data(g)
    vec = [Fraction(1)] + [Fraction(0)] * (g.vertex_count - 1)
    dense = [dense_numerator(g, sd, i) for i in range(sd.count)]
    pieces = [apply_dense(e, vec) for e in dense]
    for coord in range(g.vertex_count):
        assert sum(p[coord] for p in pieces) == vec[coord]
    again = apply_dense(dense[1], pieces[1])
    assert again == pieces[1]


def test_distance_matrices_live_in_idempotent_span():
    g = build_johnson(4, 2)
    sd = spectral_data(g)
    idempotents = [dense_idempotent(g, sd, j) for j in range(sd.count)]
    shells = [shell(g, i) for i in range(g.diameter + 1)]
    flat = [m.reshape(-1).tolist() for m in idempotents + shells]
    rows = integer_rows(flat)  # one common scale for E_0..E_D and A_0..A_D
    basis, targets = rows[: sd.count], rows[sd.count :]
    kept, pivots = independent_rows(basis, range(sd.count), sd.count)
    assert kept == list(range(sd.count))
    det, coords, inside = coordinates(basis, pivots, targets)
    assert inside.all() and coords.shape == (len(targets), sd.count)
    # A_1 = sum_j theta_j E_j
    assert coords[1].tolist() == [det * theta for theta in sd.eigenvalues]


def test_eigenvalues_helper():
    sd = spectral_data(build_hamming(2, 2))
    assert list(zip(sd.eigenvalues, sd.multiplicities)) == [(2, 1), (0, 2), (-2, 1)]


def test_non_integral_spectrum_rejected():
    # path on 4 vertices: eigenvalues (+-1 +- sqrt(5))/2
    dist = np.array(
        [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]], dtype=int
    )
    g = graph_from_distance_matrix("path4", dist)
    with pytest.raises(SpectralIntegralityError) as info:
        spectral_data(g)
    # it is not distance regular either, and the witness travels along
    assert isinstance(info.value.__cause__, NotDistanceRegularError)
    assert info.value.__cause__.witness


def test_eigenvalue_count_mismatch_rejected():
    # disjoint 4-cycles share the 4-cycle spectrum but the "distance matrix"
    # below fakes a diameter-3 object with only three distinct eigenvalues
    c4 = np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    fake = c4.copy()
    fake[0, 2] = fake[2, 0] = 3
    g = graph_from_distance_matrix("fake", fake)
    with pytest.raises(SpectralIntegralityError):
        spectral_data(g)


def test_distances_that_are_not_a_path_metric_rejected():
    # two disjoint edges labelled as distance 2 apart: p-constant, but b_1 = 0
    dist = [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]]
    with pytest.raises(SpectralIntegralityError):
        spectral_data(graph_from_distance_matrix("2K2", dist))


def test_hand_built_array_with_zero_b1_rejected():
    # the 2K2 above, with its own counts p^k_ij (constant on each class) as a
    # hand-built array, so check_distance_regular does not refuse it first
    dist = np.array([[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]])
    p = np.zeros((3, 3, 3), dtype=np.int64)
    for x, y in ((0, 0), (0, 1), (0, 2)):
        for z in range(4):
            p[dist[x, z], dist[z, y], dist[x, y]] += 1
    assert p[2, 1, 1] == 0  # b_1
    g = graph_from_distance_matrix("2K2", dist)
    with pytest.raises(SpectralIntegralityError, match="^2K2: b_1 = 0 below the diameter 2$"):
        spectral_data(g, IntersectionArray(p))


def test_hand_built_array_with_vanishing_norm_rejected():
    # k_2 = -1: theta = 0 is the one hit, with u = (1, 0, -1) and
    # sum_i k_i u_i^2 = 1 + 0 - 1 = 0, so no multiplicity n / 0 exists
    p = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 0, 0], [1, 0, 1], [0, 0, 0]],
        [[0, 0, 0], [0, 1, 0], [-1, 0, 0]],
    ]
    with pytest.raises(
        SpectralIntegralityError, match=r"^H\(2,3\): eigenvalue 0 has sum_i k_i u_i\^2 <= 0$"
    ):
        spectral_data(build_hamming(2, 3), IntersectionArray(np.array(p)))


def test_doubled_k2_rejected_by_the_check():
    # K2 with each end doubled at distance 0: every p[i][j][k] is constant
    # (p^0_00 = 2), but 0 and 1 are distinct vertices at distance 0
    dist = [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]]
    g = graph_from_distance_matrix("doubled K2", dist)
    with pytest.raises(NotPathMetricError) as exc:
        check_distance_regular(g)
    assert exc.value.vertices == (0, 1)
    with pytest.raises(SpectralIntegralityError) as info:
        spectral_data(g)
    assert isinstance(info.value.__cause__, NotPathMetricError)


def reference_cosines(p, theta):
    """u_0..u_D of theta by the Fraction cosine recurrence, or None when theta
    misses the last equation c_D u_{D-1} + a_D u_D = theta u_D.

    p[i][j][k] = p^k_ij, so c_i = p[i-1][1][i], a_i = p[i][1][i] and
    b_i = p[i+1][1][i].
    """
    d = len(p) - 1
    u = [Fraction(1), Fraction(theta, p[1][1][0])]
    for i in range(1, d):
        rest = theta * u[i] - p[i - 1][1][i] * u[i - 1] - p[i][1][i] * u[i]
        u.append(rest / p[i + 1][1][i])
    if p[d - 1][1][d] * u[d - 1] + p[d][1][d] * u[d] != theta * u[d]:
        return None
    return u


SCANNED = {
    **BUILDERS,
    "C5": lambda: cycle(5),
    "C6": lambda: cycle(6),
    "h43": lambda: build_hamming(4, 3),
    "j84": lambda: build_johnson(8, 4),
    "j93": lambda: build_johnson(9, 3),
    "h53": lambda: build_hamming(5, 3),
    "j94": lambda: build_johnson(9, 4),
    "j103": lambda: build_johnson(10, 3),
}


@pytest.mark.parametrize("name", SCANNED)
def test_integer_scan_matches_fraction_cosine_sequences(name):
    # every theta in -k..k: the integer scan keeps exactly the thetas whose
    # Fraction cosine sequence meets the last equation, with the same u_i,
    # and E_j's integer row is m_j u / n over the lcm of its denominators;
    # on C_5 the refusal names the reference's hit count
    g = SCANNED[name]()
    arr = check_distance_regular(g)
    p, k, n = arr.p.tolist(), arr.degree, g.vertex_count
    hits = {}
    for theta in range(k, -k - 1, -1):
        u = reference_cosines(p, theta)
        if u is not None:
            hits[theta] = u
    if len(hits) < g.diameter + 1:
        want = f"{g.label()}: {len(hits)} integer eigenvalues for diameter {g.diameter}"
        with pytest.raises(SpectralIntegralityError, match=f"^{want}$"):
            spectral_data(g)
        assert name == "C5"
        return
    sd = spectral_data(g)
    assert sd.eigenvalues == tuple(hits)
    for j, (theta, m, e) in enumerate(zip(sd.eigenvalues, sd.multiplicities, sd.coefficients)):
        assert m == n / sum(p[i][i][0] * x * x for i, x in enumerate(hits[theta]))
        want = [m * x / n for x in hits[theta]]
        assert e == tuple(want)
        den = lcm(*(x.denominator for x in want))
        num = [int(x * den) for x in want]
        assert sd.integer_coefficients(j) == (num, den)
        assert sd.numerators[j].tolist() == num and sd.denominators[j] == den
        assert all(type(x) is int for x in [theta, m, den, *num])


def test_irrational_drg_spectrum_rejected():
    # C_5 is distance regular with eigenvalues 2 and (-1 +- sqrt(5))/2
    g = cycle(5)
    assert check_distance_regular(g).degree == 2
    with pytest.raises(SpectralIntegralityError):
        spectral_data(g)
    assert spectral_data(cycle(6)).eigenvalues == (2, 1, -1, -2)
