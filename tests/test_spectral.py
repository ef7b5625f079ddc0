"""Exact spectral decomposition tests.

Eigenvalues and multiplicities of the small family graphs are fixed by hand
(or by the closed forms, cross-checked against each other), and the full
idempotent invariant battery runs on every instance.  The n x n Lagrange
route, prod_{j != i} (A - theta_j I) / (theta_i - theta_j), lives here as
the reference the quotient-built idempotents are compared against; it and
the n x n battery run on integer numerators, never on Fraction matrices.
"""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path

import numpy as np
import pytest

from nortonalg.errors import (
    ConstructionError,
    NotDistanceRegularError,
    SpectralIntegralityError,
)
from nortonalg.graphs import (
    HammingFamily,
    JohnsonFamily,
    build_dual_polar,
    build_grassmann,
    build_hamming,
    build_johnson,
    check_distance_regular,
    graph_from_distance_matrix,
)
from nortonalg.norton import _coordinates, _independent_rows
from nortonalg.spectral import (
    closed_form_eigenvalue,
    closed_form_multiplicity,
    spectral_data,
)
from test_norton import apply_dense, dense_idempotent, integer_rows


def test_solve_linear_combination():
    basis = integer_rows([(1, 0, 1), (0, 1, 1)])
    kept, pivots = _independent_rows(basis, range(2), 2)
    targets = integer_rows([(2, 3, 5), (0, 0, 1)])
    assert _coordinates(basis[kept], pivots, targets, [1, 1]) == [(2, 3), None]
    # a dependent basis is solved over the independent rows picked from it
    basis = integer_rows([(1, 1), (2, 2), (0, 1)])
    kept, pivots = _independent_rows(basis, range(3), 3)
    assert kept == [0, 2]
    [c] = _coordinates(basis[kept], pivots, integer_rows([(3, 4)]), [1])
    assert c is not None
    assert all(
        sum(ci * basis[i][j] for ci, i in zip(c, kept)) == t
        for j, t in enumerate((3, 4))
    )


def test_rational_rank():
    def kept(rows):
        ints = integer_rows(rows)
        return _independent_rows(ints, range(len(ints)), len(ints))[0]

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
import sys
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
print(sys.flags.optimize, caught, sd.validate())
"""


def test_validate_rejects_corrupted_spectral_data_under_optimize():
    # conftest already put the package's src/ on PYTHONPATH
    path = os.pathsep.join([str(Path(__file__).parent), os.environ["PYTHONPATH"]])
    result = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1", "2", "True"]


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
    dense = [dense_idempotent(g, sd, i) for i in range(sd.count)]
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
    kept, pivots = _independent_rows(basis, range(sd.count), sd.count)
    assert kept == list(range(sd.count))
    coords = _coordinates(basis, pivots, targets, [1] * len(targets))
    assert all(c is not None and len(c) == sd.count for c in coords)
    assert coords[1] == sd.eigenvalues  # A_1 = sum_j theta_j E_j


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


def test_irrational_drg_spectrum_rejected():
    # C_5 is distance regular with eigenvalues 2 and (-1 +- sqrt(5))/2
    g = cycle(5)
    assert check_distance_regular(g).degree == 2
    with pytest.raises(SpectralIntegralityError):
        spectral_data(g)
    assert spectral_data(cycle(6)).eigenvalues == (2, 1, -1, -2)
