"""Exact spectral decomposition of distance regular graphs.

Everything runs on the (D+1)-point quotient given by the intersection array
that check_distance_regular proves from c_k, a_k and b_k and completes by the
three-term recurrence (Brouwer-Cohen-Neumaier, Distance-Regular Graphs, 4.1;
Biggs, Algebraic Graph Theory, ch. 21).  An integer theta is an
eigenvalue exactly when its cosine sequence u_0 = 1, u_1 = theta/k,
c_i u_{i-1} + a_i u_i + b_i u_{i+1} = theta u_i also meets the last equation
c_D u_{D-1} + a_D u_D = theta u_D; rational eigenvalues of an integer matrix
are integers, so scanning theta = k..-k finds an integral spectrum and fewer
than D+1 hits reject an irrational one.  The scan runs on integers, every
theta at once: w_i = b_0 ... b_{i-1} u_i has w_0 = 1, w_1 = theta and
w_{i+1} = (theta - a_i) w_i - c_i b_{i-1} w_{i-1}, and the last equation
times b_0 ... b_{D-1} reads w_{D+1} = 0.  With s_i = b_0 ... b_{i-1} and
L = |s_D|, x_i = w_i L / s_i = L u_i is an integer, so Biggs' multiplicity
m_j = n / sum_i k_i u_i(theta_j)^2 is the exact quotient n L^2 / sum_i k_i x_i^2
and E_j = (m_j/n) sum_i u_i(theta_j) A_i is the integer row m_j x / (n L) in
lowest terms.  Those D+1 rows are the only form of E_j the package keeps:
entry (x, y) of E_j is the coefficient of A_{dist(x, y)}.  No step leaves
the integers; Fractions are only a view for callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm

import numpy as np

from .errors import (
    ConstructionError,
    NotDistanceRegularError,
    NotPathMetricError,
    SpectralIntegralityError,
)
from .graphs import (
    DualPolarFamily,
    GrassmannFamily,
    GraphInstance,
    HammingFamily,
    IntersectionArray,
    JohnsonFamily,
    check_distance_regular,
    q_binomial,
    q_int,
)


# ---------------------------------------------------------------------------
# spectra


@dataclass(eq=False)
class SpectralData:
    """Eigenvalues (descending), multiplicities, and primitive idempotents.

    E_j = sum_i numerators[j, i] A_i / denominators[j] in lowest terms, one
    positive denominator per row: numerators is a (D+1) x (D+1) array of
    Python ints, and the Norton build works from its row 1.
    coefficients[j][i] is the same coefficient of A_i in E_j as a Fraction.
    """

    graph: GraphInstance
    intersection: IntersectionArray
    eigenvalues: tuple
    multiplicities: tuple
    numerators: np.ndarray
    denominators: tuple

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def coefficients(self) -> tuple:
        rows = zip(self.numerators.tolist(), self.denominators)
        return tuple(tuple(Fraction(x, den) for x in row) for row, den in rows)

    def integer_coefficients(self, j: int):
        """(num, den): E_j = sum_i num[i] A_i / den in lowest terms."""
        return self.numerators[j].tolist(), self.denominators[j]

    def validate(self):
        """Full invariant battery in the basis A_0..A_D; returns True.

        Proves E_j E_l = delta_jl E_j, A_1 E_j = theta_j E_j, sum_j E_j = A_0
        and trace E_j = n e[j][0] = m_j through A_a A_b = sum_k p^k_ab A_k,
        plus the count, order and sum of the spectrum.  Every failure raises
        ConstructionError, so python -O does not disable the battery.
        """
        g = self.graph
        n = g.vertex_count
        thetas, mults, f = self.eigenvalues, self.multiplicities, self.numerators
        p = self.intersection.p.astype(object)
        size = g.diameter + 1

        def require(ok, what):
            if not ok:
                raise ConstructionError(f"{g.label()}: spectral check failed: {what}")

        counts = (self.count, len(mults), *f.shape, len(self.denominators), *p.shape)
        require(counts == (size,) * 8, f"{counts} entries for diameter {g.diameter}")
        require(min(self.denominators) > 0, f"denominators {self.denominators}")
        require(list(thetas) == sorted(set(thetas), reverse=True), f"order of {thetas}")
        require(sum(mults) == n, f"multiplicities {mults} do not sum to {n}")
        require(mults[0] == 1 and min(mults) > 0, f"multiplicities {mults}")
        dens = np.array(self.denominators, dtype=object)
        common = lcm(*self.denominators)
        total = (f * (common // dens)[:, None]).sum(axis=0).tolist()
        require(total == [common] + [0] * (size - 1), "sum_j E_j != I")
        bad = n * f[:, 0] != np.array(mults, dtype=object) * dens
        j = bad.argmax()
        require(not bad.any(), f"trace E_{j} != m_{j} = {mults[j]}")
        # f_j = den_j e_j is an integer row, so every product stays in ints:
        # t[j, b] is den_j E_j A_b, and prod[j, l] = f_l t[j] is
        # den_j den_l E_j E_l, which must be delta_jl den_j f_j
        t = (f @ p.reshape(size, -1)).reshape(size, size, size)
        bad = (t[:, 1] != np.array(thetas, dtype=object)[:, None] * f).any(axis=1)
        j = bad.argmax()
        require(not bad.any(), f"A E_{j} != theta E_{j}")
        prod = f @ t
        want = np.zeros_like(prod)
        want[range(size), range(size)] = dens[:, None] * f
        bad = (prod != want).any(axis=2)
        j, l = divmod(int(bad.argmax()), size)
        require(not bad.any(), f"E_{j} E_{l}")
        return True


def spectral_data(g: GraphInstance, intersection: IntersectionArray = None):
    """Spectrum and idempotents of g from its intersection array.

    Pass the array check_distance_regular returned for g; without one it is
    derived here, and a graph that is not distance regular raises
    SpectralIntegralityError chained from the NotDistanceRegularError or
    NotPathMetricError of the check.
    """
    if intersection is None:
        try:
            intersection = check_distance_regular(g)
        except (NotDistanceRegularError, NotPathMetricError) as exc:
            raise SpectralIntegralityError(
                f"{g.label()} is not distance regular: no intersection array"
            ) from exc
    p = intersection.p.tolist()
    n = g.vertex_count
    k = intersection.degree
    # check_distance_regular proves b_i >= 1 below the diameter, but a
    # hand-built array need not hold it, and u_i divides by b_0 ... b_{i-1}
    scale = [1]
    for i in range(len(p) - 1):
        if not p[i + 1][1][i]:
            raise SpectralIntegralityError(
                f"{g.label()}: b_{i} = 0 below the diameter {g.diameter}"
            )
        scale.append(scale[-1] * p[i + 1][1][i])
    # a_i = p[i][1][i], c_i = p[i-1][1][i] and b_i = p[i+1][1][i]
    theta = np.arange(k, -k - 1, -1, dtype=object)
    w = [np.ones_like(theta), theta]
    for i in range(1, len(p)):
        w.append((theta - p[i][1][i]) * w[i] - p[i - 1][1][i] * p[i][1][i - 1] * w[i - 1])
    hit = w.pop() == 0
    ell = abs(scale[-1])  # L = |s_D|, so x_i = w_i L / s_i = L u_i
    x = np.stack(w, axis=1)[hit] * np.array([ell // s for s in scale], dtype=object)
    norms = (x * x) @ np.array([p[i][i][0] for i in range(len(p))], dtype=object)
    thetas, mults = theta[hit].tolist(), []
    for t, norm in zip(thetas, norms.tolist()):
        # a real graph has k_0 = 1 and every k_i >= 1, so norm >= ell^2 > 0
        if norm <= 0:
            raise SpectralIntegralityError(f"{g.label()}: eigenvalue {t} has sum_i k_i u_i^2 <= 0")
        m, left = divmod(n * ell * ell, norm)
        if left:
            raise SpectralIntegralityError(
                f"{g.label()}: eigenvalue {t} has multiplicity {Fraction(n * ell * ell, norm)}"
            )
        mults.append(m)
    if len(thetas) != g.diameter + 1:
        raise SpectralIntegralityError(
            f"{g.label()}: {len(thetas)} integer eigenvalues for diameter {g.diameter}"
        )
    rows = np.array(mults, dtype=object)[:, None] * x
    common = np.array([gcd(n * ell, *row) for row in rows.tolist()], dtype=object)
    dens = tuple((n * ell // common).tolist())
    return SpectralData(g, intersection, tuple(thetas), tuple(mults), rows // common[:, None], dens)


# ---------------------------------------------------------------------------
# closed forms


def closed_form_eigenvalue(family, i: int) -> int:
    if isinstance(family, JohnsonFamily):
        n, k = family.n, family.k
        return (k - i) * (n - k - i) - i
    if isinstance(family, GrassmannFamily):
        q, n, k = family.q, family.n, family.k
        return q ** (i + 1) * q_int(k - i, q) * q_int(n - k - i, q) - q_int(i, q)
    if isinstance(family, HammingFamily):
        return (family.d - i) * family.e - family.d
    if isinstance(family, DualPolarFamily):
        q, d, e = family.q, family.d, family.e
        return q ** e * q_int(d - i, q) - q_int(i, q)
    raise ValueError(f"no closed form for {family!r}")


def closed_form_multiplicity(family, i: int) -> int:
    if isinstance(family, JohnsonFamily):
        n = family.n
        return comb(n, i) - (comb(n, i - 1) if i >= 1 else 0)
    if isinstance(family, GrassmannFamily):
        q, n = family.q, family.n
        return q_binomial(n, i, q) - (q_binomial(n, i - 1, q) if i >= 1 else 0)
    if isinstance(family, HammingFamily):
        return comb(family.d, i) * (family.e - 1) ** i
    if isinstance(family, DualPolarFamily):
        q, d, e = family.q, family.d, family.e
        qf = Fraction(q)
        out = qf ** i * q_binomial(d, i, q)
        out *= (1 + qf ** (d + e - 2 * i)) / (1 + qf ** (d + e - i))
        for j in range(1, i + 1):
            out *= (1 + qf ** (d + e - j)) / (1 + qf ** (j - e))
        if out.denominator != 1:
            raise ConstructionError(f"{family.label()}: multiplicity {out} at {i}")
        return int(out)
    raise ValueError(f"no closed form for {family!r}")
