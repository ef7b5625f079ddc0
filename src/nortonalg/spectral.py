"""Exact spectral decomposition of distance regular graphs.

Everything runs on the (D+1)-point quotient given by the intersection array
that check_distance_regular proves (Brouwer-Cohen-Neumaier, Distance-Regular
Graphs, 4.1; Biggs, Algebraic Graph Theory, ch. 21).  An integer theta is an
eigenvalue exactly when its cosine sequence u_0 = 1, u_1 = theta/k,
c_i u_{i-1} + a_i u_i + b_i u_{i+1} = theta u_i also meets the last equation
c_D u_{D-1} + a_D u_D = theta u_D; rational eigenvalues of an integer matrix
are integers, so scanning theta = k..-k finds an integral spectrum and fewer
than D+1 hits reject an irrational one.  Multiplicities follow Biggs,
m_j = n / sum_i k_i u_i(theta_j)^2, and E_j = (m_j/n) sum_i u_i(theta_j) A_i
is D+1 rationals, the only form of E_j the package keeps: entry (x, y) of
E_j is the coefficient of A_{dist(x, y)}.  All arithmetic is exact (ints and
Fractions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .errors import ConstructionError, NotDistanceRegularError, SpectralIntegralityError
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


def _cosine_sequence(p, theta):
    """u_0..u_D of theta, or None when theta is not an eigenvalue.

    p is the intersection array as nested lists, p[i][j][k] = p^k_ij, so
    c_i = p[i-1][1][i], a_i = p[i][1][i] and b_i = p[i+1][1][i].
    """
    d = len(p) - 1
    u = [Fraction(1), Fraction(theta, p[1][1][0])]
    for i in range(1, d):
        rest = theta * u[i] - p[i - 1][1][i] * u[i - 1] - p[i][1][i] * u[i]
        u.append(rest / p[i + 1][1][i])
    if p[d - 1][1][d] * u[d - 1] + p[d][1][d] * u[d] != theta * u[d]:
        return None
    return u


def _integer_row(coeffs):
    """(numerators, den): coeffs over the lcm of their denominators, gcd 1."""
    den = lcm(*(c.denominator for c in coeffs))
    return [int(c * den) for c in coeffs], den


def _times_matrix(p, x):
    """M[b][k], the coordinates of (sum_a x_a A_a) A_b in the basis A_0..A_D."""
    r = range(len(p))
    return [[sum(x[a] * p[a][b][k] for a in r if x[a]) for k in r] for b in r]


@dataclass(eq=False)
class SpectralData:
    """Eigenvalues (descending), multiplicities, and primitive idempotents.

    coefficients[j][i] = m_j u_i(theta_j) / n is the coefficient of A_i in
    E_j, so E_j is D+1 rationals; integer_coefficients(j) gives the same row
    over one denominator, which is what the Norton build works from.
    """

    graph: GraphInstance
    intersection: IntersectionArray
    eigenvalues: tuple
    multiplicities: tuple
    coefficients: tuple

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    def integer_coefficients(self, j: int):
        """(num, den): E_j = sum_i num[i] A_i / den in lowest terms."""
        return _integer_row(self.coefficients[j])

    def validate(self):
        """Full invariant battery in the basis A_0..A_D; returns True.

        Proves E_j E_l = delta_jl E_j, A_1 E_j = theta_j E_j, sum_j E_j = A_0
        and trace E_j = n e[j][0] = m_j through A_a A_b = sum_k p^k_ab A_k,
        plus the count, order and sum of the spectrum.  Every failure raises
        ConstructionError, so python -O does not disable the battery.
        """
        g = self.graph
        n = g.vertex_count
        thetas, mults, e = self.eigenvalues, self.multiplicities, self.coefficients
        p = self.intersection.p.tolist()
        size = g.diameter + 1

        def require(ok, what):
            if not ok:
                raise ConstructionError(f"{g.label()}: spectral check failed: {what}")

        counts = (self.count, len(mults), len(e), len(p))
        require(counts == (size,) * 4, f"{counts} entries for diameter {g.diameter}")
        require(list(thetas) == sorted(set(thetas), reverse=True), f"order of {thetas}")
        require(sum(mults) == n, f"multiplicities {mults} do not sum to {n}")
        require(mults[0] == 1 and min(mults) > 0, f"multiplicities {mults}")
        require([sum(c) for c in zip(*e)] == [1] + [0] * (size - 1), "sum_j E_j != I")
        # f_j = den_j e_j is an integer vector, so the products stay in ints:
        # E_j E_l = delta_jl E_j becomes f_j f_l = delta_jl den_l f_j
        f, dens = zip(*map(_integer_row, e))
        for j in range(size):
            require(n * e[j][0] == mults[j], f"trace E_{j} != m_{j} = {mults[j]}")
            m = _times_matrix(p, f[j])
            require(m[1] == [thetas[j] * c for c in f[j]], f"A E_{j} != theta E_{j}")
            for l in range(j, size):
                want = [dens[l] * c for c in f[j]] if l == j else [0] * size
                got = [sum(y * row[k] for y, row in zip(f[l], m)) for k in range(size)]
                require(got == want, f"E_{j} E_{l}")
        return True


def spectral_data(g: GraphInstance, intersection: IntersectionArray = None):
    """Spectrum and idempotents of g from its intersection array.

    Pass the array check_distance_regular returned for g; without one it is
    derived here, and a graph that is not distance regular raises
    SpectralIntegralityError chained from the NotDistanceRegularError.
    """
    if intersection is None:
        try:
            intersection = check_distance_regular(g)
        except NotDistanceRegularError as exc:
            raise SpectralIntegralityError(
                f"{g.label()} is not distance regular: no intersection array"
            ) from exc
    p = intersection.p.tolist()
    n = g.vertex_count
    k = intersection.degree
    if not all(p[i + 1][1][i] for i in range(g.diameter)):
        raise SpectralIntegralityError(f"{g.label()}: some b_i = 0, not a path metric")
    thetas, mults, coefficients = [], [], []
    for theta in range(k, -k - 1, -1):
        u = _cosine_sequence(p, theta)
        if u is None:
            continue
        m = n / sum(p[i][i][0] * x * x for i, x in enumerate(u))
        if m.denominator != 1:
            raise SpectralIntegralityError(
                f"{g.label()}: eigenvalue {theta} has multiplicity {m}"
            )
        thetas.append(theta)
        mults.append(int(m))
        coefficients.append(tuple(m * x / n for x in u))
    if len(thetas) != g.diameter + 1:
        raise SpectralIntegralityError(
            f"{g.label()}: {len(thetas)} integer eigenvalues for diameter {g.diameter}"
        )
    return SpectralData(
        g, intersection, tuple(thetas), tuple(mults), tuple(coefficients)
    )


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
