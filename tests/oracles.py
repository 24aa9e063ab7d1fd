"""Exact arithmetic over Q on plain `Fraction` coefficients: the tests' oracle
for polynomial sums, products and point values, and for rational functions.

Polynomials go in as `RationalPoly` (only their coefficients are read) and
come out as `RationalPoly`.  A rational function is a (num, den) pair in lowest
terms with den monic, the form `isospectral_reduction` returns its entries in.
Everything here works coefficient by coefficient in `Fraction` and reduces by
Euclid's algorithm with long division over Q, so none of it calls the integer
core that latsym computes on; `rational_function_charpoly` builds the
reduction polynomial (a - lam)^2 - b^2 from a reduction's entries with it.
`berlekamp_massey` is the textbook algorithm over Q, the oracle for the
integer one that finds the parity factors.
`adjugate` gives every entry of adj(mu*I - A) by the dense Faddeev-LeVerrier
recursion, not latsym's walk engine.  `eigenprojector_parity` is a float
verdict on strong cospectrality from an eigendecomposition, the cross-check
of the exact one.  `np_roots_distance` is the least parity-root distance of
one grid point from two `np.roots` calls, the oracle for the stacked
companion eigenvalues of `boundary_scan`.  `distinct_degree` is the
distinct-degree factorisation mod p that powers h <- h^p mod f afresh for
every degree d, on latsym's mod-p helpers: the oracle for the Frobenius
matrix of `polynomial._distinct_degree`.
`direct_confinement` is the largest amplitude that the antisymmetric input
sends to a site set, from one exp(-i lam tau) per sample and eigenvalue: the
oracle for the phase table of `walk.antisymmetric_confinement`.
"""

from fractions import Fraction
from math import lcm
from sys import float_info

import numpy as np

from latsym.polynomial import RationalPoly, _mod_add, _mod_divmod, _mod_gcd, _mod_pow

ONE = RationalPoly([1])
LAM = RationalPoly([0, 1])


def add(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    return RationalPoly([a[i] + b[i] for i in range(max(len(a.coeffs), len(b.coeffs)))])


def neg(a: RationalPoly) -> RationalPoly:
    return RationalPoly([-c for c in a.coeffs])


def sub(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    return add(a, neg(b))


def mul(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    prod = [Fraction(0)] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            prod[i + j] += x * y
    return RationalPoly(prod)


def evaluate(p: RationalPoly, x):
    """p(x) by Horner: exact at an int or Fraction x, a float at a float x."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def divmod_q(a: RationalPoly, b: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
    """Quotient and remainder of long division over Q, b != 0."""
    rem, q = list(a.coeffs), [Fraction(0)] * max(a.degree - b.degree + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        q[i] = c = rem[i + b.degree] / b.leading
        for j, y in enumerate(b.coeffs):
            rem[i + j] -= c * y
    return RationalPoly(q), RationalPoly(rem)


def gcd_q(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    """Monic gcd by Euclid's algorithm over Q; gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, divmod_q(a, b)[1]
    return a if a.is_zero else a.monic()


def reduced(num: RationalPoly, den: RationalPoly = ONE) -> tuple[RationalPoly, RationalPoly]:
    """num/den in lowest terms, den monic."""
    if den.is_zero:
        raise ZeroDivisionError("rational function with zero denominator")
    g = gcd_q(num, den)
    num, den = divmod_q(num, g)[0], divmod_q(den, g)[0]
    return RationalPoly([c / den.leading for c in num.coeffs]), den.monic()


def rf_add(f, g) -> tuple[RationalPoly, RationalPoly]:
    return reduced(add(mul(f[0], g[1]), mul(g[0], f[1])), mul(f[1], g[1]))


def rf_sub(f, g) -> tuple[RationalPoly, RationalPoly]:
    return rf_add(f, (neg(g[0]), g[1]))


def rf_mul(f, g) -> tuple[RationalPoly, RationalPoly]:
    return reduced(mul(f[0], g[0]), mul(f[1], g[1]))


def rf_evaluate(f, x):
    return evaluate(f[0], x) / evaluate(f[1], x)


def rational_function_charpoly(red) -> RationalPoly:
    """The monic numerator of (a - lam)^2 - b^2 for a reduction with entries a
    and b, by rational-function arithmetic: the oracle for `reduction_charpoly`."""
    shifted = rf_sub(red.a, reduced(LAM))
    det = rf_sub(rf_mul(shifted, shifted), rf_mul(red.b, red.b))
    return det[0].monic()


def berlekamp_massey(seq) -> RationalPoly:
    """Monic minimal polynomial of a rational sequence whose linear complexity L
    has 2L <= len(seq), by Berlekamp-Massey over Q (Massey, IEEE Trans. Inf.
    Theory 15, 1969): the shortest recurrence, reversed."""
    c, prev, b, length, m = [Fraction(1)], [Fraction(1)], Fraction(1), 0, 1
    for k in range(len(seq)):
        d = sum((x * y for x, y in zip(c, reversed(seq[: k + 1]))), Fraction(0))
        if d == 0:
            m += 1
            continue
        new = c + [Fraction(0)] * (len(prev) + m - len(c))
        for i, y in enumerate(prev):
            new[i + m] -= d / b * y
        if 2 * length <= k:
            prev, b, length, m = c, d, k + 1 - length, 1
        else:
            m += 1
        c = new
    c = (c + [Fraction(0)] * length)[: length + 1]
    return RationalPoly(c[::-1])


def adjugate(net) -> tuple[int, list[int], list[list[list[int]]]]:
    """d, det(mu*I - A) and adj(mu*I - A) for A = d*H, d the common denominator
    of H, as integer polynomials in mu = d*lam (ascending, zeros trimmed).

    Faddeev-LeVerrier on the dense matrix A: B_0 = I, c_k = -tr(A B_(k-1))/k
    and B_k = A B_(k-1) + c_k I give det = sum c_k mu^(n-k) and
    adj = sum B_k mu^(n-1-k); B_n = 0 (Cayley-Hamilton) is checked.
    """
    h = net.hamiltonian()
    n = len(h)
    d = lcm(*(x.denominator for row in h for x in row))
    rows = [[(t, int(x * d)) for t, x in enumerate(row) if x] for row in h]
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    cs, bs = [1], []
    for k in range(1, n + 1):
        bs.append(b)
        b = [[sum(x * b[t][j] for t, x in row) for j in range(n)] for row in rows]
        c, rem = divmod(-sum(b[i][i] for i in range(n)), k)
        assert rem == 0
        cs.append(c)
        for i in range(n):
            b[i][i] += c
    assert not any(map(any, b))

    def trimmed(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    adj = [[trimmed([bs[n - 1 - m][i][j] for m in range(n)]) for j in range(n)] for i in range(n)]
    return d, cs[::-1], adj


# eigenprojector_parity's tolerances, both scale-free (see its docstring)
_CLUSTER_TOL = 1e-8
_PARITY_TOL = 1e-8


def eigenprojector_parity(sys, u: int, v: int) -> bool:
    """Definite eigenvector parity on (u, v) for every eigenvalue cluster of an
    `EigenSystem`.

    Eigenvalues closer than _CLUSTER_TOL times the spectral radius are treated
    as one degenerate cluster and tested through their projector P: the
    parity is definite when P e_u - P e_v or P e_u + P e_v has a norm below
    _PARITY_TOL.
    """
    lam = sys.eigenvalues
    tol = _CLUSTER_TOL * (float(np.abs(lam).max()) if sys.n else 1.0)
    start = 0
    for i in range(1, sys.n + 1):
        if i == sys.n or lam[i] - lam[i - 1] > tol:
            block = sys.eigenvectors[:, start:i]
            pu, pv = block @ block[u - 1], block @ block[v - 1]
            if min(np.linalg.norm(pu - pv), np.linalg.norm(pu + pv)) >= _PARITY_TOL:
                return False
            start = i
    return True


def direct_confinement(sys, u: int, v: int, sites, taus) -> float:
    """Max |psi_w(tau)| over w in sites and tau in taus for the input
    (e_u - e_v)/sqrt(2), with psi(tau) = Q exp(-i Lambda tau) Q^T psi(0) from
    one full (len(taus) x n) table of exponentials."""
    coef = (sys.eigenvectors[u - 1] - sys.eigenvectors[v - 1]) / np.sqrt(2.0)
    phases = np.exp(-1j * np.outer(taus, sys.eigenvalues))
    amps = phases @ (coef[:, None] * sys.eigenvectors[[s - 1 for s in sites]].T)
    return float(np.abs(amps).max())


def np_roots_distance(p_plus: list[int], p_minus: list[int], d: int) -> float:
    """Least distance between the real parts of the roots in lam of two monic
    integer polynomials in mu = d*lam, from one `np.roots` call on each.

    They are read in lam while every coefficient is then a normal float, else
    in nu = mu/2^e with 2^e >= |c_i|^(1/(m-i)) for every coefficient c_i of
    mu^i in a factor of degree m; the distance is scaled back by 2^e/d exactly.
    """
    polys = (p_plus, p_minus)
    try:
        in_lam = all(
            abs(c / d ** (len(p) - 1 - i)) >= float_info.min
            for p in polys for i, c in enumerate(p) if c
        )
    except OverflowError:
        in_lam = False
    scale = d if in_lam else 1 << max(
        -(-c.bit_length() // (len(p) - 1 - i)) for p in polys for i, c in enumerate(p[:-1])
    )

    def roots(p):
        m = len(p) - 1
        return np.roots([p[i] / scale ** (m - i) for i in range(m, -1, -1)]).real

    dist = float(np.abs(roots(p_plus)[:, None] - roots(p_minus)[None, :]).min())
    return float(Fraction(dist) * scale / d)


def distinct_degree(f: list[int], p: int) -> list[tuple[int, list[int]]]:
    """(d, product of the degree-d irreducible factors) of a monic square-free f
    mod p, with x^(p^d) mod f by one binary powering per d."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _mod_pow(h, p, f, p)  # x^(p^d) mod f
        g = _mod_gcd(f, _mod_add(h, [0, 1], p, -1), p)
        if len(g) > 1:
            out.append((d, g))
            f = _mod_divmod(f, g, p)[0]
    return out + [(len(f) - 1, f)] * (len(f) > 1)
