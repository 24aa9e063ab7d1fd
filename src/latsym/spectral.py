"""Exact spectral analysis: characteristic polynomials, cospectrality,
walk equivalence, and the isospectral reduction onto a site pair.

Every exact polynomial comes from one engine, `_adjugate`: a single
Faddeev-LeVerrier pass in integers gives phi(G) = det(lam*I - H) and every
entry of the polynomial adjugate adj(lam*I - H).  For a pair (u, v) the
diagonal entries are phi(G - u) and phi(G - v) (equal exactly when the pair is
cospectral), the off-diagonal entry is A_uv, and the Jacobi identity
phi(G - u) phi(G - v) - A_uv^2 = phi(G) D gives D = phi(G - {u, v}) by exact
division.  Then a = lam - phi(G - v)/D, b = A_uv/D, and the reduction
polynomial is phi(G)/D in lowest terms.

Everything in this module is exact rational arithmetic; identical inputs give
bit-identical outputs.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

from .network import Network, has_swap_automorphism
from .polynomial import (
    RationalFunction,
    RationalPoly,
    is_squarefree,
    poly_gcd,
)


class SpectralError(ValueError):
    pass


def _adjugate(net: Network) -> tuple[RationalPoly, Callable[[int, int], RationalPoly]]:
    """phi(G) and a reader entry(i, j) of [adj(lam*I - H)]_ij, 0-based sites.

    Faddeev-LeVerrier on A = d*H, d the common denominator of H, in Python
    integers: B_0 = I, c_k = -tr(A B_(k-1))/k (an exact division, since the
    c_k are the coefficients of det(mu*I - A)) and B_k = A B_(k-1) + c_k I.
    Then phi(G) = sum c_k/d^k lam^(n-k) and adj(lam*I - H) =
    sum B_k/d^k lam^(n-1-k).  Every B_k is a polynomial in the symmetric A,
    so it is symmetric: only the upper triangle of each product is formed,
    and tr(A B) is read elementwise as the sum of A_ij B_ij.
    """
    h = net.hamiltonian()
    n = net.n
    d = lcm(*(e.denominator for row in h for e in row))
    a = [[(j, int(e * d)) for j, e in enumerate(row) if e] for row in h]
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    bs, cs = [b], [1]
    for k in range(1, n + 1):
        c = -sum(x * b[i][j] for i, row in enumerate(a) for j, x in row) // k
        cs.append(c)
        if k == n:
            break
        prev, b = b, [[0] * n for _ in range(n)]
        for i, row in enumerate(a):
            for j in range(i, n):
                b[i][j] = b[j][i] = sum(x * prev[l][j] for l, x in row)
            b[i][i] += c
        bs.append(b)
    phi = RationalPoly([Fraction(cs[k], d**k) for k in range(n, -1, -1)])

    def entry(i: int, j: int) -> RationalPoly:
        return RationalPoly([Fraction(bs[k][i][j], d**k) for k in range(n - 1, -1, -1)])

    return phi, entry


def char_poly(net: Network) -> RationalPoly:
    """det(lam*I - H) as an exact monic polynomial."""
    return _adjugate(net)[0]


def is_cospectral(net: Network, u: int, v: int) -> bool:
    """Equal characteristic polynomials after deleting u resp. v."""
    return _pair_polys(net, u, v) is not None


@dataclass(frozen=True)
class _PairPolys:
    """The adjugate entries that describe a cospectral pair (u, v)."""

    phi_g: RationalPoly  # phi(G)
    d: RationalPoly  # phi(G - {u, v})
    phi: RationalPoly  # phi(G - u) = phi(G - v), monic of degree n - 1
    a_uv: RationalPoly  # [adj(lam*I - H)]_uv, of degree below n - 1

    def reduction_poly(self) -> RationalPoly:
        """Monic numerator of (a - lam)^2 - b^2 = phi(G)/D in lowest terms."""
        return _lowest_terms(self.phi_g, self.d)

    def parity_factors(self) -> tuple[RationalPoly, RationalPoly]:
        """Monic numerators of a + b - lam = -(phi(G - v) - A_uv)/D and
        a - b - lam = -(phi(G - v) + A_uv)/D in lowest terms."""
        return (
            _lowest_terms(self.phi - self.a_uv, self.d),
            _lowest_terms(self.phi + self.a_uv, self.d),
        )


def _lowest_terms(num: RationalPoly, den: RationalPoly) -> RationalPoly:
    return num.exact_div(poly_gcd(num, den)).monic()


def _pair_polys(net: Network, u: int, v: int) -> _PairPolys | None:
    """The polynomials of a pair from one adjugate pass; None unless cospectral.

    phi(G - u) and phi(G - v) are the diagonal entries adj_uu and adj_vv, and
    D = phi(G - {u, v}) follows from the Jacobi identity
    adj_uu adj_vv - adj_uv^2 = phi(G) D by exact division.
    """
    net.check_pair(u, v)
    phi_g, entry = _adjugate(net)
    phi_v = entry(v - 1, v - 1)
    if entry(u - 1, u - 1) != phi_v:
        return None
    a_uv = entry(u - 1, v - 1)
    d = (phi_v * phi_v - a_uv * a_uv).exact_div(phi_g)
    return _PairPolys(phi_g=phi_g, d=d, phi=phi_v, a_uv=a_uv)


def is_latent_symmetric(net: Network, u: int, v: int) -> bool:
    """Cospectral but not exchanged by any structural permutation."""
    return is_cospectral(net, u, v) and not has_swap_automorphism(net, u, v)


def singlet_sites(net: Network, u: int, v: int, max_power: int | None = None) -> frozenset[int]:
    """Sites w with (H^m)[u,w] = (H^m)[v,w] for every power m.

    Powers up to n-1 suffice (Cayley-Hamilton); max_power overrides for
    cross-checking.  The pair must be cospectral.
    """
    if not is_cospectral(net, u, v):
        raise SpectralError("singlet sites are defined relative to a cospectral pair")
    n = net.n
    top = n - 1 if max_power is None else max_power
    h = net.hamiltonian()
    ru = [Fraction(int(i == u - 1)) for i in range(n)]
    rv = [Fraction(int(i == v - 1)) for i in range(n)]
    alive = {w for w in range(1, n + 1) if w not in (u, v)}
    for _ in range(top):
        ru = [sum(ru[i] * h[i][j] for i in range(n)) for j in range(n)]
        rv = [sum(rv[i] * h[i][j] for i in range(n)) for j in range(n)]
        alive = {w for w in alive if ru[w - 1] == rv[w - 1]}
        if not alive:
            break
    return frozenset(alive)


@dataclass(frozen=True)
class ReductionMatrix:
    """2x2 reduction with equal diagonal entries a and equal off-diagonals b."""

    a: RationalFunction
    b: RationalFunction


def isospectral_reduction(net: Network, u: int, v: int) -> ReductionMatrix:
    """Reduce H onto the pair {u, v}: R(lam) = H_SS - H_SC (H_CC - lam I)^-1 H_CS.

    Entries come out as fully reduced rational functions in lam:
    a = (lam*D - phi(G - v))/D and b = A_uv/D with D = phi(G - {u, v}).
    Equal diagonal entries are required (they are equal exactly when the pair
    is cospectral); otherwise this raises.
    """
    pair = _pair_polys(net, u, v)
    if pair is None:
        raise SpectralError(
            "reduction is not bisymmetric for this pair (the pair is not cospectral)"
        )
    return ReductionMatrix(
        a=RationalFunction(RationalPoly.x() * pair.d - pair.phi, pair.d),
        b=RationalFunction(pair.a_uv, pair.d),
    )


def reduction_charpoly(red: ReductionMatrix) -> RationalPoly:
    """Numerator of (a(lam) - lam)^2 - b(lam)^2 after full cancellation, monic.

    Its roots are the non-linear eigenvalues of the reduction.
    """
    lam = RationalFunction(RationalPoly.x())
    q = (red.a - lam) * (red.a - lam) - red.b * red.b
    if q.num.is_zero:
        raise SpectralError("degenerate reduction: identically zero determinant")
    return q.num.monic()


def is_strongly_cospectral(net: Network, u: int, v: int) -> bool:
    """Cospectral and every non-linear eigenvalue of the reduction is simple."""
    pair = _pair_polys(net, u, v)
    return pair is not None and is_squarefree(pair.reduction_poly())
