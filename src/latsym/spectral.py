"""Exact spectral analysis: characteristic polynomials, cospectrality,
walk equivalence, and the isospectral reduction onto a site pair.

Every exact polynomial comes from one engine, `_minors`: minors of lam*I - H
by fraction-free integer determinants at integer lam plus interpolation.  For
a pair (u, v), with C the other sites, three minors describe everything:
D = phi(G - {u, v}) on (C, C), phi(G - v) on (C+u, C+u) (equal to phi(G - u)
on (C+v, C+v) exactly when the pair is cospectral), and
A_uv = [adj(lam*I - H)]_uv = -minor on (C+u, C+v).  Then a = lam - phi(G - v)/D,
b = A_uv/D, the Jacobi identity phi(G - u) phi(G - v) - A_uv^2 = phi(G) D gives
phi(G), and the reduction polynomial is phi(G)/D in lowest terms.

Everything in this module is exact rational arithmetic; identical inputs give
bit-identical outputs.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .network import Network, has_swap_automorphism
from .polynomial import (
    RationalFunction,
    RationalPoly,
    _bareiss_det,
    is_squarefree,
    poly_gcd,
)


class SpectralError(ValueError):
    pass


def _interpolate(xs: list[int], ys: list[Fraction]) -> RationalPoly:
    # Newton divided differences, expanded to the monomial basis
    m = len(xs)
    coef = list(ys)
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = RationalPoly()
    for i in range(m - 1, -1, -1):
        poly = poly * RationalPoly([-xs[i], 1]) + RationalPoly.const(coef[i])
    return poly


_Minor = Callable[[Sequence[int], Sequence[int]], RationalPoly]


def _minors(net: Network) -> _Minor:
    """The exact minor engine of lam*I - H for one network.

    The returned `_minor(rows, cols)` takes equally long lists of 0-based
    sites and gives det (lam*I - H)[rows, cols] as an exact polynomial.  A
    minor of size m has degree at most m: it is evaluated at m+1 integer
    points with fraction-free integer determinants of d*(lam*I - H), d the
    common denominator of H, then interpolated; both stages are exact.
    """
    h = net.hamiltonian()
    d = lcm(*(e.denominator for row in h for e in row))
    hs = [[int(e * d) for e in row] for row in h]

    def _minor(rows: Sequence[int], cols: Sequence[int]) -> RationalPoly:
        m = len(rows)
        xs = list(range(m + 1))
        dm = d**m
        ys = []
        for x in xs:
            dx = d * x
            b = [[(dx if i == j else 0) - hs[i][j] for j in cols] for i in rows]
            ys.append(Fraction(_bareiss_det(b), dm))
        return _interpolate(xs, ys)

    return _minor


def char_poly(net: Network) -> RationalPoly:
    """det(lam*I - H) as an exact monic polynomial."""
    sites = range(net.n)
    return _minors(net)(sites, sites)


def _pair_sites(net: Network, u: int, v: int) -> tuple[_Minor, list[int], list[int], list[int]]:
    """Minor engine of net and the 0-based site lists C, C+u, C+v of the pair."""
    net.check_pair(u, v)
    c = [i for i in range(net.n) if i not in (u - 1, v - 1)]
    return _minors(net), c, c + [u - 1], c + [v - 1]


def is_cospectral(net: Network, u: int, v: int) -> bool:
    """Equal characteristic polynomials after deleting u resp. v."""
    minor, _, cu, cv = _pair_sites(net, u, v)
    return minor(cu, cu) == minor(cv, cv)


@dataclass(frozen=True)
class _PairPolys:
    """The minors of lam*I - H that describe a cospectral pair (u, v)."""

    d: RationalPoly  # phi(G - {u, v})
    phi: RationalPoly  # phi(G - u) = phi(G - v), monic of degree n - 1
    a_uv: RationalPoly  # [adj(lam*I - H)]_uv, of degree below n - 1

    def char_poly(self) -> RationalPoly:
        """phi(G) by the Jacobi identity phi(G-u) phi(G-v) - A_uv^2 = phi(G) D."""
        return (self.phi * self.phi - self.a_uv * self.a_uv).exact_div(self.d)

    def reduction_poly(self) -> RationalPoly:
        """Monic numerator of (a - lam)^2 - b^2 = phi(G)/D in lowest terms."""
        return _lowest_terms(self.char_poly(), self.d)

    def parity_factors(self) -> tuple[RationalPoly, RationalPoly]:
        """Monic numerators of a + b - lam = -(phi(G - v) - A_uv)/D and
        a - b - lam = -(phi(G - v) + A_uv)/D in lowest terms."""
        return (
            _lowest_terms(self.phi - self.a_uv, self.d),
            _lowest_terms(self.phi + self.a_uv, self.d),
        )


def _lowest_terms(num: RationalPoly, den: RationalPoly) -> RationalPoly:
    return num.exact_div(poly_gcd(num, den)).monic()


def _pair_polys(net: Network, u: int, v: int) -> _PairPolys:
    """D, phi(G - v) and A_uv of a pair; raises unless the pair is cospectral."""
    minor, c, cu, cv = _pair_sites(net, u, v)
    phi_v = minor(cu, cu)
    if minor(cv, cv) != phi_v:
        raise SpectralError(
            "reduction is not bisymmetric for this pair (the pair is not cospectral)"
        )
    return _PairPolys(d=minor(c, c), phi=phi_v, a_uv=-minor(cu, cv))


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
    if not is_cospectral(net, u, v):
        return False
    return is_squarefree(_pair_polys(net, u, v).reduction_poly())
