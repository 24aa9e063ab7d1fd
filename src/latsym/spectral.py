"""Exact spectral analysis: characteristic polynomials, cospectrality,
walk equivalence, and the isospectral reduction onto a site pair.

One engine: walks on A = dH, d the common denominator of H, by `_times_a`, a
sparse product in Python integers.  The network keeps each site's closed-walk
counts s_j(w) = (A^j)_ww, extended only as far as a query reads them, so
every query on one network shares them; from y_i = A^i e_w, s_2i = y_i.y_i
and s_(2i+1) = y_i.y_(i+1), at most ceil(n/2) products per site.

Integer polynomials.  With mu = d*lam, det(mu*I - A) = d^n phi(G) =
sum c_k mu^(n-k) is monic: c_0 = 1 and, by Newton's identities,
c_k = -(sum_(i<=k) c_(k-i) p_i)/k, an exact division, with the power sums
p_i = tr A^i = sum_w s_i(w); `char_poly` computes it.  adj(mu*I - A) =
d^(n-1) adj(lam*I - H) = sum B_k mu^(n-1-k) with B_k = sum_(j<=k) c_(k-j) A^j
(Godsil, Algebraic Combinatorics, 1993).  A polynomial scaled by d^m (m its
degree unless stated) becomes one in lam by dividing its coefficient of mu^i
by d^(m-i).  The resultant of two monic polynomials of degrees m and k grows
by d^(m*k), so it keeps its sign.

Strong cospectrality.  With E_theta the eigenprojectors of H and
x = e_u +/- e_v, G_vv +/- G_uv = sum_theta |E_theta x|^2/2 * 1/(lam - theta),
so its reduced denominator P+/- is the monic, square-free product of
(lam - theta) over the theta with E_theta x != 0.  For a cospectral pair
(A^j)_uu = (A^j)_vv, so s+/-_j = (A^j)_vv +/- (A^j)_uv = x^T A^j x/2
= sum_theta |E_theta x|^2/2 * (d theta)^j.  The weights are positive, so the
minimal polynomial of the sequence is prod (mu - d theta) over exactly those
theta: P+/- in mu, monic in Z[mu] because its roots are algebraic integers
and its coefficients rational.  Its degree L is at most n, and
Berlekamp-Massey (Massey, IEEE Trans. Inf. Theory 15, 1969) finds it from 2L
terms, all read off one walk A^j e_v, j < 2n.  A simple theta has an
eigenvector with q_u = +/-q_v, so it lies in at most one factor, and a theta
of multiplicity m >= 2 adds at most 2 <= m to both degrees:
deg P+ + deg P- <= n, so P+ needs only 2(n - deg P-) terms.  P+/- need no
phi(G).

The reduction.  The pair's reduction R = [[a, b], [b, a]] has
(lam*I - R)^-1 = [(lam*I - H)^-1]_SS, S = {u, v}, so
G_vv +/- G_uv = 1/(lam - a -/+ b) and a +/- b = lam - P+/-/N+/-, with N+/-/P+/-
that generating function in lowest terms.  In mu it is d sum_j s+/-_j
mu^(-j-1), so N+/-(mu) is the polynomial part of P+/-(mu) sum_j s+/-_j
mu^(-j-1): the first deg P+/- moments, no phi(G), and monic since s+/-_0 = 1.
P+/- is square-free and coprime to N+/-, so the reduction polynomial
(lam - a)^2 - b^2 = P+ P-/(N+ N-) has a double root exactly where P+ and P-
share one.  Strong cospectrality is therefore resultant(P+, P-) != 0.  That
test, the moments, P+/-, N+/- and the split of phi(G) into P+ P- P0 live in
one place, the pair data `_pair_polys` returns; every caller in latsym reads
them from there, and none reads phi(G).  In mu, P0 is monic of degree
m = n - deg P+ - deg P-, and power sums add over a product, so P0's are
tr A^i - p_i(P+ P-), i <= m, and Newton's identities give P0 from them: the
traces from the walk table extended only to depth m, p_i(P+ P-) from its
coefficients.

Cospectrality and singlets need no adjugate.  B_k is unitriangular in the
powers, so adj_uw = adj_vw iff (A^j)_uw = (A^j)_vw for every j < n, w = u, v
included.  The pair is therefore cospectral iff s_j(u) = s_j(v), and w is a
singlet iff z_j[w] = 0 with z_j = A^j (e_u - e_v), for every j < n.

Everything in this module is exact integer or rational arithmetic; identical
inputs give bit-identical outputs.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul, sub
from typing import NamedTuple, Sequence

from .network import Network, has_swap_automorphism
from .polynomial import (
    RationalPoly,
    _int_add,
    _int_exact_div,
    _int_gcd,
    _int_mul,
    _int_resultant,
    _lam_poly,
    _trim,
)


class SpectralError(ValueError):
    pass


def _times_a(rows, y: list[int]) -> list[int]:
    """A y for A given by its rows, touching only the rows of y's support."""
    out = [0] * len(rows)
    for k, yk in enumerate(y):
        if yk:
            for j, a in rows[k]:
                out[j] += a * yk
    return out


def _row_walk(rows, i: int, n: int) -> list[list[int]]:
    """The walk A^t e_i, t < n, from 0-based site i."""
    y = [0] * len(rows)
    y[i] = 1
    walk = [y]
    while len(walk) < n:
        walk.append(_times_a(rows, walk[-1]))
    return walk


def _closed_walks(net: Network, w: int, j: int) -> tuple[int, ...]:
    """s_0, ..., s_m, m >= j, of 0-based site w: s_i = (A^i)_ww, A = d*H.

    The network's walk table holds (counts, y_i) per site and is extended two
    counts per product; an entry is replaced whole, never changed in place.
    """
    form = net._integer_form
    counts, y = form.walks.get(w, ((1,), None))
    if len(counts) > j:
        return counts
    if y is None:
        y = [0] * net.n
        y[w] = 1
    counts = list(counts)
    while len(counts) <= j:
        nxt = _times_a(form.rows, y)
        counts += (sum(map(mul, y, nxt)), sum(map(mul, nxt, nxt)))
        y = nxt
    counts = tuple(counts)
    form.walks[w] = (counts, tuple(y))
    return counts


def _walk_singlets(net: Network, u: int, v: int) -> frozenset[int]:
    """Sites w outside the pair with z_j[w] = 0 for every j < n, z_j = A^j (e_u - e_v)."""
    rows = net._integer_form.rows
    z = [0] * net.n
    z[u - 1], z[v - 1] = 1, -1
    alive = set(range(net.n)) - {u - 1, v - 1}
    for _ in range(net.n - 1):
        if not alive:
            break
        z = _times_a(rows, z)
        alive = {w for w in alive if z[w] == 0}
    return frozenset(w + 1 for w in alive)


def _traces(net: Network, m: int) -> list[int]:
    """tr A^i = sum_w s_i(w), i = 1..m, from the walk table extended to depth m."""
    counts = [_closed_walks(net, w, m) for w in range(net.n)]
    return [sum(s[i] for s in counts) for i in range(1, m + 1)]


def _from_power_sums(p: Sequence[int]) -> list[int]:
    """The monic polynomial, ascending, whose roots have the power sums
    p_1, ..., p_m: c_0 = 1 and c_k = -(sum_(i<=k) c_(k-i) p_i)/k (Newton's
    identities).  Raises ValueError where a division leaves a remainder, as
    then no monic integer polynomial has these power sums."""
    cs = [1]
    for k in range(1, len(p) + 1):
        c, rem = divmod(-sum(map(mul, cs[::-1], p)), k)
        if rem:
            raise ValueError(f"power sums give the non-integer coefficient c_{k}")
        cs.append(c)
    return cs[::-1]


def _power_sums(f: list[int], m: int) -> list[int]:
    """p_1, ..., p_m of the roots of a monic integer polynomial f, ascending:
    p_k = -k c_k - sum_(i<k) c_(k-i) p_i, Newton's identities solved the other way."""
    c = f[::-1] + [0] * (m + 1 - len(f))
    p: list[int] = []
    for k in range(1, m + 1):
        p.append(-k * c[k] - sum(map(mul, c[k - 1 : 0 : -1], p)))
    return p


def char_poly(net: Network) -> RationalPoly:
    """det(lam*I - H) as an exact monic polynomial: d^n phi(G) = det(mu*I - A),
    mu = d*lam, from the power sums tr A^i, i <= n, by Newton's identities
    (module docstring)."""
    return _lam_poly(_from_power_sums(_traces(net, net.n)), net._integer_form.d)


def is_cospectral(net: Network, u: int, v: int) -> bool:
    """Equal characteristic polynomials after deleting u resp. v.

    Decided as s_j(u) = s_j(v) for the closed-walk counts, j < n (see the
    module docstring), stopping at the first j where they differ.
    """
    net.check_pair(u, v)
    for j in range(net.n):
        if _closed_walks(net, u - 1, j)[j] != _closed_walks(net, v - 1, j)[j]:
            return False
    return True


@dataclass(frozen=True)
class ParityDecomposition:
    p_plus: RationalPoly
    p_minus: RationalPoly
    p_zero: RationalPoly


def _min_poly(seq: Sequence[int]) -> list[int]:
    """The monic minimal polynomial, ascending, of an integer sequence whose
    linear complexity L has 2L <= len(seq): Berlekamp-Massey with no division.

    c is the connection polynomial 1 + c_1 x + ... up to an integer factor, and
    prev the one before the last length change, with discrepancy b; each
    update b*c - d*x^m*prev stays in Z[x] and drops its content.  The minimal
    polynomial x^L c(1/x) is monic in Z[x] for the sequences latsym reads, so
    c_0 divides it exactly; where it does not, the division raises ValueError.
    """
    c, prev, b, length, m = [1], [1], 1, 0, 1
    for k in range(len(seq)):
        d = sum(map(mul, c, seq[k::-1]))
        if d == 0:
            m += 1
            continue
        new = [b * x for x in c] + [0] * (m + len(prev) - len(c))
        for i, y in enumerate(prev, m):
            new[i] -= d * y
        g = gcd(*new)
        new = _trim([x // g for x in new])
        if 2 * length <= k:
            prev, b, length, m = c, d, k + 1 - length, 1
        else:
            m += 1
        c = new
    c += [0] * (length + 1 - len(c))
    return _int_exact_div(c[::-1], [c[0]])


@dataclass(frozen=True)
class _PairPolys:
    """A cospectral pair (u, v) of a network and the parity data that the
    reduction and every strong-cospectrality decision read from it: the walk
    moments, P+/-, the reduction's numerators N+/-, the resultant of P+ and P-
    and, for a strongly cospectral pair, the split of phi(G), as integer
    polynomials in mu = d*lam.  None of them reads phi(G)."""

    net: Network
    u: int
    v: int

    @property
    def d(self) -> int:
        return self.net._integer_form.d

    @cached_property
    def moments(self) -> tuple[list[int], list[int]]:
        """s+/-_j = (A^j)_vv +/- (A^j)_uv, j < 2n, off one walk y_j = A^j e_v
        of which only the entries u and v are kept."""
        n, rows = self.net.n, self.net._integer_form.rows
        u, v = self.u - 1, self.v - 1
        y = [0] * n
        y[v] = 1
        plus, minus = [1], [1]
        for _ in range(2 * n - 1):
            y = _times_a(rows, y)
            plus.append(y[v] + y[u])
            minus.append(y[v] - y[u])
        return plus, minus

    @cached_property
    def parity_factors(self) -> tuple[list[int], list[int]]:
        """P+ and P- in mu: the minimal polynomials of the moments s+/-_j.

        P- reads all 2n terms; P+ reads 2(n - deg P-), since
        deg P+ + deg P- <= n (module docstring).
        """
        plus, minus = self.moments
        p_minus = _min_poly(minus)
        return _min_poly(plus[: 2 * (self.net.n + 1 - len(p_minus))]), p_minus

    @cached_property
    def numerators(self) -> tuple[list[int], list[int]]:
        """N+ and N- in mu: the polynomial part of P+/-(mu) sum_j s+/-_j mu^(-j-1),
        from the first deg P+/- moments, monic as s+/-_0 = 1."""
        return tuple(
            [sum(map(mul, p[k + 1 :], s)) for k in range(len(p) - 1)]
            for p, s in zip(self.parity_factors, self.moments)
        )

    @cached_property
    def resultant(self) -> int:
        """Res_mu(P+, P-), zero exactly when the pair is not strongly cospectral.

        It is d^(deg P+ * deg P-) * Res_lam(P+, P-), so it has the same sign.
        """
        return _int_resultant(*self.parity_factors)

    @cached_property
    def decomposition(self) -> ParityDecomposition | None:
        """P+, P- and P0 = phi(G)/(P+ P-) in lam; None unless strongly cospectral.

        P+ and P- are coprime monic divisors of d^n phi(G) in Z[mu], so P0 is
        monic of degree m = n - deg P+ - deg P-, with the power sums
        tr A^i - p_i(P+ P-), i = 1..m (module docstring).
        """
        if self.resultant == 0:
            return None
        p_plus, p_minus = self.parity_factors
        m = self.net.n + 2 - len(p_plus) - len(p_minus)
        if m < 0:
            raise ValueError("deg P+ + deg P- exceeds the number of sites")
        rest = _power_sums(_int_mul(p_plus, p_minus), m)
        p_zero = _from_power_sums(list(map(sub, _traces(self.net, m), rest)))
        return ParityDecomposition(*(_lam_poly(p, self.d) for p in (p_plus, p_minus, p_zero)))


def _pair_polys(net: Network, u: int, v: int) -> _PairPolys | None:
    """The parity data of a pair; None unless cospectral, which is_cospectral
    decides from the closed-walk counts before any walk of the pair's own."""
    if not is_cospectral(net, u, v):
        return None
    return _PairPolys(net, u, v)


def is_latent_symmetric(net: Network, u: int, v: int) -> bool:
    """Cospectral but not exchanged by any structural permutation."""
    return is_cospectral(net, u, v) and not has_swap_automorphism(net, u, v)


def singlet_sites(net: Network, u: int, v: int) -> frozenset[int]:
    """Sites w outside the cospectral pair with (H^m)[u,w] = (H^m)[v,w] for every m."""
    if not is_cospectral(net, u, v):
        raise SpectralError("singlet sites are defined relative to a cospectral pair")
    return _walk_singlets(net, u, v)


class ReducedEntry(NamedTuple):
    """An entry num/den of the reduction in lowest terms, den monic."""

    num: RationalPoly
    den: RationalPoly


@dataclass(frozen=True)
class ReductionMatrix:
    """2x2 reduction with equal diagonal entries a and equal off-diagonals b."""

    a: ReducedEntry
    b: ReducedEntry
    # the pair data `isospectral_reduction` read a and b from, for reduction_charpoly
    _pair: _PairPolys | None = field(default=None, init=False, repr=False, compare=False)


def isospectral_reduction(net: Network, u: int, v: int) -> ReductionMatrix:
    """Reduce H onto the pair {u, v}: R(lam) = H_SS - H_SC (H_CC - lam I)^-1 H_CS.

    Entries come out in lowest terms from the pair's walk moments (module
    docstring): d(a +/- b) = (mu N+/- - P+/-)/N+/- in mu = d*lam, so 2d*a and
    2d*b are (e+ N- +/- e- N+)/(N+ N-) with e+/- = mu N+/- - P+/-.  One gcd
    with N+ N-, monic because N+/- are, reduces each, and the degree of the
    reduced denominator sets the scale of the one conversion to lam.  The pair
    must be cospectral (equal diagonal entries); otherwise this raises.
    """
    pair = _pair_polys(net, u, v)
    if pair is None:
        raise SpectralError(
            "reduction is not bisymmetric for this pair (the pair is not cospectral)"
        )
    d, (p_plus, p_minus), (n_plus, n_minus) = pair.d, pair.parity_factors, pair.numerators
    plus = _int_mul(_int_add([0, *n_plus], p_plus, -1), n_minus)  # e+ N-
    minus = _int_mul(_int_add([0, *n_minus], p_minus, -1), n_plus)  # e- N+
    den = _int_mul(n_plus, n_minus)

    def reduced(num: list[int]) -> ReducedEntry:
        g = _int_gcd(num, den)
        q = _int_exact_div(den, g)
        # the numerator's scale is 2d^len(q): d^deg(q) from q, then one d and the 2
        num = _int_exact_div(num, g)
        return ReducedEntry(
            RationalPoly([Fraction(c, 2 * d ** (len(q) - i)) for i, c in enumerate(num)]),
            _lam_poly(q, d),
        )

    red = ReductionMatrix(a=reduced(_int_add(plus, minus)), b=reduced(_int_add(plus, minus, -1)))
    object.__setattr__(red, "_pair", pair)
    return red


def reduction_charpoly(red: ReductionMatrix) -> RationalPoly:
    """Numerator of (a(lam) - lam)^2 - b(lam)^2 after full cancellation, monic.

    Its roots are the non-linear eigenvalues of the reduction.  In mu = d*lam
    it is P+ P- over one gcd with N+ N- (module docstring), read from the pair
    data that only a matrix `isospectral_reduction` returned carries.
    """
    pair = red._pair
    if pair is None:
        raise SpectralError("reduction_charpoly: not a ReductionMatrix from isospectral_reduction")
    num = _int_mul(*pair.parity_factors)
    return _lam_poly(_int_exact_div(num, _int_gcd(num, _int_mul(*pair.numerators))), pair.d)


def is_strongly_cospectral(net: Network, u: int, v: int) -> bool:
    """Cospectral and every non-linear eigenvalue of the reduction is simple.

    Decided as resultant(P+, P-) != 0 (see the module docstring).
    """
    pair = _pair_polys(net, u, v)
    return pair is not None and pair.resultant != 0
