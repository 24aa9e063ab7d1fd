"""The integer polynomial core: `_int_gcd` against sympy, and the pair path in
mu = d*lam against a local copy of the Euclidean gcd over Q it replaced, with
its remainders and exact quotients taken by sympy.

sympy and the local Euclidean copy are the independent oracles here; neither
calls latsym's gcd.
"""

import itertools
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

import oracles
from conftest import mirrored_network, random_network
from latsym import polynomial
from latsym.network import Network, attach
from latsym.ninesite import SINGLET_SITES, build_ninesite
from latsym.pgst import (
    BoundaryPoint,
    boundary_scan,
    is_irreducible,
    parity_decompose,
    pgst_certificate,
)
from latsym.polynomial import (
    RationalPoly,
    _int_exact_div,
    _int_gcd,
    _int_mul,
    _int_resultant,
    _lam_poly,
    det_fraction,
    poly_gcd,
)
from latsym.spectral import (
    _min_poly,
    _pair_polys,
    is_strongly_cospectral,
    isospectral_reduction,
    reduction_charpoly,
)

X = sympy.Symbol("x")
K = Fraction(27, 50)
SCAN_GRID = [Fraction(i, 100) for i in range(-50, 151)]


def sympy_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of ascending integer lists, leading coefficient > 0, by sympy."""
    if not a and not b:
        return []
    g = sympy.Poly(a[::-1] or [0], X, domain="ZZ").gcd(sympy.Poly(b[::-1] or [0], X, domain="ZZ"))
    _, g = g.primitive()
    coeffs = [int(c) for c in g.all_coeffs()[::-1]]
    return coeffs if coeffs[-1] > 0 else [-c for c in coeffs]


def random_int_poly(rng, deg, size=20):
    lead = rng.choice([-1, 1]) * rng.randint(1, size)
    return [rng.randint(-size, size) for _ in range(deg)] + [lead]


def test_int_gcd_matches_sympy_on_planted_common_factors():
    rng = random.Random(1967)
    for trial in range(1200):
        size = 10**12 if trial % 10 == 0 else 20
        a, b, c = (random_int_poly(rng, rng.randint(0, 6), size) for _ in range(3))
        content = rng.choice([1, 1, 2, 6, -15])
        pa, pb = _int_mul(_int_mul(a, c), [content]), _int_mul(b, c)
        got = _int_gcd(pa, pb)
        assert got == sympy_gcd(pa, pb), (pa, pb)
        assert got == _int_gcd(pb, pa)
        assert len(got) >= len(c)


@pytest.mark.parametrize(
    "a, b, want",
    [
        ([], [], []),  # gcd(0, 0) = 0
        ([], [0, -4, 6], [0, -2, 3]),  # gcd(0, b) = pp(b), sign fixed
        ([5], [], [1]),
        ([5], [3, 1], [1]),  # constants
        ([-7], [-14], [1]),
        ([1, 1], [-1, 1], [1]),  # coprime
        ([2, 0, -4], [2, 0, -4], [-1, 0, 2]),  # equal, content 2, negative after pp
        ([-1, 0, 1], [1, 1], [1, 1]),  # one divides the other
        ([6, 6], [-3, 0, 3], [1, 1]),  # content > 1 on both sides
        ([0, 0, -6, -6], [0, 4, 4], [0, 1, 1]),  # negative leading coefficient
        ([1, 0, 1], [1, 0, 0, 0, 1], [1]),
    ],
)
def test_int_gcd_edge_cases(a, b, want):
    assert _int_gcd(a, b) == want == sympy_gcd(a, b)
    assert _int_gcd(b, a) == want


def test_poly_gcd_is_the_integer_gcd_made_monic():
    rng = random.Random(71)

    def qq(p):
        coeffs = [sympy.Rational(x.numerator, x.denominator) for x in reversed(p.coeffs)]
        return sympy.Poly(coeffs or [0], X, domain="QQ")

    for _ in range(200):
        a, b, c = (
            RationalPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                          for _ in range(rng.randint(1, 5))])
            for _ in range(3)
        )
        want = qq(a * c).gcd(qq(b * c))
        coeffs = [] if want.is_zero else reversed(want.all_coeffs())
        assert poly_gcd(a * c, b * c) == RationalPoly([Fraction(int(x.p), int(x.q)) for x in coeffs])


def test_int_exact_div_refuses_a_remainder():
    assert _int_exact_div([-1, 0, 1], [1, 1]) == [-1, 1]
    assert _int_exact_div([], [3, 1]) == []
    with pytest.raises(ValueError):
        _int_exact_div([1, 0, 1], [1, 1])
    with pytest.raises(ValueError):
        _int_exact_div([1, 2], [0, 2])  # divisible over Q, not in Z[x]
    with pytest.raises(ValueError):
        _int_exact_div([1], [1, 1])


def test_min_poly_matches_berlekamp_massey_over_q():
    rng = random.Random(1969)
    for _ in range(200):
        # a sequence from a monic integer recurrence f; its minimal polynomial divides f
        m = rng.randint(1, 8)
        f = [rng.randint(-9, 9) for _ in range(m)] + [1]
        seq = [rng.randint(-5, 5) for _ in range(m)]
        while len(seq) < 2 * m + rng.randint(0, 3):
            seq.append(-sum(map(operator.mul, f[:-1], seq[-m:])))
        want = oracles.berlekamp_massey(seq)
        got = _min_poly(seq)
        assert _lam_poly(got, 1) == want and got[-1] == 1
        if any(seq):
            assert not oracles.divmod_q(RationalPoly(f), want)[1].coeffs
    # 0^j, a constant, zero discrepancies between steps, and a power series of
    # 1/(1 - 3x) with a zero root on top
    assert _min_poly([1, 0, 0, 0]) == [0, 1]
    assert _min_poly([2] * 6) == [-1, 1]
    assert _min_poly([1, 0, 1, 0, 1, 0]) == [-1, 0, 1]
    assert _min_poly([2, 3, 9, 27, 81, 243]) == [0, -3, 1]
    assert _min_poly([]) == [1]
    with pytest.raises(ValueError):
        _min_poly([2, 1])  # s_(j+1) = s_j/2: no integer recurrence, and no floor


@pytest.mark.parametrize("coupling", [Fraction(10**7), Fraction(1, 10**13), K])
def test_nine_site_parity_factors_match_sympy(coupling):
    net = build_ninesite(coupling)
    pair = _pair_polys(net, 2, 6)
    _, phi_g, adj = oracles.adjugate(net)
    phi, a_uv = adj[5][5], adj[1][5]
    for sign, p in zip((1, -1), pair.parity_factors):
        num = [x + sign * y for x, y in itertools.zip_longest(phi, a_uv, fillvalue=0)]
        g = sympy_gcd(phi_g, num)
        quo = sympy.Poly(phi_g[::-1], X).exquo(sympy.Poly(g[::-1], X))
        assert p == [int(c) for c in quo.all_coeffs()[::-1]]
        assert p[-1] == 1


# ---------------------------------------------------------------------------
# The old pair path, copied here: polynomials in lam over Q, parity factors by
# the Euclidean gcd, the resultant as a Fraction Gauss determinant.

def to_sympy(p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                      X, domain="QQ")


def from_sympy(q):
    return RationalPoly([Fraction(int(c.p), int(c.q)) for c in reversed(q.all_coeffs())])


def exquo(a, b):
    """a/b over Q by sympy, which raises unless b divides a."""
    return from_sympy(to_sympy(a).exquo(to_sympy(b)))


def euclid_gcd(a, b):
    a, b = to_sympy(a), to_sympy(b)
    while not b.is_zero:
        a, b = b, a.rem(b)
    return from_sympy(a if a.is_zero else a.monic())


def old_pair(net, u, v):
    d, phi_mu, adj = oracles.adjugate(net)
    phi, a_uv = adj[v - 1][v - 1], adj[u - 1][v - 1]
    n = net.n

    def lam(p, deg):
        return RationalPoly([Fraction(c, d ** (deg - i)) for i, c in enumerate(p)])

    return lam(phi_mu, n), lam(phi, n - 1), lam(a_uv, n - 1)


def old_parity_factors(phi_g, phi, a_uv):
    plus = euclid_gcd(phi_g, oracles.add(phi, a_uv))
    minus = euclid_gcd(phi_g, oracles.sub(phi, a_uv))
    return exquo(phi_g, plus), exquo(phi_g, minus)


def old_reduced(num, den):
    g = euclid_gcd(num, den)
    num, den = exquo(num, g), exquo(den, g)
    return num * (1 / den.leading), den.monic()


def sylvester_resultant(p, q):
    m, n = p.degree, q.degree
    if m == 0 or n == 0:
        return p.leading ** n if m == 0 else q.leading ** m
    pc, qc = list(reversed(p.coeffs)), list(reversed(q.coeffs))
    rows = [[Fraction(0)] * i + pc + [Fraction(0)] * (n - 1 - i) for i in range(n)]
    rows += [[Fraction(0)] * i + qc + [Fraction(0)] * (m - 1 - i) for i in range(m)]
    return det_fraction(rows)


def old_roots(p):
    return np.sort(np.roots([float(p[i]) for i in range(p.degree, -1, -1)]).real)


def old_boundary(builder, k, grid, u=2, v=6):
    points, degrees = [], []
    for e in grid:
        p_plus, p_minus = old_parity_factors(*old_pair(builder(k, e), u, v))
        res = sylvester_resultant(p_plus, p_minus)
        sign = 0 if res == 0 else (1 if res > 0 else -1)
        rp, rm = old_roots(p_plus), old_roots(p_minus)
        degrees.append((p_plus.degree, p_minus.degree))
        dist = float(np.abs(rp[:, None] - rm[None, :]).min())
        points.append(BoundaryPoint(e, res != 0, sign, dist))
    brackets, last = [], {}
    for point, degs in zip(points, degrees):
        prev = last.get(degs)
        if point.resultant_sign == 0:
            brackets.append((point.potential, point.potential))
        elif prev is not None and prev.resultant_sign * point.resultant_sign < 0:
            brackets.append((prev.potential, point.potential))
        last[degs] = point
    return tuple(points), tuple(sorted(brackets))


def test_boundary_report_is_identical_on_the_201_point_grid():
    report = boundary_scan(build_ninesite, K, SCAN_GRID)
    points, brackets = old_boundary(build_ninesite, K, SCAN_GRID)
    assert report.points == points
    assert report.brackets == brackets
    assert report.exact_failures == () and len(brackets) == 3  # near -0.22, 0.22 and 1.30


def test_pair_outputs_are_identical_to_the_euclidean_path(oracle_networks):
    nets = list(oracle_networks)
    nets += [build_ninesite(K, e) for e in SCAN_GRID[::20]]
    nets += [build_ninesite(Fraction(10**7)), build_ninesite(Fraction(1, 10**13))]
    rng = random.Random(28)
    nets += [make(rng, n) for n in range(2, 12) for make in (random_network, mirrored_network)]
    # no edges: every pair is cospectral with P+ = P- = lam - E, never strongly
    nets += [Network(3, [Fraction(0)] * 3, []), Network(2, [Fraction(2, 3)] * 2, [])]
    nets.append(Network(2, [Fraction(1, 3)] * 2, [(1, 2, Fraction(-5, 7))]))  # n = 2
    # degenerate spectra: the twin chains' +1 and -1, and the star's 0 at a pair
    # of leaves, lie in both P+ and P-
    nets.append(Network(4, [Fraction(0)] * 4, [(1, 2, Fraction(1)), (3, 4, Fraction(1))]))
    nets.append(Network(4, [Fraction(0)] * 4, [(4, w, Fraction(1)) for w in (1, 2, 3)]))
    seen = {True: 0, False: 0}
    for net in nets:
        for u, v in itertools.combinations(range(1, net.n + 1), 2):
            pair = _pair_polys(net, u, v)
            if pair is None:
                continue
            phi_g, phi, a_uv = old_pair(net, u, v)
            p_plus, p_minus = old_parity_factors(phi_g, phi, a_uv)
            assert tuple(_lam_poly(p, pair.d) for p in pair.parity_factors) == (p_plus, p_minus)
            if not net.edges:
                assert p_plus == p_minus == RationalPoly([-net.onsite[0], 1])
            strong = sylvester_resultant(p_plus, p_minus) != 0
            seen[strong] += 1
            assert is_strongly_cospectral(net, u, v) == strong
            cert = pgst_certificate(net, u, v)
            assert cert.strongly_cospectral == strong
            if strong:
                p_zero = exquo(phi_g, p_plus * p_minus)
                dec = parity_decompose(net, u, v)
                assert (dec.p_plus, dec.p_minus, dec.p_zero) == (p_plus, p_minus, p_zero)
                assert (cert.p_plus, cert.p_minus, cert.p_zero) == (p_plus, p_minus, p_zero)
            jacobi = exquo(oracles.sub(phi * phi, a_uv * a_uv), phi_g)
            red = isospectral_reduction(net, u, v)
            lam = RationalPoly([0, 1])
            assert (red.a.num, red.a.den) == old_reduced(oracles.sub(lam * jacobi, phi), jacobi)
            assert (red.b.num, red.b.den) == old_reduced(a_uv, jacobi)
    assert seen[True] >= 30 and seen[False] >= 10


def test_pair_path_builds_no_rational_polynomial(monkeypatch):
    # boundary_scan and the strong-cospectrality test stay in Z[mu] end to end
    def refuse(*args):
        raise AssertionError("Fraction polynomial arithmetic on the pair path")

    for name in ("__init__", "__mul__"):
        monkeypatch.setattr(RationalPoly, name, refuse)
    monkeypatch.setattr(polynomial, "poly_gcd", refuse)
    report = boundary_scan(build_ninesite, K, SCAN_GRID[70:76])
    assert [p.potential for p in report.points] == SCAN_GRID[70:76]
    assert is_strongly_cospectral(build_ninesite(), 2, 6)


def test_reduction_and_irreducibility_need_no_division_over_q(monkeypatch):
    # the reduction divides out an integer gcd, and _is_irreducible decides
    # square-freeness and Zassenhaus trial divisions in Z[x]; RationalPoly
    # has no division over Q at all
    def refuse(*args):
        raise AssertionError("gcd over Q")

    want = reduction_charpoly(isospectral_reduction(build_ninesite(), 2, 6))
    monkeypatch.setattr(polynomial, "poly_gcd", refuse)
    assert reduction_charpoly(isospectral_reduction(build_ninesite(), 2, 6)) == want
    x4_plus_1 = RationalPoly([1, 0, 0, 0, 1])  # reaches the Zassenhaus step
    sd8 = RationalPoly([576, 0, -960, 0, 352, 0, -40, 0, 1])  # of sqrt(2) + sqrt(3) + sqrt(5)
    square = RationalPoly([1, 0, 1]) * RationalPoly([1, 0, 1])  # repeated factor
    bad_primes = RationalPoly([-15015, 0, 1])  # square-free, bad at 3, 5, 7, 11, 13
    assert [is_irreducible(p) for p in (x4_plus_1, sd8, square, bad_primes)] == [
        True, True, False, True
    ]


def grown_ninesite(n, seed):
    """Nine-site with seeded chains hung off its singlet sites, as in acceptance
    test 03; (2, 6) stays cospectral."""
    rng = random.Random(seed)
    net = build_ninesite(K)
    while net.n < n:
        length = min(n - net.n, rng.randint(1, 3))
        onsite = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(length)]
        edges = [(i, i + 1, Fraction(rng.randint(1, 3), rng.randint(1, 3))) for i in range(1, length)]
        anchor = rng.choice(sorted(SINGLET_SITES))
        bridge = (anchor, 1, Fraction(rng.randint(1, 3), rng.randint(2, 3)))
        net = attach(net, [anchor], Network(length, onsite, edges), [bridge])
    return net


def sympy_resultant(p: list[int], q: list[int]) -> int:
    return int(sympy.resultant(sympy.Poly(p[::-1], X), sympy.Poly(q[::-1], X)))


def test_mu_resultant_keeps_the_sign_and_scales_by_d_to_the_degree_product():
    for e in SCAN_GRID[::10]:
        pair = _pair_polys(build_ninesite(K, e), 2, 6)
        p_plus, p_minus = pair.parity_factors
        res_lam = sylvester_resultant(_lam_poly(p_plus, pair.d), _lam_poly(p_minus, pair.d))
        scale = pair.d ** ((len(p_plus) - 1) * (len(p_minus) - 1))
        assert pair.resultant == _int_resultant(p_plus, p_minus) == res_lam * scale
    for n, seed in ((20, 1), (40, 2)):
        pair = _pair_polys(grown_ninesite(n, seed), 2, 6)
        p_plus, p_minus = pair.parity_factors
        assert len(p_plus) > n // 2
        assert pair.resultant == sympy_resultant(p_plus, p_minus) != 0
        sign = (-1) ** ((len(p_plus) - 1) * (len(p_minus) - 1))
        assert _int_resultant(p_minus, p_plus) == sign * pair.resultant
