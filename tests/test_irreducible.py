"""`is_irreducible` (Python integers, no sympy) against sympy's factoriser.

sympy is a test dependency only: it is the independent oracle here.
"""

import itertools
import random
import signal
from fractions import Fraction

import oracles
import pytest
import sympy

from latsym import polynomial
from latsym.network import Network
from latsym.ninesite import build_ninesite
from latsym.pgst import PGSTError, is_irreducible, parity_decompose
from latsym.polynomial import RationalPoly

X = sympy.Symbol("x")


@pytest.fixture(autouse=True)
def time_limit():
    """Fail, not hang, when a broken factorisation loops (each test takes seconds)."""

    def expired(signum, frame):
        raise TimeoutError("test ran past its 120 s limit")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def sympy_irreducible(p: RationalPoly) -> bool:
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, X, domain="QQ").is_irreducible


def sympy_factor_degrees(p: RationalPoly) -> list[int]:
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    _, factors = sympy.Poly(coeffs, X, domain="QQ").factor_list()
    return sorted(f.degree() for f, mult in factors for _ in range(mult))


def poly(*coeffs) -> RationalPoly:
    """Integer coefficients, highest degree first."""
    return RationalPoly(list(reversed(coeffs)))


SD8 = poly(1, 0, -40, 0, 352, 0, -960, 0, 576)  # minimal polynomial of √2 + √3 + √5
SD16 = poly(1, 0, -136, 0, 6476, 0, -141912, 0, 1513334, 0, -7453176, 0, 13950764, 0,
            -5596840, 0, 46225)  # of √2 + √3 + √5 + √7
X_POLY = poly(1, 0)
HARD = {
    "x^4+1": poly(1, 0, 0, 0, 1),
    "x^4-10x^2+1": poly(1, 0, -10, 0, 1),
    "SD8": SD8,
    "SD16": SD16,
    "Phi8": poly(1, 0, 0, 0, 1),
    "Phi12": poly(1, 0, -1, 0, 1),
    "Phi15": poly(1, -1, 0, 1, -1, 1, 0, -1, 1),
    "x^6-2": poly(1, 0, 0, 0, 0, 0, -2),
    "(x^2+1)^2": poly(1, 0, 1) * poly(1, 0, 1),
    "x(x^2-3)": X_POLY * poly(1, 0, -3),
    "x^4+4": poly(1, 0, 0, 0, 4),  # (x^2-2x+2)(x^2+2x+2), an even g(x^2)
    "x^8-10x^4+1": poly(1, 0, 0, 0, -10, 0, 0, 0, 1),  # even g(x^2), irreducible
    "(x^4-x^2+16)/9": poly(1, 0, -1, 0, 16) * Fraction(1, 9),  # (x^2+3x+4)(x^2-3x+4)/9
    "(x^4-10x^2+1)(x^4+1)": poly(1, 0, -10, 0, 1) * poly(1, 0, 0, 0, 1),
    "-SD8(x)(x^2-2)/3": SD8 * poly(1, 0, -2) * Fraction(-1, 3),
    "(2x^2-3)^2(x^3-x-1)": poly(2, 0, -3) * poly(2, 0, -3) * poly(1, 0, -1, -1),
    # discriminant 60060 = 4*3*5*7*11*13: five bad primes, yet square-free
    "x^2-15015": poly(1, 0, -15015),
}


def test_is_irreducible_agrees_with_sympy_on_hard_cases():
    for name, p in HARD.items():
        assert is_irreducible(p) == sympy_irreducible(p), name
        assert is_irreducible(p * Fraction(-7, 5)) == sympy_irreducible(p), name


def test_swinnerton_dyer_cases_reach_the_zassenhaus_step(monkeypatch):
    # every reduction of a Swinnerton-Dyer polynomial mod p splits into factors of
    # degree <= 2, so the degree analysis cannot decide and the lifting must
    calls = []
    real = polynomial._zassenhaus

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(polynomial, "_zassenhaus", counting)
    for p in (SD8, SD16, SD8 * poly(1, 0, 0, 0, 1)):
        calls.clear()
        assert is_irreducible(p) == sympy_irreducible(p)
        assert len(calls) == 1


def test_degree_analysis_decides_generic_irreducible_inputs(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the degree analysis should have decided this input")

    monkeypatch.setattr(polynomial, "_zassenhaus", forbidden)
    assert is_irreducible(poly(1, 0, 0, 0, -1, -1))  # x^5 - x - 1, Galois group S5
    assert is_irreducible(poly(1, 0, 0, 0, 0, -1, -1))  # x^6 - x - 1, Galois group S6
    dec = parity_decompose(build_ninesite(), 2, 6)
    assert is_irreducible(dec.p_plus) and is_irreducible(dec.p_minus)


def _random_poly(rng: random.Random, degree: int) -> RationalPoly:
    coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7))) for _ in range(degree)]
    return RationalPoly(coeffs + [Fraction(rng.choice((-5, -3, -1, 1, 2, 4)), rng.randint(1, 4))])


def _random_case(rng: random.Random) -> RationalPoly:
    degree, kind = rng.randint(1, 12), rng.random()
    if kind < 0.4:
        return _random_poly(rng, degree)
    if kind < 0.7:  # a product: reducible unless a constant
        a = rng.randint(1, max(degree - 1, 1))
        return _random_poly(rng, a) * _random_poly(rng, max(degree - a, 1))
    if kind < 0.85:  # a repeated factor
        g = _random_poly(rng, rng.randint(1, 4))
        return g * g * _random_poly(rng, rng.randint(0, 4))
    g = _random_poly(rng, rng.randint(1, 6))  # an even polynomial g(x^2)
    return RationalPoly([g.coeffs[i // 2] if i % 2 == 0 else 0 for i in range(2 * g.degree + 1)])


def test_is_irreducible_agrees_with_sympy_on_seeded_random_polynomials():
    rng = random.Random(20250)
    verdicts = {True: 0, False: 0}
    for _ in range(1100):
        p = _random_case(rng)
        want = sympy_irreducible(p)
        assert is_irreducible(p) == want, p
        verdicts[want] += 1
    assert min(verdicts.values()) > 300


def test_reducible_verdicts_match_sympy_factor_degrees():
    rng = random.Random(7)
    for _ in range(60):
        p = _random_poly(rng, rng.randint(1, 5)) * _random_poly(rng, rng.randint(1, 5))
        assert not is_irreducible(p)
        assert len(sympy_factor_degrees(p)) >= 2


def _scaled(net: Network, c: Fraction) -> Network:
    return Network(net.n, [c * e for e in net.onsite], [(i, j, c * w) for i, j, w in net.edges])


def test_parity_factors_at_extreme_couplings_agree_with_sympy(oracle_networks):
    big, tiny = Fraction(10**7), Fraction(1, 10**13)
    nets = [build_ninesite(), build_ninesite(big, tiny), build_ninesite(tiny, big)]
    nets += [_scaled(net, c) for net in oracle_networks for c in (big, tiny)]
    checked = 0
    for net in nets:
        for u, v in itertools.combinations(range(1, net.n + 1), 2):
            try:
                dec = parity_decompose(net, u, v)
            except PGSTError:
                continue
            for p in (dec.p_plus, dec.p_minus):
                if p.degree >= 1:
                    assert is_irreducible(p) == sympy_irreducible(p), (net, u, v, p)
                    checked += 1
    assert checked >= 20


def test_is_irreducible_is_the_same_on_every_run():
    cases = list(HARD.values()) * 2
    assert [is_irreducible(p) for p in cases] == [is_irreducible(p) for p in cases]


def _random_squarefree_mod(rng: random.Random, p: int, degree: int) -> list[int]:
    """A monic square-free polynomial of the given degree mod p, often a planted product."""
    while True:
        f = [1]
        while len(f) - 1 < degree:  # factors of random degree, the last one filling up
            k = rng.randint(1, degree - len(f) + 1)
            f = polynomial._mod_mul(f, [rng.randrange(p) for _ in range(k)] + [1], p)
        fp = [i * c % p for i, c in enumerate(f)][1:]
        if len(polynomial._mod_gcd(f, polynomial._trim(fp), p)) == 1:
            return f


def test_distinct_degree_equals_the_powering_oracle(monkeypatch):
    rng = random.Random(33)
    primes = [p for p in range(3, 102) if all(p % q for q in range(2, p))]
    calls = []
    powering = polynomial._mod_pow

    def counted(*args):
        calls.append(args[1])
        return powering(*args)

    # one input in five of degree <= 3, where no second degree d runs
    degrees = [rng.randint(4, 40) if i % 5 else rng.randint(1, 3) for i in range(8 * len(primes))]
    cases = [(p, _random_squarefree_mod(rng, p, n)) for p, n in zip(primes * 8, degrees)]
    seen = {"degree <= 3": 0, "divided mid-loop": 0, "p < degree": 0, "p > degree": 0}
    for p, f in cases:
        want = oracles.distinct_degree(f, p)
        monkeypatch.setattr(polynomial, "_mod_pow", counted)
        calls.clear()
        assert polynomial._distinct_degree(f, p) == want, (f, p)
        monkeypatch.undo()
        assert calls == ([p] if len(f) > 2 else [])  # x^p, once per prime and input
        n = len(f) - 1
        seen["degree <= 3"] += n <= 3
        seen["divided mid-loop"] += len(want) > 2  # a second product found after the first
        seen["p < degree"] += p < n
        seen["p > degree"] += p > n
    assert min(seen.values()) >= 20, seen


def _random_quadratic(rng: random.Random) -> RationalPoly:
    def q() -> Fraction:
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    kind = rng.randrange(4)
    if kind == 0:  # a planted product of two linear factors: a perfect-square discriminant
        f = RationalPoly([q(), q() or 1]) * RationalPoly([q(), q() or 1])
    elif kind == 1:  # discriminant 0: k (c x + b)^2
        b, c = q(), q() or 1
        f = RationalPoly([b * b, 2 * b * c, c * c]) * (q() or 1)
    elif kind == 2:  # a negative discriminant: b^2 < 4ac
        b, c = q(), Fraction(rng.randint(1, 30), rng.randint(1, 12))
        f = RationalPoly([b * b / (4 * c) + c, b, c])
    else:
        f = RationalPoly([q(), q(), q() or 1])
    return f * Fraction(-7, 5) if rng.random() < 0.5 else f


def test_quadratics_are_decided_by_their_discriminant(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a quadratic reached the distinct-degree factorisation")

    monkeypatch.setattr(polynomial, "_distinct_degree", forbidden)
    rng = random.Random(2026)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        p = _random_quadratic(rng)
        assert p.degree == 2
        want = sympy_irreducible(p)
        assert is_irreducible(p) == want, p
        verdicts[want] += 1
    assert min(verdicts.values()) >= 100, verdicts
    # HARD's five-bad-prime quadratic, (2x + 3)^2 and x^2 + 1
    for p in (HARD["x^2-15015"], HARD["x^2-15015"] * Fraction(-7, 5), poly(4, 12, 9), poly(1, 0, 1)):
        assert is_irreducible(p) == sympy_irreducible(p)
