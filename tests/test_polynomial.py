import random
from fractions import Fraction
from itertools import permutations

import pytest
import sympy

import oracles
from latsym.polynomial import (
    RationalPoly,
    det_fraction,
    format_poly,
    is_squarefree,
    poly_gcd,
    resultant,
)

X = sympy.Symbol("x")


def rand_poly(rng, deg, bound=6):
    return RationalPoly(
        [Fraction(rng.randint(-bound, bound), rng.randint(1, 4)) for _ in range(deg + 1)]
    )


def test_trimming_and_degree():
    assert RationalPoly([1, 2, 0, 0]).degree == 1
    assert RationalPoly([0, 0]).is_zero
    assert RationalPoly().degree == -1
    assert RationalPoly([Fraction(1, 2), 3]).leading == 3


def test_zero_polynomial_has_no_leading_coefficient():
    with pytest.raises(ValueError):
        RationalPoly().leading


def test_constructor_rejects_floats():
    with pytest.raises(TypeError):
        RationalPoly([0.5])


def test_arithmetic_agrees_with_pointwise_evaluation():
    # the product on the integer core and the oracle's sums against point values
    rng = random.Random(7)
    xs = [Fraction(k, 3) for k in range(-5, 6)]
    for _ in range(40):
        a = rand_poly(rng, rng.randint(0, 5))
        b = rand_poly(rng, rng.randint(0, 5))
        assert a * b == oracles.mul(a, b)
        for x in xs:
            ax, bx = oracles.evaluate(a, x), oracles.evaluate(b, x)
            assert oracles.evaluate(oracles.add(a, b), x) == ax + bx
            assert oracles.evaluate(oracles.sub(a, b), x) == ax - bx
            assert oracles.evaluate(a * b, x) == ax * bx


def test_monic():
    p = RationalPoly([6, 0, 2])
    assert p.monic() == RationalPoly([3, 0, 1])


def test_horner_is_exact_on_fractions():
    p = RationalPoly([Fraction(1, 3), Fraction(-2, 7), 1])
    x = Fraction(5, 11)
    assert oracles.evaluate(p, x) == Fraction(1, 3) - Fraction(2, 7) * x + x * x
    assert isinstance(oracles.evaluate(p, 0.5), float)


def test_format_poly():
    assert format_poly(RationalPoly([Fraction(-729, 1250), 0, 1])) == "lam^2 - 729/1250"
    assert format_poly(RationalPoly([1, -2])) == "-2*lam + 1"
    assert format_poly(RationalPoly()) == "0"
    assert format_poly(RationalPoly([0, 1])) == "lam"


def test_poly_gcd():
    p = RationalPoly([-1, 1])  # lam - 1
    q = RationalPoly([2, 1])  # lam + 2
    assert poly_gcd(p * q, p * p) == p
    assert poly_gcd(p, q).degree == 0
    assert poly_gcd(RationalPoly(), RationalPoly()).is_zero
    # result is monic no matter the input scaling
    assert poly_gcd(3 * p * q, 7 * p) == p


def test_is_squarefree():
    p = RationalPoly([-1, 1])
    q = RationalPoly([2, 1])
    assert is_squarefree(p * q)
    assert not is_squarefree(p * p * q)
    assert is_squarefree(RationalPoly([-2, 0, 1]))
    with pytest.raises(ValueError):
        is_squarefree(RationalPoly([1]))


def naive_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # parity via explicit inversion count
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def test_det_fraction_against_permutation_expansion():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        assert det_fraction(rows) == naive_det(rows)


def test_det_fraction_edge_cases():
    assert det_fraction([]) == 1
    assert det_fraction([[Fraction(0)]]) == 0
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert det_fraction(singular) == 0


def test_resultant_examples():
    # res(x - a, x - b) = a - b
    assert resultant(RationalPoly([-2, 1]), RationalPoly([-5, 1])) == -3
    # shared root -> zero
    assert resultant(RationalPoly([-1, 0, 1]), RationalPoly([-1, 1])) == 0
    # res(p, q) = lc(p)^deg(q) * prod q(root of p)
    p = RationalPoly([2, -3, 1])  # (x-1)(x-2)
    q = RationalPoly([3, 1, 0, 1])
    assert resultant(p, q) == oracles.evaluate(q, Fraction(1)) * oracles.evaluate(q, Fraction(2))


def test_resultant_swap_sign():
    rng = random.Random(5)
    for _ in range(20):
        p = rand_poly(rng, rng.randint(1, 3))
        q = rand_poly(rng, rng.randint(1, 3))
        if p.is_zero or q.is_zero:
            continue
        m, n = p.degree, q.degree
        assert resultant(p, q) == (-1) ** (m * n) * resultant(q, p)


def test_rational_function_reduces():
    num = RationalPoly([-1, 0, 1])  # lam^2 - 1
    den = RationalPoly([-1, 1])  # lam - 1
    assert oracles.reduced(num, den) == (RationalPoly([1, 1]), RationalPoly([1]))
    # denominator is normalized monic
    f = oracles.reduced(RationalPoly([1]), RationalPoly([0, 2]))
    assert f == (RationalPoly([Fraction(1, 2)]), RationalPoly([0, 1]))


def test_rational_function_arithmetic():
    rng = random.Random(13)
    xs = [Fraction(k, 2) for k in (-7, -3, 3, 5, 9)]
    for _ in range(20):
        f = oracles.reduced(rand_poly(rng, 2), RationalPoly([1, 0, 1]))
        g = oracles.reduced(rand_poly(rng, 1), RationalPoly([3, 1]))
        for x in xs:
            fx, gx = oracles.rf_evaluate(f, x), oracles.rf_evaluate(g, x)
            assert oracles.rf_evaluate(oracles.rf_add(f, g), x) == fx + gx
            assert oracles.rf_evaluate(oracles.rf_sub(f, g), x) == fx - gx
            assert oracles.rf_evaluate(oracles.rf_mul(f, g), x) == fx * gx


def test_rational_function_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        oracles.reduced(RationalPoly([1]), RationalPoly())


def fraction_sylvester_det(p, q):
    """Resultant as det_fraction of the Sylvester matrix over Q."""
    m, n = p.degree, q.degree
    pc = [p[m - i] for i in range(m + 1)]
    qc = [q[n - i] for i in range(n + 1)]
    zero = [Fraction(0)] * (m + n)
    rows = [zero[:i] + pc + zero[: n - 1 - i] for i in range(n)]
    rows += [zero[:i] + qc + zero[: m - 1 - i] for i in range(m)]
    return det_fraction(rows)


def skips_a_degree(p, q):
    """Whether the Euclidean remainder sequence of p, q, by sympy, drops a degree by 2 or more."""
    p, q = (sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)],
                       X, domain="QQ") for f in (p, q))
    degrees = []
    while not q.is_zero:
        p, q = q, p.rem(q)
        degrees.append(p.degree())
    return any(a - b >= 2 for a, b in zip(degrees, degrees[1:]))


def test_resultant_matches_fraction_sylvester_determinant():
    rng = random.Random(17)
    checked = skipping = constant = 0
    signs = set()
    for i in range(300):
        p, q = rand_poly(rng, rng.randint(1, 10)), rand_poly(rng, rng.randint(1, 10))
        if i % 5 == 1:  # a constant operand, on either side
            p, q = (p, rand_poly(rng, 0)) if i % 2 else (rand_poly(rng, 0), q)
        elif i % 5 == 2:  # sparse: the remainder sequence may skip degrees
            p, q = (RationalPoly([c * (rng.random() < 0.3) for c in f.coeffs[:-1]] + [f.leading])
                    for f in (p, q))
        elif i % 5 == 3:  # integer coefficients with a content other than 1
            p, q = (RationalPoly([c.numerator * k for c in f.coeffs])
                    for f, k in ((p, rng.choice([2, 6, 12])), (q, rng.choice([-3, 4, 10]))))
        elif i % 5 == 4:  # force a common factor
            common = rand_poly(rng, rng.randint(1, 2))
            p, q = p * common, q * common
        if p.is_zero or q.is_zero:
            continue
        res = resultant(p, q)
        assert res == fraction_sylvester_det(p, q)
        assert resultant(q, p) == (-1) ** (p.degree * q.degree) * res
        checked += 1
        skipping += skips_a_degree(p, q)
        constant += min(p.degree, q.degree) == 0
        signs.add((res > 0) - (res < 0))
    assert resultant(RationalPoly([3]), RationalPoly([Fraction(-1, 2)])) == 1
    assert resultant(RationalPoly([Fraction(-2, 3)]), RationalPoly([1, 0, 5])) == Fraction(4, 9)
    assert checked >= 280 and skipping >= 60 and constant >= 50
    assert signs == {-1, 0, 1}
