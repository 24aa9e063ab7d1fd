"""Exact arithmetic over Q on plain `Fraction` coefficients: the tests' oracle
for polynomial sums, products and point values, and for rational functions.

Polynomials go in as `RationalPoly` (only their coefficients are read) and
come out as `RationalPoly`.  A rational function is a (num, den) pair in lowest
terms with den monic, the form `isospectral_reduction` returns its entries in.
Everything here works coefficient by coefficient in `Fraction` and reduces by
Euclid's algorithm with long division over Q, so none of it calls the integer
core that latsym computes on.  `berlekamp_massey` is the textbook algorithm
over Q, the oracle for the integer one that finds the parity factors.
"""

from fractions import Fraction

from latsym.polynomial import RationalPoly

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
