"""Exact univariate polynomials over Q.

`RationalPoly` holds `fractions.Fraction` coefficients, but computes on an
integer core of ascending lists of Python ints: one gcd (`_int_gcd`, a
primitive PRS), exact division, the resultant (`_int_resultant`, a
subresultant PRS), and the mod-p arithmetic of `is_irreducible`.  Products,
`poly_gcd` and `resultant` scale their inputs to integers, call that core and
divide by one common denominator at the end; the spectral layer and the
irreducibility test work on it directly, so `Fraction` appears only at the
boundary.  No library code path computes a determinant or divides with
remainder over Q.

Some public names have no caller in the library; each stays for a reason:
- `det_fraction`, `poly_gcd` and `is_squarefree`: the benchmark's tracer
  (`perfbench/tracing.TRACED`) wraps them by name, which
  `tests/test_traced_names.py` pins, and the tests use them as oracles.
- `RationalPoly.__mul__`: the benchmark's certify check multiplies P+ P- P0.

Everything here is exact: no floats enter.
"""

from fractions import Fraction
from itertools import combinations, count
from math import gcd, isqrt, lcm
from random import Random
from typing import Sequence, Union

Scalar = Union[int, Fraction]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class RationalPoly:
    """Univariate polynomial, coefficients ascending, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        # zero polynomial reports degree -1
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __mul__(self, other) -> "RationalPoly":
        if isinstance(other, (int, Fraction)):
            return RationalPoly([c * other for c in self.coeffs])
        if not isinstance(other, RationalPoly):
            return NotImplemented
        (a, s), (b, t) = _integer_coeffs(self), _integer_coeffs(other)
        return RationalPoly([Fraction(c, s * t) for c in _int_mul(a, b)])

    __rmul__ = __mul__

    def monic(self) -> "RationalPoly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.leading
        if lead == 1:
            return self
        return RationalPoly([c / lead for c in self.coeffs])

    def __repr__(self) -> str:
        return f"RationalPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def format_poly(p: RationalPoly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            term = str(mag)
        else:
            pw = "lam" if i == 1 else f"lam^{i}"
            term = pw if mag == 1 else f"{mag}*{pw}"
        if not parts:
            parts.append(term if sign == "+" else f"-{term}")
        else:
            parts.append(f"{sign} {term}")
    return " ".join(parts)


def poly_gcd(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    """Monic gcd, taken by `_int_gcd` on the primitive integer forms; gcd(0,0) = 0."""
    g = _int_gcd(_integer_coeffs(a)[0], _integer_coeffs(b)[0])
    return RationalPoly([Fraction(c, g[-1]) for c in g])


def is_squarefree(p: RationalPoly) -> bool:
    """gcd(p, p') is constant, by `_int_gcd` on the integer form and its derivative."""
    if p.degree < 1:
        raise ValueError("square-freeness is about non-constant polynomials")
    f = _integer_coeffs(p)[0]
    return len(_int_gcd(f, [i * c for i, c in enumerate(f)][1:])) == 1


def det_fraction(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination over Q (destroys its copy).

    The library computes no determinant; this is the oracle the tests compare
    resultants and characteristic polynomials against.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    a = [list(r) for r in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] * inv
            if f:
                row, prow = a[r], a[c]
                for k in range(c, n):
                    row[k] -= f * prow[k]
    return det


def _integer_coeffs(p: RationalPoly) -> tuple[list[int], int]:
    """Coefficients of s*p as integers, ascending, with s > 0 their common denominator."""
    s = lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (s // c.denominator) for c in p.coeffs], s


def _lam_poly(p: list[int], d: int, deg: int | None = None) -> RationalPoly:
    """The polynomial P in lam of an integer polynomial p in mu = d*lam (ascending).

    p(mu) = d^deg * P(mu/d), deg = deg(p) unless given, so the coefficient of
    lam^i is p_i/d^(deg - i).
    """
    deg = len(p) - 1 if deg is None else deg
    return RationalPoly([Fraction(c, d ** (deg - i)) for i, c in enumerate(p)])


# Integer polynomials below are ascending int lists with trailing zeros trimmed,
# [] for 0.  By Gauss's lemma a gcd or an exact quotient over Q of primitive
# integer polynomials is, up to a unit, again primitive in Z[x].
def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _primitive(f: list[int]) -> list[int]:
    """f divided by its content, signed so the leading coefficient is positive."""
    c = gcd(*f) if f[-1] > 0 else -gcd(*f)
    return [x // c for x in f]


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with positive leading coefficient; [] when a = b = 0.

    Primitive PRS (Collins): a, b -> b, pp(prem(a, b)), where the pseudo-
    remainder scales a by powers of lc(b) (cut by their gcd with the leading
    term) so each step stays in Z[x]; a content shared by a and b drops out
    with the first primitive parts.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return _primitive(a) if a else []
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r, low, lb = a[:], b[:-1], b[-1]
        while len(r) >= len(b):  # r = pseudo-remainder of r by b, in place
            c = r.pop()
            g = gcd(c, lb)
            s, c = lb // g, c // g
            if s != 1:
                r = [x * s for x in r]
            for j, y in enumerate(low, len(r) - len(low)):
                r[j] -= c * y
            _trim(r)
        if not r:
            return b
        a, b = b, _primitive(r)
    return b  # a primitive constant: [1]


def _int_add(a: list[int], b: list[int], c: int = 1) -> list[int]:
    """a + c*b."""
    a, b = a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b))
    return _trim([x + c * y for x, y in zip(a, b)])


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                prod[j] += x * y
    return prod


def _int_exact_div(a: list[int], b: list[int]) -> list[int]:
    """a/b for b != 0 dividing a in Z[x]; raises ValueError otherwise."""
    a, db, lb = a[:], len(b) - 1, b[-1]
    q, low = [0] * max(len(a) - db, 0), b[:-1]
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(a.pop(), lb)
        if rem:
            raise ValueError("exact polynomial division left a remainder")
        q[i] = c
        if c:
            for j, y in enumerate(low, i):
                a[j] -= c * y
    if any(a):
        raise ValueError("exact polynomial division left a remainder")
    return q


def _int_resultant(p: list[int], q: list[int]) -> int:
    """Resultant of non-zero integer polynomials by the subresultant PRS.

    Collins; Brown & Traub; Cohen, Alg. 3.3.7.  Res(p, q) = a^deg(q) b^deg(p)
    Res(p/a, q/b) for the contents a, b.  Each step replaces A, B by B and the
    full pseudo-remainder lc(B)^(delta+1) A mod B, delta = deg A - deg B, which
    g h^delta divides exactly; Res(A, B) = (-1)^(deg A deg B) Res(B, A) gives the
    sign.  A zero remainder means a common factor; a constant B ends the sequence.
    """
    a, b = gcd(*p), gcd(*q)
    s, t = 1, a ** (len(q) - 1) * b ** (len(p) - 1)
    p, q = [x // a for x in p], [x // b for x in q]
    if len(p) < len(q):
        p, q, s = q, p, (-1) ** ((len(p) - 1) * (len(q) - 1))
    g = h = 1
    while len(q) > 1:
        delta, low, lb = len(p) - len(q), q[:-1], q[-1]
        if (len(p) - 1) * (len(q) - 1) % 2:
            s = -s
        r = p[:]
        for _ in range(delta + 1):  # r <- lb*r - c*x^k*q cancels r's top term c x^(k+deg q)
            c = r.pop()
            r = [x * lb for x in r]
            for j, y in enumerate(low, len(r) - len(low)):
                r[j] -= c * y
        if not _trim(r):
            return 0
        hd = h**delta
        p, q = q, [x // (g * hd) for x in r]
        g, h = lb, lb**delta * h // hd
    return s * t * (q[0] ** (len(p) - 1) * h // h ** (len(p) - 1))


# Polynomials mod m below are integer polynomials with coefficients in [0, m);
# a divisor's leading coefficient must be a unit mod m.  _mod_add is a + c*b.
def _mod_add(a: list[int], b: list[int], m: int, c: int = 1) -> list[int]:
    return _trim([x % m for x in _int_add(a, b, c)])


def _mod_mul(a: list[int], b: list[int], m: int, f: list[int] = ()) -> list[int]:
    """a*b mod m, reduced mod f when a monic f is given."""
    prod, low = _int_mul(a, b), f[:-1]
    for i in range(len(prod) - len(f), -1, -1) if f else ():  # subtract c * x^i * f
        c = prod.pop() % m
        if c:
            for j, y in enumerate(low, i):
                prod[j] -= c * y
    return _trim([c % m for c in prod])


def _mod_divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    a, db, inv = a[:], len(b) - 1, pow(b[-1], -1, m)
    q, low = [0] * max(len(a) - db, 0), b[:-1]
    for i in range(len(q) - 1, -1, -1):
        q[i] = c = a[i + db] * inv % m
        if c:
            for j, y in enumerate(low, i):
                a[j] -= c * y
    return _trim(q), _trim([c % m for c in a[:db]])


def _mod_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd mod a prime p."""
    a, b = a[:], b[:]
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):  # a = a mod b, in place
            c = a.pop() * inv % p
            for j, y in enumerate(b[:-1], len(a) - len(b) + 1):
                a[j] = (a[j] - c * y) % p
            _trim(a)
        a, b = b, a
    return _mod_mul(a, [pow(a[-1], -1, p)], p)


def _mod_pow(a: list[int], e: int, f: list[int], m: int) -> list[int]:
    """a^e mod (f, m) for a monic f, by left-to-right binary powering."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _mod_mul(out, out, m, f)
        if bit == "1":
            out = _mod_mul(out, a, m, f)
    return out


def _distinct_degree(f: list[int], p: int) -> list[tuple[int, list[int]]]:
    """(d, product of the degree-d irreducible factors) of a monic square-free f mod p.

    gcd(f, x^(p^d) - x) is that product for d = 1, 2, ... while f, with the
    factors found so far divided out, can still hold two factors of degree d.
    x^p mod f comes from one binary powering.  Each later h = x^(p^d) is one
    product with a Frobenius matrix (Berlekamp's Q-matrix; von zur Gathen &
    Gerhard, Modern Computer Algebra, ch. 14): over F_p h(x)^p = h(x^p), so
    x^(p^(d+1)) = sum_i h_i x^(ip) mod f0, with f0 the f that d = 2 starts
    from.  Its rows x^(ip) mod f0, i < deg f0, cost deg f0 - 2 products mod
    f0 and are kept as their nonzero entries; an f of degree <= 3 never needs
    them.  h stays reduced modulo f0 while the gcds run against the shrinking
    f, which divides f0, so every gcd is the one taken modulo f.
    """
    out, d, frob = [], 0, None
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        if d == 1:
            h = _mod_pow([0, 1], p, f, p)
        else:
            if frob is None:  # frob[i]: (j, coefficient of x^j) of x^(ip) mod f0, nonzero ones
                f0, h = f, _mod_divmod(h, f, p)[1]
                rows = [[1], h]
                while len(rows) < len(f0) - 1:
                    rows.append(_mod_mul(rows[-1], h, p, f0))
                frob = [[(j, c) for j, c in enumerate(r) if c] for r in rows]
            acc = [0] * (len(f0) - 1)
            for a, row in zip(h, frob):
                if a:
                    for j, c in row:
                        acc[j] += a * c
            h = _trim([c % p for c in acc])
        g = _mod_gcd(f, _mod_add(h, [0, 1], p, -1), p)
        if len(g) > 1:
            out.append((d, g))
            f = _mod_divmod(f, g, p)[0]
    return out + [(len(f) - 1, f)] * (len(f) > 1)


def _equal_degree(todo: list[tuple[int, list[int]]], p: int) -> list[list[int]]:
    """Split products g of degree-d factors mod p by gcd(a^((p^d - 1)/2) - 1, g)
    (Cantor-Zassenhaus), with trials a from a private generator seeded by p."""
    rng, out, todo = Random(p), [], list(todo)
    while todo:
        d, g = todo.pop()
        if len(g) - 1 == d:
            out.append(g)
            continue
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        h = _mod_gcd(g, _mod_add(_mod_pow(a, (p**d - 1) // 2, g, p), [1], p, -1), p)
        todo += [(d, h), (d, _mod_divmod(g, h, p)[0])] if 1 < len(h) < len(g) else [(d, g)]
    return out


def _zassenhaus(f: list[int], p: int, dd: list, degrees: set[int]) -> bool:
    """Irreducibility of f from its distinct-degree factors `dd` mod p.

    Hensel: if g | f mod m and f = g*h + m*e mod m*p, then g + m*(e/h mod g)
    divides f mod m*p; 1/h mod g = h^(p^deg(g) - 2).  A factor g of f has
    coefficients at most 2^n * ||f||_2 (Mignotte), so the residue in (-q/2, q/2]
    of lc(f) times its factors' lifts is lc(f)/lc(g) * g.  g or f/g has at
    most half of the factors mod p."""
    lc, n, lifted = f[-1], len(f) - 1, []
    q, bound = p, 2 * lc * 2**n * (isqrt(sum(c * c for c in f)) + 1)
    while q <= bound:
        q *= p
    for g in _equal_degree(dd, p):
        inv, m = _mod_pow(_mod_divmod(f, g, p)[0], p ** (len(g) - 1) - 2, g, p), p
        while m < q:
            e = [c // m for c in _mod_divmod(f, g, m * p)[1]]
            g, m = _mod_add(g, _mod_mul(e, inv, p, g), m * p, m), m * p
        lifted.append(g)
    for size in range(1, len(lifted) // 2 + 1):
        for subset in combinations(lifted, size):
            if sum(len(g) - 1 for g in subset) in degrees:
                g = [lc]
                for h in subset:
                    g = _mod_mul(g, h, q)
                g = [c - q if 2 * c > q else c for c in g]
                # lc(f)/lc(g) * g divides lc(f) * f in Z[x]: test the constant terms first;
                # f is primitive, so g | f over Q iff pp(g) | f in Z[x] (Gauss)
                if g[0] and lc * f[0] % g[0] == 0:
                    try:
                        _int_exact_div(f, _primitive(g))
                        return False
                    except ValueError:
                        pass
    return True


_DEGREE_PRIMES = 5  # good primes tried before the Zassenhaus fallback


def is_irreducible(p: RationalPoly) -> bool:
    """Irreducibility over Q, decided exactly in Python integers.

    p is scaled to a primitive integer f with lc(f) > 0.  Degree 1 is
    irreducible; a zero constant term or a repeated factor (gcd(f, f') in Z[x],
    taken once f has repeated factors mod five primes) makes f reducible.  A
    quadratic a*x^2 + b*x + c is irreducible exactly when its roots are not
    rational, that is when b^2 - 4ac is not a perfect square; no prime is
    tried for it.  A factorisation f = g*h over Z survives mod each prime p
    not dividing lc(f), so deg g is a sum of degrees of factors mod p.
    Distinct-degree factorisation at up to five primes with f mod p
    square-free proves f irreducible once no degree but 0 and deg f is
    possible at all of them.  Otherwise (Zassenhaus) the factors at the prime with the fewest are
    Hensel-lifted past the Mignotte bound and subset products of a possible
    degree are trial-divided into f: f is reducible iff one divides."""
    if p.degree < 1:
        raise ValueError("irreducibility is about non-constant polynomials")
    f = _primitive(_integer_coeffs(p)[0])
    n, degrees, best, good, bad = len(f) - 1, set(range(len(f))), (len(f),), 0, 0
    if n == 1 or f[0] == 0:
        return n == 1
    if n == 2:
        disc = f[1] * f[1] - 4 * f[2] * f[0]
        return disc < 0 or isqrt(disc) ** 2 != disc
    for p in count(3, 2):
        if f[-1] % p == 0 or any(p % d == 0 for d in range(3, isqrt(p) + 1, 2)):
            continue
        fp = _mod_mul(f, [pow(f[-1], -1, p)], p)
        if len(_mod_gcd(fp, _trim([i * c % p for i, c in enumerate(fp)][1:]), p)) > 1:
            # p divides the discriminant: a square-free f has finitely many such p
            bad += 1
            # after five of them, f is square-free iff gcd(f, f') is constant
            if bad == _DEGREE_PRIMES and len(_int_gcd(f, [i * f[i] for i in range(1, n + 1)])) > 1:
                return False
            continue
        dd, sums = _distinct_degree(fp, p), {0}
        pattern = [d for d, g in dd for _ in range((len(g) - 1) // d)]
        for d in pattern:
            sums |= {s + d for s in sums}
        degrees &= sums
        if degrees == {0, n}:
            return True
        best, good = min(best, (len(pattern), p, dd)), good + 1
        if good == _DEGREE_PRIMES:
            return _zassenhaus(f, best[1], best[2], degrees)


def resultant(p: RationalPoly, q: RationalPoly) -> Fraction:
    """Resultant by `_int_resultant` on the integer forms; zero iff p, q share a root."""
    m, n = p.degree, q.degree
    if m < 0 or n < 0:
        raise ValueError("resultant of the zero polynomial is undefined")
    # Res(s*p, t*q) = s^n t^m Res(p, q); s, t > 0 keep the sign.
    pc, s = _integer_coeffs(p)
    qc, t = _integer_coeffs(q)
    return Fraction(_int_resultant(pc, qc), s**n * t**m)
