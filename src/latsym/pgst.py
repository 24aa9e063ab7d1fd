"""Parity-polynomial certification of state transfer between cospectral sites.

The characteristic polynomial of a network with a strongly cospectral pair
splits as P = P_plus * P_minus * P_zero, grouping eigenvalues by eigenvector
parity on the pair (+, -) and by vanishing support.  P_plus (P_minus) is the
product of (lam - theta) over the eigenvalues whose eigenvectors reach
e_u + e_v (e_u - e_v), so strong cospectrality is resultant(P_plus, P_minus)
!= 0 (the `spectral` module docstring has the proof).  A certificate runs
`_gates`, the one place that holds the order of its checks: cospectrality,
strong cospectrality, irreducibility of both parity factors over Q, and the
trace-ratio inequality Tr(P_plus)/deg(P_plus) != Tr(P_minus)/deg(P_minus).
Irreducibility is exact (`is_irreducible`): a quadratic by its discriminant,
any other degree from factor degrees mod small primes, one Frobenius matrix
per prime, and a Zassenhaus fallback.

`boundary_scan` follows the resultant's sign along a grid of on-site
potentials in two passes: an exact one that keeps P+/- and the resultant of
every point, then a numeric one that finds the roots of all the parity
factors with one `eigvals` call per companion-matrix size, exactly as np.roots
would one factor at a time, and refuses a factor whose computed roots are not
real.
"""

import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .network import Network, has_swap_automorphism
from .polynomial import RationalPoly, is_irreducible
from .spectral import ParityDecomposition, _pair_polys

CERTIFIED = "CERTIFIED"
LITERAL_CONDITION_FAILED = "LITERAL_CONDITION_FAILED"
NOT_STRONGLY_COSPECTRAL = "NOT_STRONGLY_COSPECTRAL"
NOT_COSPECTRAL = "NOT_COSPECTRAL"


class PGSTError(ValueError):
    pass


def parity_decompose(net: Network, u: int, v: int) -> ParityDecomposition:
    """Split char_poly into p_plus * p_minus * p_zero for a strongly cospectral pair.

    p_plus and p_minus, the minimal polynomials of the walk moments
    (A^j)_vv +/- (A^j)_uv, are the monic numerators of lam - a(lam) -/+ b(lam)
    after full cancellation; p_zero = char_poly/(p_plus * p_minus), from its
    own power sums, without computing char_poly.
    """
    pair = _pair_polys(net, u, v)
    if pair is None:
        raise PGSTError(f"pair ({u}, {v}) is not cospectral")
    if pair.decomposition is None:
        raise PGSTError(f"pair ({u}, {v}) is not strongly cospectral")
    return pair.decomposition


def trace_ratios(p_plus: RationalPoly, p_minus: RationalPoly) -> tuple[Fraction, Fraction, bool]:
    """Trace ratios (root sum / degree) of both parity factors, and whether they differ.

    The trace is read off the monic form, making the ratios invariant under
    any rescaling of the inputs.
    """
    ratios = []
    for p in (p_plus, p_minus):
        if p.degree < 1:
            raise ValueError("trace ratio needs a non-constant polynomial")
        monic = p.monic()
        ratios.append(Fraction(-monic[monic.degree - 1], monic.degree))
    return ratios[0], ratios[1], ratios[0] != ratios[1]


@dataclass
class PGSTCertificate:
    u: int
    v: int
    cospectral: bool
    swap_automorphism: bool
    strongly_cospectral: Optional[bool] = None
    p_plus: Optional[RationalPoly] = None
    p_minus: Optional[RationalPoly] = None
    p_zero: Optional[RationalPoly] = None
    plus_irreducible: Optional[bool] = None
    minus_irreducible: Optional[bool] = None
    trace_ratio_plus: Optional[Fraction] = None
    trace_ratio_minus: Optional[Fraction] = None
    trace_ratios_distinct: Optional[bool] = None
    verdict: str = ""
    notes: str = ""

    def _values(self):
        """(name, value) for every field after u and v, in declaration order."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)[2:]]

    def report_text(self) -> str:
        """One `name: value` line per field, with the derived latent_symmetric
        after swap_automorphism; notes is left out when empty."""

        def show(x):
            if x is None:
                return "n/a"
            if isinstance(x, bool):
                return "yes" if x else "no"
            return str(x)

        lines = [f"pair: ({self.u}, {self.v})"]
        for name, x in self._values():
            if name == "notes" and not x:
                continue
            lines.append(f"{name}: {show(x)}")
            if name == "swap_automorphism":
                latent = self.cospectral and not self.swap_automorphism
                lines.append(f"latent_symmetric: {show(latent)}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready: polynomials as coefficient strings, Fractions as strings."""

        def plain(x):
            if isinstance(x, RationalPoly):
                return [str(c) for c in x.coeffs]
            return str(x) if isinstance(x, Fraction) else x

        return {"pair": [self.u, self.v], **{name: plain(x) for name, x in self._values()}}


class _Gate(NamedTuple):
    values: dict  # the certificate fields this check fills
    passed: bool
    held: str = ""  # its phrase in the note when it held
    failed: str = ""  # ... and when it failed
    verdict: str = ""  # the verdict its failure ends the certificate with; "" if none


def _gates(net: Network, u: int, v: int) -> Iterator[_Gate]:
    """The certificate's checks, in order; each runs only when pulled."""
    pair = _pair_polys(net, u, v)
    cos = pair is not None
    # a swap automorphism implies cospectrality, so only a cospectral pair can have one
    swap = cos and has_swap_automorphism(net, u, v)
    yield _Gate(dict(cospectral=cos, swap_automorphism=swap), cos, "",
                "the deleted-vertex characteristic polynomials differ", NOT_COSPECTRAL)
    dec = pair.decomposition
    yield _Gate(dict(strongly_cospectral=dec is not None), dec is not None,
                "strongly cospectral pair", "the reduction has a repeated non-linear eigenvalue",
                NOT_STRONGLY_COSPECTRAL)
    irreducible = {"p_plus": is_irreducible(dec.p_plus), "p_minus": is_irreducible(dec.p_minus)}
    yield _Gate(
        dict(p_plus=dec.p_plus, p_minus=dec.p_minus, p_zero=dec.p_zero,
             plus_irreducible=irreducible["p_plus"], minus_irreducible=irreducible["p_minus"]),
        all(irreducible.values()), "both parity factors irreducible over Q",
        "; ".join(f"{p} is reducible over Q" for p, ok in irreducible.items() if not ok))
    r_plus, r_minus, distinct = trace_ratios(dec.p_plus, dec.p_minus)
    yield _Gate(
        dict(trace_ratio_plus=r_plus, trace_ratio_minus=r_minus, trace_ratios_distinct=distinct),
        distinct, "", f"the trace-ratio inequality fails: both ratios equal {r_plus} = {r_minus}")


def pgst_certificate(net: Network, u: int, v: int) -> PGSTCertificate:
    """Run `_gates` in order; the first failed gate with a verdict ends the certificate."""
    values, gates = {}, []
    for gate in _gates(net, u, v):
        values.update(gate.values)
        if not gate.passed and gate.verdict:
            return PGSTCertificate(u, v, **values, verdict=gate.verdict, notes=gate.failed)
        gates.append(gate)
    held = ", ".join(g.held for g in gates if g.passed and g.held)
    failed = "; ".join(g.failed for g in gates if not g.passed)
    if not failed:
        return PGSTCertificate(u, v, **values, verdict=CERTIFIED,
                               notes="all algebraic transfer conditions are satisfied")
    return PGSTCertificate(u, v, **values, verdict=LITERAL_CONDITION_FAILED, notes=(
        f"all prerequisite conditions hold ({held}) yet {failed}. The algebraic test alone is"
        " therefore inconclusive for this network even though long-horizon envelope scans"
        " show the transfer fidelity approaching 1; judge transfer quality from that"
        " numerical evidence."
    ))


@dataclass(frozen=True)
class BoundaryPoint:
    potential: Fraction
    strongly_cospectral: bool
    resultant_sign: int
    min_root_distance: float


@dataclass(frozen=True)
class BoundaryReport:
    coupling: Fraction
    points: tuple[BoundaryPoint, ...]
    exact_failures: tuple[Fraction, ...]
    brackets: tuple[tuple[Fraction, Fraction], ...]

    def report_text(self) -> str:
        lines = [f"coupling k = {self.coupling}", f"grid points: {len(self.points)}"]
        if self.exact_failures:
            for e in self.exact_failures:
                lines.append(f"strong cospectrality fails exactly at E = {e}")
        else:
            lines.append("no exact failures on the grid")
        for lo, hi in self.brackets:
            lines.append(
                f"boundary bracketed in E in [{float(lo):.6g}, {float(hi):.6g}]"
            )
        return "\n".join(lines)


# Largest |Im| of a companion eigenvalue, relative to Fujiwara's bound on the
# root moduli, that `_root_distances` accepts as rounding.  Every root of P+/-
# is real.  On the nine-site grid and the ends of paths up to 78 sites (degree
# 39) np.roots returns them with imaginary part exactly 0; on the ends of an
# 82-site path (degree 41) it returns pairs off the axis by 3e-4 of the bound,
# and on those of a 100-site path (degree 50) by 0.07.
_IMAG_TOL = 1e-6


def _root_scale(p_plus: list[int], p_minus: list[int], d: int) -> int:
    """The s of `_root_distances`: two factors in mu = d*lam are read in mu/s,
    with s = d (in lam) while every coefficient is then a normal float, else
    s = 2^e."""
    polys = (p_plus, p_minus)
    try:
        if all(
            abs(c / d ** (len(p) - 1 - i)) >= sys.float_info.min
            for p in polys for i, c in enumerate(p) if c
        ):
            return d
    except OverflowError:
        pass
    return 1 << max(
        (-(-c.bit_length() // (len(p) - 1 - i)) for p in polys for i, c in enumerate(p[:-1])),
        default=0,
    )


def _root_distances(
    factors: Sequence[tuple[list[int], list[int], int]], grid: Sequence[Fraction]
) -> list[float]:
    """Least distance between the real parts of the roots in lam of P+ and P-,
    given as monic integer polynomials in mu = d*lam, at every grid point.

    The roots are the ones np.roots returns, bit for bit.  Each pair of
    factors is read in lam while every coefficient is a normal float (the
    distances the tests compare bit for bit), else in nu = mu/2^e, with
    2^e >= |c_i|^(1/(m-i)) for every coefficient c_i of mu^i in a factor of
    degree m, so none exceeds 1 and every root is below 2 (Fujiwara's bound).
    As in np.roots, zero constant terms are stripped and come back as zero
    roots, and the roots are the eigenvalues of the companion matrix; here the
    companion matrices of one size are stacked into one `eigvals` call.  The
    distance is scaled back by 2^e/d exactly.

    Raises PGSTError where a companion eigenvalue is not real within
    `_IMAG_TOL` of the root bound, then, in grid order, where a distance is
    beyond the float range.
    """
    import numpy as np

    scales = []
    stacks: dict[int, list] = {}  # size -> (point, factor, coefficients below mu^m, zero roots)
    for j, (p_plus, p_minus, d) in enumerate(factors):
        scale = _root_scale(p_plus, p_minus, d)
        scales.append(scale)
        for f, p in enumerate((p_plus, p_minus)):
            m = len(p) - 1
            c = [p[i] / scale ** (m - i) for i in range(m - 1, -1, -1)]
            size = m
            while size and not c[size - 1]:
                size -= 1
            stacks.setdefault(size, []).append((j, f, c[:size], size < m))
    roots = {}
    for size, group in sorted(stacks.items()):
        if size:
            # the factors are monic: the first row is minus the coefficients
            companion = np.zeros((len(group), size, size))
            companion[:, 1:, :-1] = np.eye(size - 1)
            companion[:, 0, :] = -np.array([c for _, _, c, _ in group])
            w = np.linalg.eigvals(companion)
        else:
            w = np.zeros((len(group), 0))
        if np.iscomplexobj(w):
            bound = 2 * (np.abs(companion[:, 0, :]) ** (1 / np.arange(1, size + 1))).max(axis=1)
            bad = (np.abs(w.imag) > _IMAG_TOL * bound[:, None]).any(axis=1)
            if bad.any():
                row = int(bad.argmax())
                j, f = group[row][:2]
                raise PGSTError(
                    f"the computed roots of the degree-{len(factors[j][f]) - 1} parity "
                    f"factor at E = {grid[j]} are not real (|Im| up to "
                    f"{np.abs(w[row].imag).max():.3g}, though every root is); "
                    "its numeric root distance would be wrong"
                )
            w = w.real
        for (j, f, _, zero), r in zip(group, w):
            roots[j, f] = np.append(r, 0.0) if zero else r
    dists = []
    for j, ((_, _, d), scale) in enumerate(zip(factors, scales)):
        dist = float(np.abs(roots[j, 0][:, None] - roots[j, 1][None, :]).min())
        try:
            scaled = float(Fraction(dist) * scale / d)
        except OverflowError:
            raise PGSTError(
                "a parity-factor coefficient exceeds the float range "
                f"(|x| <= {sys.float_info.max:.4g}) of the numeric root distance; "
                "use smaller couplings"
            ) from None
        if dist and scaled < sys.float_info.min:
            raise PGSTError(
                "the parity-factor root distance is below the float range "
                f"(|x| >= {sys.float_info.min:.4g}) of the numeric root distance; "
                "use larger couplings"
            )
        dists.append(scaled)
    return dists


def boundary_scan(
    builder: Callable[[Fraction, Fraction], Network],
    k: Fraction,
    e_grid: Sequence[Fraction],
    u: int = 2,
    v: int = 6,
) -> BoundaryReport:
    """Scan the shared on-site potential E for strong-cospectrality failures.

    At every grid value the exact resultant of the parity factors decides
    strong cospectrality: it is zero exactly when they share a root, which is
    exactly when the reduction polynomial is not square-free.  The genuinely
    failing E are irrational, so between grid points the failures are bracketed
    by sign changes of that resultant (equivalently, by the dip of the numeric
    minimum root distance through zero), compared between points whose parity
    factors have the same degrees.

    The scan runs in two passes.  The exact pass walks the whole grid and
    keeps only P+/- (integer polynomials in mu = d*lam), d and the resultant
    of each point, so it refuses a pair that is not cospectral at any grid
    point before any numeric work.  The numeric pass (`_root_distances`) then
    takes the roots of every parity factor from one `eigvals` call per
    companion-matrix size, bit for bit the roots np.roots would return.  It
    refuses a factor whose computed roots are not real (np.roots loses the real
    roots of the degree-41 and higher factors of the ends of long paths), and
    then, in grid order, a distance beyond the float range.
    """
    if k == 0:
        raise PGSTError("coupling k must be nonzero")
    grid = sorted(Fraction(e) for e in e_grid)
    if not grid:
        raise PGSTError("empty potential grid")
    # exact pass: P+/- in mu, d and the resultant per point, no network kept
    factors, resultants = [], []
    for e_val in grid:
        pair = _pair_polys(builder(k, e_val), u, v)
        if pair is None:
            raise PGSTError(f"pair ({u}, {v}) is not cospectral at E = {e_val}")
        factors.append((*pair.parity_factors, pair.d))
        resultants.append(pair.resultant)
    points = [
        BoundaryPoint(
            potential=e_val,
            strongly_cospectral=res != 0,
            resultant_sign=0 if res == 0 else (1 if res > 0 else -1),
            min_root_distance=dist,
        )
        for e_val, res, dist in zip(grid, resultants, _root_distances(factors, grid))
    ]
    degrees = [(len(p_plus) - 1, len(p_minus) - 1) for p_plus, p_minus, _ in factors]
    failures = tuple(p.potential for p in points if not p.strongly_cospectral)
    # A parity factor that loses its leading term at some E (P+ at E = 0 on
    # the nine-site network) flips the resultant's sign with no root crossing,
    # so a sign is compared only with the last point of the same degrees.
    brackets = []
    last: dict[tuple[int, int], BoundaryPoint] = {}
    for point, degs in zip(points, degrees):
        prev = last.get(degs)
        if point.resultant_sign == 0:
            brackets.append((point.potential, point.potential))
        elif prev is not None and prev.resultant_sign * point.resultant_sign < 0:
            brackets.append((prev.potential, point.potential))
        last[degs] = point
    brackets.sort()
    return BoundaryReport(
        coupling=Fraction(k),
        points=tuple(points),
        exact_failures=failures,
        brackets=tuple(brackets),
    )
