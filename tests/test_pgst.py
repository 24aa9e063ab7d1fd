import itertools
import random
from fractions import Fraction

import pytest
import sympy

import oracles
from conftest import grow
from latsym.network import Network
from latsym.ninesite import build_ninesite
from latsym.pgst import (
    CERTIFIED,
    LITERAL_CONDITION_FAILED,
    NOT_COSPECTRAL,
    NOT_STRONGLY_COSPECTRAL,
    PGSTError,
    boundary_scan,
    trace_ratios,
    is_irreducible,
    parity_decompose,
    pgst_certificate,
)
from latsym import pgst, polynomial, spectral
from latsym.polynomial import RationalPoly, _lam_poly
from latsym.spectral import (
    _pair_polys,
    char_poly,
    is_cospectral,
    is_latent_symmetric,
    is_strongly_cospectral,
    isospectral_reduction,
    singlet_sites,
)

P_MINUS = RationalPoly([Fraction(-729, 1250), 0, 1])
P_PLUS = RationalPoly(
    [
        Fraction(-387420489, 3906250000),
        0,
        Fraction(5845851, 6250000),
        0,
        Fraction(-5103, 2500),
        0,
        1,
    ]
)


def path_network(n, k=Fraction(1)):
    return Network(n, [Fraction(0)] * n, [(i, i + 1, k) for i in range(1, n)])


def test_decompose_two_site():
    dec = parity_decompose(path_network(2), 1, 2)
    assert dec.p_plus == RationalPoly([-1, 1])
    assert dec.p_minus == RationalPoly([1, 1])
    assert dec.p_zero == RationalPoly([1])


def test_decompose_three_site_path():
    dec = parity_decompose(path_network(3), 1, 3)
    assert dec.p_plus == RationalPoly([-2, 0, 1])
    assert dec.p_minus == RationalPoly([0, 1])
    assert dec.p_zero == RationalPoly([1])


def test_decompose_ninesite_frozen():
    dec = parity_decompose(build_ninesite(), 2, 6)
    assert dec.p_minus == P_MINUS
    assert dec.p_plus == P_PLUS
    assert dec.p_zero == RationalPoly([0, 1])


def test_decompose_reassembles_char_poly():
    for net, u, v in [
        (path_network(2), 1, 2),
        (path_network(3), 1, 3),
        (build_ninesite(), 2, 6),
        (build_ninesite(Fraction(2, 3), potential=Fraction(1, 7)), 2, 6),
    ]:
        dec = parity_decompose(net, u, v)
        assert dec.p_plus * dec.p_minus * dec.p_zero == char_poly(net)


def test_decompose_rejects_bad_pairs():
    with pytest.raises(PGSTError):
        parity_decompose(path_network(3), 1, 2)  # not cospectral
    twins = Network(4, [Fraction(0)] * 4, [(1, 2, Fraction(1)), (3, 4, Fraction(1))])
    with pytest.raises(PGSTError):
        parity_decompose(twins, 1, 3)  # cospectral but degenerate reduction


def test_trace_ratios_basic():
    r_plus, r_minus, distinct = trace_ratios(
        RationalPoly([2, -3, 1]), RationalPoly([-1, 1])
    )
    assert r_plus == Fraction(3, 2)
    assert r_minus == 1
    assert distinct
    # scale invariance
    assert trace_ratios(
        3 * RationalPoly([2, -3, 1]), -2 * RationalPoly([-1, 1])
    ) == (Fraction(3, 2), 1, True)
    # the nine-site parity factors are both even: ratios collapse to 0 = 0
    assert trace_ratios(P_PLUS, P_MINUS) == (0, 0, False)
    with pytest.raises(ValueError):
        trace_ratios(RationalPoly([1]), RationalPoly([0, 1]))


def test_is_irreducible_examples():
    assert is_irreducible(RationalPoly([5, 2]))
    assert is_irreducible(RationalPoly([1, 1, 1]))
    assert not is_irreducible(RationalPoly([Fraction(-1, 4), 0, 1]))
    assert is_irreducible(RationalPoly([1, 0, 0, 0, 1]))  # x^4 + 1
    assert not is_irreducible(RationalPoly([4, 0, 0, 0, 1]))  # (x^2-2x+2)(x^2+2x+2)
    assert not is_irreducible(RationalPoly([1, 0, 1, 0, 1]))
    assert is_irreducible(RationalPoly([1, 0, -10, 0, 1]))
    assert is_irreducible(P_MINUS)
    assert is_irreducible(P_PLUS)
    with pytest.raises(ValueError):
        is_irreducible(RationalPoly([7]))
    # one function: the benchmark tracer's pgst.is_irreducible is the polynomial one
    assert pgst.is_irreducible is polynomial.is_irreducible


def has_rational_root(coeffs):
    # integer coefficients, ascending; candidates p/q with p | a0, q | lead
    a0, lead = coeffs[0], coeffs[-1]
    if a0 == 0:
        return True
    p_divs = [d for d in range(1, abs(a0) + 1) if a0 % d == 0]
    q_divs = [d for d in range(1, abs(lead) + 1) if lead % d == 0]
    poly = RationalPoly(coeffs)
    for p in p_divs:
        for q in q_divs:
            for sign in (1, -1):
                if oracles.evaluate(poly, Fraction(sign * p, q)) == 0:
                    return True
    return False


def test_is_irreducible_against_root_search():
    # degree 2 and 3: reducible over Q iff a rational root exists
    rng = random.Random(41)
    checked = 0
    while checked < 40:
        deg = rng.randint(2, 3)
        coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [rng.choice([1, 2, 3, -1])]
        if coeffs[0] == 0 and rng.random() < 0.7:
            coeffs[0] = 1  # keep a few, but mostly avoid the trivial root
        assert is_irreducible(RationalPoly(coeffs)) == (not has_rational_root(coeffs))
        checked += 1


def test_certificate_two_site_is_certified():
    cert = pgst_certificate(path_network(2), 1, 2)
    assert cert.verdict == CERTIFIED
    assert cert.cospectral and cert.strongly_cospectral
    assert cert.swap_automorphism
    assert (cert.trace_ratio_plus, cert.trace_ratio_minus) == (1, -1)
    assert cert.trace_ratios_distinct
    assert "verdict: CERTIFIED" in cert.report_text()
    assert "latent_symmetric: no" in cert.report_text()


def test_certificate_three_site_fails_literal_condition():
    cert = pgst_certificate(path_network(3), 1, 3)
    assert cert.verdict == LITERAL_CONDITION_FAILED
    assert cert.trace_ratio_plus == cert.trace_ratio_minus == 0
    assert cert.plus_irreducible and cert.minus_irreducible


def test_certificate_ninesite():
    cert = pgst_certificate(build_ninesite(), 2, 6)
    assert cert.verdict == LITERAL_CONDITION_FAILED
    assert cert.cospectral
    assert not cert.swap_automorphism
    assert cert.strongly_cospectral
    assert cert.plus_irreducible and cert.minus_irreducible
    assert cert.trace_ratio_plus == 0 and cert.trace_ratio_minus == 0
    assert not cert.trace_ratios_distinct
    text = cert.report_text()
    assert "latent_symmetric: yes" in text
    assert "verdict: LITERAL_CONDITION_FAILED" in text
    assert "inconclusive" in text
    d = cert.to_dict()
    assert d["verdict"] == LITERAL_CONDITION_FAILED
    assert d["trace_ratio_plus"] == "0"


def test_certificate_gates():
    cert = pgst_certificate(path_network(3), 1, 2)
    assert cert.verdict == NOT_COSPECTRAL
    assert cert.p_plus is None
    twins = Network(4, [Fraction(0)] * 4, [(1, 2, Fraction(1)), (3, 4, Fraction(1))])
    cert = pgst_certificate(twins, 1, 3)
    assert cert.verdict == NOT_STRONGLY_COSPECTRAL
    assert cert.strongly_cospectral is False


def cycle_network(n, k=Fraction(1)):
    return Network(n, [Fraction(0)] * n, [(i, i % n + 1, k) for i in range(1, n + 1)])


# The complete text and dict of one certificate per verdict, and of every
# variant of the LITERAL_CONDITION_FAILED note, frozen.
INCONCLUSIVE = (
    " The algebraic test alone is therefore inconclusive for this network even though "
    "long-horizon envelope scans show the transfer fidelity approaching 1; judge "
    "transfer quality from that numerical evidence."
)
NINESITE_NOTES = (
    "all prerequisite conditions hold (strongly cospectral pair, both parity factors "
    "irreducible over Q) yet the trace-ratio inequality fails: both ratios equal 0 = 0."
    + INCONCLUSIVE
)
P5_NOTES = (
    "all prerequisite conditions hold (strongly cospectral pair) yet p_plus is reducible "
    "over Q; p_minus is reducible over Q; the trace-ratio inequality fails: both ratios "
    "equal 0 = 0." + INCONCLUSIVE
)
P7_NOTES = (
    "all prerequisite conditions hold (strongly cospectral pair) yet p_minus is reducible "
    "over Q; the trace-ratio inequality fails: both ratios equal 0 = 0." + INCONCLUSIVE
)
P8_NOTES = (
    "all prerequisite conditions hold (strongly cospectral pair) yet p_plus is reducible "
    "over Q; p_minus is reducible over Q." + INCONCLUSIVE
)
C4_NOTES = (
    "all prerequisite conditions hold (strongly cospectral pair) yet p_plus is reducible "
    "over Q; the trace-ratio inequality fails: both ratios equal 0 = 0." + INCONCLUSIVE
)
UNREACHED_TEXT = [
    "p_plus: n/a",
    "p_minus: n/a",
    "p_zero: n/a",
    "plus_irreducible: n/a",
    "minus_irreducible: n/a",
    "trace_ratio_plus: n/a",
    "trace_ratio_minus: n/a",
    "trace_ratios_distinct: n/a",
]
UNREACHED_ITEMS = [
    ("p_plus", None),
    ("p_minus", None),
    ("p_zero", None),
    ("plus_irreducible", None),
    ("minus_irreducible", None),
    ("trace_ratio_plus", None),
    ("trace_ratio_minus", None),
    ("trace_ratios_distinct", None),
]
FROZEN_CERTIFICATES = [
    (
        lambda: path_network(2),
        (1, 2),
        [
            "pair: (1, 2)",
            "cospectral: yes",
            "swap_automorphism: yes",
            "latent_symmetric: no",
            "strongly_cospectral: yes",
            "p_plus: lam - 1",
            "p_minus: lam + 1",
            "p_zero: 1",
            "plus_irreducible: yes",
            "minus_irreducible: yes",
            "trace_ratio_plus: 1",
            "trace_ratio_minus: -1",
            "trace_ratios_distinct: yes",
            "verdict: CERTIFIED",
            "notes: all algebraic transfer conditions are satisfied",
        ],
        [
            ("pair", [1, 2]),
            ("cospectral", True),
            ("swap_automorphism", True),
            ("strongly_cospectral", True),
            ("p_plus", ["-1", "1"]),
            ("p_minus", ["1", "1"]),
            ("p_zero", ["1"]),
            ("plus_irreducible", True),
            ("minus_irreducible", True),
            ("trace_ratio_plus", "1"),
            ("trace_ratio_minus", "-1"),
            ("trace_ratios_distinct", True),
            ("verdict", "CERTIFIED"),
            ("notes", "all algebraic transfer conditions are satisfied"),
        ],
    ),
    (
        build_ninesite,
        (2, 6),
        [
            "pair: (2, 6)",
            "cospectral: yes",
            "swap_automorphism: no",
            "latent_symmetric: yes",
            "strongly_cospectral: yes",
            "p_plus: lam^6 - 5103/2500*lam^4 + 5845851/6250000*lam^2 - 387420489/3906250000",
            "p_minus: lam^2 - 729/1250",
            "p_zero: lam",
            "plus_irreducible: yes",
            "minus_irreducible: yes",
            "trace_ratio_plus: 0",
            "trace_ratio_minus: 0",
            "trace_ratios_distinct: no",
            "verdict: LITERAL_CONDITION_FAILED",
            "notes: " + NINESITE_NOTES,
        ],
        [
            ("pair", [2, 6]),
            ("cospectral", True),
            ("swap_automorphism", False),
            ("strongly_cospectral", True),
            ("p_plus", ["-387420489/3906250000", "0", "5845851/6250000", "0", "-5103/2500", "0",
                        "1"]),
            ("p_minus", ["-729/1250", "0", "1"]),
            ("p_zero", ["0", "1"]),
            ("plus_irreducible", True),
            ("minus_irreducible", True),
            ("trace_ratio_plus", "0"),
            ("trace_ratio_minus", "0"),
            ("trace_ratios_distinct", False),
            ("verdict", "LITERAL_CONDITION_FAILED"),
            ("notes", NINESITE_NOTES),
        ],
    ),
    (
        lambda: Network(4, [Fraction(0)] * 4, [(1, 2, Fraction(1)), (3, 4, Fraction(1))]),
        (1, 3),
        [
            "pair: (1, 3)",
            "cospectral: yes",
            "swap_automorphism: yes",
            "latent_symmetric: no",
            "strongly_cospectral: no",
            *UNREACHED_TEXT,
            "verdict: NOT_STRONGLY_COSPECTRAL",
            "notes: the reduction has a repeated non-linear eigenvalue",
        ],
        [
            ("pair", [1, 3]),
            ("cospectral", True),
            ("swap_automorphism", True),
            ("strongly_cospectral", False),
            *UNREACHED_ITEMS,
            ("verdict", "NOT_STRONGLY_COSPECTRAL"),
            ("notes", "the reduction has a repeated non-linear eigenvalue"),
        ],
    ),
    (
        lambda: path_network(3),
        (1, 2),
        [
            "pair: (1, 2)",
            "cospectral: no",
            "swap_automorphism: no",
            "latent_symmetric: no",
            "strongly_cospectral: n/a",
            *UNREACHED_TEXT,
            "verdict: NOT_COSPECTRAL",
            "notes: the deleted-vertex characteristic polynomials differ",
        ],
        [
            ("pair", [1, 2]),
            ("cospectral", False),
            ("swap_automorphism", False),
            ("strongly_cospectral", None),
            *UNREACHED_ITEMS,
            ("verdict", "NOT_COSPECTRAL"),
            ("notes", "the deleted-vertex characteristic polynomials differ"),
        ],
    ),
    (
        lambda: path_network(5),
        (1, 5),
        [
            "pair: (1, 5)",
            "cospectral: yes",
            "swap_automorphism: yes",
            "latent_symmetric: no",
            "strongly_cospectral: yes",
            "p_plus: lam^3 - 3*lam",
            "p_minus: lam^2 - 1",
            "p_zero: 1",
            "plus_irreducible: no",
            "minus_irreducible: no",
            "trace_ratio_plus: 0",
            "trace_ratio_minus: 0",
            "trace_ratios_distinct: no",
            "verdict: LITERAL_CONDITION_FAILED",
            "notes: " + P5_NOTES,
        ],
        [
            ("pair", [1, 5]),
            ("cospectral", True),
            ("swap_automorphism", True),
            ("strongly_cospectral", True),
            ("p_plus", ["0", "-3", "0", "1"]),
            ("p_minus", ["-1", "0", "1"]),
            ("p_zero", ["1"]),
            ("plus_irreducible", False),
            ("minus_irreducible", False),
            ("trace_ratio_plus", "0"),
            ("trace_ratio_minus", "0"),
            ("trace_ratios_distinct", False),
            ("verdict", "LITERAL_CONDITION_FAILED"),
            ("notes", P5_NOTES),
        ],
    ),
    (
        lambda: path_network(7),
        (1, 7),
        [
            "pair: (1, 7)",
            "cospectral: yes",
            "swap_automorphism: yes",
            "latent_symmetric: no",
            "strongly_cospectral: yes",
            "p_plus: lam^4 - 4*lam^2 + 2",
            "p_minus: lam^3 - 2*lam",
            "p_zero: 1",
            "plus_irreducible: yes",
            "minus_irreducible: no",
            "trace_ratio_plus: 0",
            "trace_ratio_minus: 0",
            "trace_ratios_distinct: no",
            "verdict: LITERAL_CONDITION_FAILED",
            "notes: " + P7_NOTES,
        ],
        [
            ("pair", [1, 7]),
            ("cospectral", True),
            ("swap_automorphism", True),
            ("strongly_cospectral", True),
            ("p_plus", ["2", "0", "-4", "0", "1"]),
            ("p_minus", ["0", "-2", "0", "1"]),
            ("p_zero", ["1"]),
            ("plus_irreducible", True),
            ("minus_irreducible", False),
            ("trace_ratio_plus", "0"),
            ("trace_ratio_minus", "0"),
            ("trace_ratios_distinct", False),
            ("verdict", "LITERAL_CONDITION_FAILED"),
            ("notes", P7_NOTES),
        ],
    ),
    (
        lambda: path_network(8),
        (1, 8),
        [
            "pair: (1, 8)",
            "cospectral: yes",
            "swap_automorphism: yes",
            "latent_symmetric: no",
            "strongly_cospectral: yes",
            "p_plus: lam^4 - lam^3 - 3*lam^2 + 2*lam + 1",
            "p_minus: lam^4 + lam^3 - 3*lam^2 - 2*lam + 1",
            "p_zero: 1",
            "plus_irreducible: no",
            "minus_irreducible: no",
            "trace_ratio_plus: 1/4",
            "trace_ratio_minus: -1/4",
            "trace_ratios_distinct: yes",
            "verdict: LITERAL_CONDITION_FAILED",
            "notes: " + P8_NOTES,
        ],
        [
            ("pair", [1, 8]),
            ("cospectral", True),
            ("swap_automorphism", True),
            ("strongly_cospectral", True),
            ("p_plus", ["1", "2", "-3", "-1", "1"]),
            ("p_minus", ["1", "-2", "-3", "1", "1"]),
            ("p_zero", ["1"]),
            ("plus_irreducible", False),
            ("minus_irreducible", False),
            ("trace_ratio_plus", "1/4"),
            ("trace_ratio_minus", "-1/4"),
            ("trace_ratios_distinct", True),
            ("verdict", "LITERAL_CONDITION_FAILED"),
            ("notes", P8_NOTES),
        ],
    ),
    (
        lambda: cycle_network(4),
        (1, 3),
        [
            "pair: (1, 3)",
            "cospectral: yes",
            "swap_automorphism: yes",
            "latent_symmetric: no",
            "strongly_cospectral: yes",
            "p_plus: lam^2 - 4",
            "p_minus: lam",
            "p_zero: lam",
            "plus_irreducible: no",
            "minus_irreducible: yes",
            "trace_ratio_plus: 0",
            "trace_ratio_minus: 0",
            "trace_ratios_distinct: no",
            "verdict: LITERAL_CONDITION_FAILED",
            "notes: " + C4_NOTES,
        ],
        [
            ("pair", [1, 3]),
            ("cospectral", True),
            ("swap_automorphism", True),
            ("strongly_cospectral", True),
            ("p_plus", ["-4", "0", "1"]),
            ("p_minus", ["0", "1"]),
            ("p_zero", ["0", "1"]),
            ("plus_irreducible", False),
            ("minus_irreducible", True),
            ("trace_ratio_plus", "0"),
            ("trace_ratio_minus", "0"),
            ("trace_ratios_distinct", False),
            ("verdict", "LITERAL_CONDITION_FAILED"),
            ("notes", C4_NOTES),
        ],
    ),
]


@pytest.mark.parametrize(
    "build, pair, text, items",
    FROZEN_CERTIFICATES,
    ids=[
        CERTIFIED,
        LITERAL_CONDITION_FAILED,
        NOT_STRONGLY_COSPECTRAL,
        NOT_COSPECTRAL,
        "P5-ends-both-reducible",
        "P7-ends-minus-reducible",
        "P8-ends-both-reducible-ratios-distinct",
        "C4-antipodes-plus-reducible",
    ],
)
def test_certificate_text_and_dict_are_frozen(build, pair, text, items):
    cert = pgst_certificate(build(), *pair)
    assert cert.report_text() == "\n".join(text)
    assert list(cert.to_dict().items()) == items


def test_certificate_text_omits_empty_notes():
    cert = pgst_certificate(path_network(2), 1, 2)
    cert.notes = ""
    assert cert.report_text().splitlines()[-1] == "verdict: CERTIFIED"
    assert cert.to_dict()["notes"] == ""


def test_certificate_skips_swap_search_for_a_non_cospectral_pair(monkeypatch):
    # a swap automorphism implies cospectrality, so the search cannot change the answer
    def refuse(*args):
        raise AssertionError("has_swap_automorphism called on a non-cospectral pair")

    monkeypatch.setattr(pgst, "has_swap_automorphism", refuse)
    cert = pgst_certificate(path_network(3), 1, 2)
    assert cert.verdict == NOT_COSPECTRAL
    assert cert.swap_automorphism is False


@pytest.mark.parametrize(
    "net, pair, verdict",
    [
        (Network(4, [Fraction(0)] * 4, [(1, 2, Fraction(1)), (3, 4, Fraction(1))]), (1, 3),
         NOT_STRONGLY_COSPECTRAL),
        (path_network(3), (1, 2), NOT_COSPECTRAL),  # the swap search: the test above
    ],
)
def test_certificate_stops_at_the_first_failed_verdict_gate(monkeypatch, net, pair, verdict):
    # the gates after a failed cospectral or strongly cospectral gate never run
    def refuse(*args):
        raise AssertionError("a gate ran after the certificate's verdict was decided")

    monkeypatch.setattr(pgst, "is_irreducible", refuse)
    monkeypatch.setattr(pgst, "trace_ratios", refuse)
    assert pgst_certificate(net, *pair).verdict == verdict


def frange(lo, hi, step):
    grid = []
    e = Fraction(lo)
    while e <= Fraction(hi):
        grid.append(e)
        e += Fraction(step)
    return grid


def test_boundary_scan_brackets_upper_breakdown():
    report = boundary_scan(
        build_ninesite, Fraction(1), frange("24/10", "121/50", "1/100")
    )
    assert report.exact_failures == ()
    assert all(p.strongly_cospectral for p in report.points)
    assert report.brackets == ((Fraction(241, 100), Fraction(121, 50)),)


def test_boundary_scan_brackets_lower_breakdown():
    report = boundary_scan(
        build_ninesite, Fraction(1), frange("-43/100", "-2/5", "1/100")
    )
    assert report.brackets == ((Fraction(-21, 50), Fraction(-41, 100)),)


def test_boundary_scan_far_from_breakdown():
    report = boundary_scan(build_ninesite, Fraction(1), frange(5, 6, "1/2"))
    assert report.brackets == ()
    assert report.exact_failures == ()
    assert "no exact failures" in report.report_text()


def test_boundary_location_scales_with_coupling():
    # with doubled coupling the breakdown potential doubles
    report = boundary_scan(
        build_ninesite, Fraction(2), frange("482/100", "484/100", "1/100")
    )
    assert report.brackets == ((Fraction(482, 100), Fraction(483, 100)),)


def test_boundary_root_distance_dips_near_breakdown():
    near = boundary_scan(build_ninesite, Fraction(1), [Fraction(241, 100)])
    far = boundary_scan(build_ninesite, Fraction(1), [Fraction(5)])
    assert near.points[0].min_root_distance < 0.05
    assert far.points[0].min_root_distance > 0.1


def test_boundary_root_distance_holds_at_every_coupling_in_float_range():
    # where a coefficient in lam leaves the normal float range the roots are
    # found in mu/2^e, so a tiny coupling no longer underflows and a huge one
    # no longer overflows; at E = k/10 the nine-site distance is 0.1366846*k
    for k in (Fraction(27, 50), Fraction(1, 10**5), Fraction(1, 10**100),
              Fraction(1, 10**200), Fraction(10**7), Fraction(10**100)):
        point = boundary_scan(build_ninesite, k, [k / 10]).points[0]
        assert point.strongly_cospectral
        assert point.min_root_distance / float(k) == pytest.approx(0.1366846, rel=1e-6)
    # beyond the float range the distance is refused, never returned as 0.0
    for k in (Fraction(1, 10**400), Fraction(10**400)):
        with pytest.raises(PGSTError, match="float range"):
            boundary_scan(build_ninesite, k, [k / 10])


def test_boundary_scan_ignores_sign_flip_where_a_parity_factor_drops_a_degree():
    # at E = 0 the nine-site P+ has degree 6 instead of 7, which flips the
    # resultant's sign although no parity eigenvalues cross
    grid = [Fraction(-1, 100), Fraction(0), Fraction(1, 100)]
    report = boundary_scan(build_ninesite, Fraction(27, 50), grid)
    assert [p.resultant_sign for p in report.points] == [-1, 1, -1]
    assert report.brackets == ()
    # the real crossings on either side are still bracketed
    wide = boundary_scan(build_ninesite, Fraction(27, 50), frange("-1/4", "1/4", "1/100"))
    assert wide.brackets == (
        (Fraction(-23, 100), Fraction(-11, 50)),
        (Fraction(11, 50), Fraction(23, 100)),
    )


def test_boundary_scan_input_validation():
    with pytest.raises(PGSTError):
        boundary_scan(build_ninesite, Fraction(0), [Fraction(1)])
    with pytest.raises(PGSTError):
        boundary_scan(build_ninesite, Fraction(1), [])
    with pytest.raises(PGSTError, match="not cospectral at E = 1"):
        boundary_scan(build_ninesite, Fraction(1), [Fraction(1)], u=1, v=5)


def ends_with_potential(n):
    """A path of n sites, coupling k, with potential E on both end sites."""

    def build(k, e):
        onsite = [Fraction(0)] * n
        onsite[0] = onsite[-1] = e
        return Network(n, onsite, [(i, i + 1, k) for i in range(1, n)])

    return build


@pytest.mark.parametrize(
    "builder, k, grid, u, v, in_lam",
    [
        # P+ drops from degree 7 to 6 at E = 0: two companion sizes for P+
        (build_ninesite, Fraction(27, 50), frange("-3/100", "3/100", "1/100"), 2, 6, True),
        # P- = lam - E of degree 1, and P- = lam at E = 0: a zero root, no companion
        (ends_with_potential(3), Fraction(1), frange("-1/2", "1/2", "1/4"), 1, 3, True),
        # large and small couplings still read in lam, and the nu-scaled branch
        (build_ninesite, Fraction(10**7), [Fraction(10**6), Fraction(0)], 2, 6, True),
        (build_ninesite, Fraction(1, 10**13), [Fraction(1, 10**14), Fraction(0)], 2, 6, True),
        (build_ninesite, Fraction(10**100), [Fraction(10**99), Fraction(0)], 2, 6, False),
        (build_ninesite, Fraction(1, 10**100), [Fraction(1, 10**101), Fraction(0)], 2, 6, False),
        # one point, and an unsorted grid
        (build_ninesite, Fraction(1), [Fraction(241, 100)], 2, 6, True),
        (build_ninesite, Fraction(27, 50), [Fraction(13, 10), Fraction(-1, 5), Fraction(0),
                                            Fraction(7, 10)], 2, 6, True),
    ],
)
def test_boundary_distances_equal_a_per_point_np_roots_oracle(builder, k, grid, u, v, in_lam):
    # one eigvals call per companion size returns what np.roots returns for
    # each factor alone, so every distance is bit-identical to the oracle's
    report = boundary_scan(builder, k, grid, u=u, v=v)
    assert [p.potential for p in report.points] == sorted(grid)
    for point in report.points:
        pair = _pair_polys(builder(k, point.potential), u, v)
        p_plus, p_minus = pair.parity_factors
        assert (pgst._root_scale(p_plus, p_minus, pair.d) == pair.d) == in_lam
        want = oracles.np_roots_distance(p_plus, p_minus, pair.d)
        assert point.min_root_distance.hex() == want.hex()


def test_boundary_scan_refuses_a_non_cospectral_point_before_any_float_range():
    # the exact pass walks the whole grid before any root is computed
    def builder(k, e):
        if e == 2:  # a potential on site 1 alone breaks cospectrality of (2, 6)
            return Network(9, [e] + [Fraction(0)] * 8, build_ninesite(k).edges)
        return build_ninesite(k * 10**400 if e == 1 else k, e)

    with pytest.raises(PGSTError, match="not cospectral at E = 2"):
        boundary_scan(builder, Fraction(1), [Fraction(2), Fraction(0), Fraction(1)])
    with pytest.raises(PGSTError, match="exceeds the float range"):
        boundary_scan(builder, Fraction(1), [Fraction(0), Fraction(1)])


def test_boundary_scan_refuses_non_real_roots():
    # every root of P+/- is real, but np.roots returns the degree-50 factors
    # of the ends of a 100-site path with imaginary parts up to 0.07
    with pytest.raises(PGSTError, match="degree-50 parity factor at E = 0 are not real"):
        boundary_scan(ends_with_potential(100), Fraction(1), [Fraction(0)], u=1, v=100)
    # at degree 30 they come back exactly real
    report = boundary_scan(
        ends_with_potential(60), Fraction(1), [Fraction(0), Fraction(1, 3)], u=1, v=60
    )
    assert all(p.min_root_distance > 0 for p in report.points)


def test_boundary_scan_keeps_only_the_polynomials_per_point():
    # the exact pass keeps P+/-, d and the resultant of each point, never its
    # network or walk data: 0.75 MB peak on this grid, 3.2 MB if each point's
    # _PairPolys (with its network) is kept
    import tracemalloc

    import numpy  # noqa: F401  (imported before tracing starts)

    grid = [Fraction(i, 100) for i in range(-200, 200)]
    boundary_scan(build_ninesite, Fraction(27, 50), grid[:5])
    tracemalloc.start()
    try:
        boundary_scan(build_ninesite, Fraction(27, 50), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def twin_chains(k, e):
    return Network(4, [e, Fraction(0), e, Fraction(0)], [(1, 2, k), (3, 4, k)])


def test_boundary_common_factor_is_a_zero_resultant():
    # the ends of two identical chains share every parity eigenvalue
    grid = [Fraction(-1, 10), Fraction(0), Fraction(241, 100)]
    for builder, u, v in ((twin_chains, 1, 3), (build_ninesite, 2, 6)):
        report = boundary_scan(builder, Fraction(27, 50), grid, u=u, v=v)
        for point in report.points:
            p_plus, p_minus = _pair_polys(
                builder(Fraction(27, 50), point.potential), u, v
            ).parity_factors
            # integer lists in mu = d*lam share a root iff the parity factors do
            x = sympy.Symbol("x")
            common = sympy.Poly(p_plus[::-1], x).gcd(sympy.Poly(p_minus[::-1], x)).degree() > 0
            assert (not point.strongly_cospectral) == common == (builder is twin_chains)


def test_one_adjugate_pass_per_public_call(monkeypatch):
    # phi(G) is the only quantity that reads the traces to depth n: P0 reads
    # them to depth deg P0 <= n - 2
    calls = []
    engine = spectral._traces

    def counted(net, m):
        if m == net.n:
            calls.append(net.n)
        return engine(net, m)

    monkeypatch.setattr(spectral, "_traces", counted)
    twins = Network(4, [Fraction(0)] * 4, [(1, 2, Fraction(1)), (3, 4, Fraction(1))])
    cases = [
        (pgst_certificate, build_ninesite(), 2, 6, 0),  # certified
        (pgst_certificate, path_network(3), 1, 3, 0),  # literal condition fails
        (pgst_certificate, twins, 1, 3, 0),  # not strongly cospectral: no phi(G)
        (pgst_certificate, path_network(3), 1, 2, 0),  # not cospectral
        (parity_decompose, build_ninesite(), 2, 6, 0),
        (is_strongly_cospectral, build_ninesite(), 2, 6, 0),
        (is_strongly_cospectral, twins, 1, 3, 0),
        (is_strongly_cospectral, path_network(3), 1, 2, 0),
        (isospectral_reduction, build_ninesite(), 2, 6, 0),
    ]
    # a pair that is not cospectral is decided by its closed-walk counts alone,
    # and P+/- and the reduction come from the pair's own walk; only char_poly reads phi(G)
    for fn, net, u, v, passes in cases:
        calls.clear()
        fn(net, u, v)
        assert len(calls) == passes, fn.__name__
    # closed-walk counts decide these with no adjugate pass
    for fn in (is_cospectral, is_latent_symmetric, singlet_sites):
        calls.clear()
        fn(build_ninesite(), 2, 6)
        assert len(calls) == 0, fn.__name__
    calls.clear()
    char_poly(build_ninesite())
    assert len(calls) == 1
    calls.clear()
    boundary_scan(build_ninesite, Fraction(1), frange(5, 6, "1/2"))
    assert len(calls) == 0


def test_a_certificate_walks_each_other_site_only_to_depth_deg_p_zero():
    # P0 reads tr A^i for i <= m = deg P0 alone: each site outside the pair is
    # walked ceil(m/2) products deep, two counts per product, or not at all
    for net, u, v, m in [
        (build_ninesite(), 2, 6, 1),
        (grow(20, 1), 2, 6, 4),
        (grow(40, 2), 2, 6, 8),
        (path_network(30), 1, 30, 0),
    ]:
        assert pgst_certificate(net, u, v).p_zero.degree == m
        walks = net._integer_form.walks
        others = [w for w in range(net.n) if w not in (u - 1, v - 1)]
        counts = [len(walks[w][0]) if w in walks else None for w in others]
        assert counts == [2 * -(-m // 2) + 1 if m else None] * len(others)


def test_p_zero_is_char_poly_over_the_parity_factors(oracle_networks):
    # oracle: phi(G) in mu divided exactly by P+ P-; the mirrored nets can put
    # one theta in both P+ and P0
    nets = [
        *oracle_networks,
        grow(11, 0),
        grow(20, 1),
        grow(40, 2),
        build_ninesite(Fraction(10**7)),
        build_ninesite(Fraction(1, 10**13)),
    ]
    cases = [
        (net, u, v)
        for net in nets
        for u, v in itertools.combinations(range(1, net.n + 1), 2)
        if is_strongly_cospectral(net, u, v)
    ]
    cases += [(path_network(n), 1, n) for n in range(2, 41)]
    for net, u, v in cases:
        pair = _pair_polys(net, u, v)
        p_plus, p_minus = pair.parity_factors
        fresh = Network(net.n, net.onsite, net.edges)
        d, phi = fresh._integer_form.d, spectral._from_power_sums(spectral._traces(fresh, net.n))
        want = _lam_poly(polynomial._int_exact_div(phi, polynomial._int_mul(p_plus, p_minus)), d)
        assert parity_decompose(net, u, v).p_zero == want
    assert len(cases) >= 51


def test_certificate_on_the_ends_of_a_long_path_reads_no_characteristic_polynomial(monkeypatch):
    engine = spectral._traces

    def refuse(net, m):
        if m == net.n:  # phi(G) reads the traces to depth n, P0 to deg P0 < n
            raise AssertionError("the certificate computed phi(G)")
        return engine(net, m)

    monkeypatch.setattr(spectral, "_traces", refuse)
    cert = pgst_certificate(path_network(150), 1, 150)
    assert (cert.p_plus.degree, cert.p_minus.degree, cert.p_zero) == (75, 75, RationalPoly([1]))


def test_parity_signs_are_negative_on_every_strongly_cospectral_pair(oracle_networks):
    # a +/- b - lam = -P+/-/N+/-, with N+/- monic, leads with -1; check it against
    # the oracle's rational-function arithmetic on the reduction
    lam = oracles.reduced(oracles.LAM)
    nets = oracle_networks + [build_ninesite(), path_network(2), path_network(3)]
    certified = 0
    for net in nets:
        for u, v in itertools.permutations(range(1, net.n + 1), 2):
            cert = pgst_certificate(net, u, v)
            if not cert.strongly_cospectral:
                continue
            certified += 1
            red = isospectral_reduction(net, u, v)
            plus = oracles.rf_sub(oracles.rf_add(red.a, red.b), lam)[0]
            minus = oracles.rf_sub(oracles.rf_sub(red.a, red.b), lam)[0]
            assert plus.leading < 0 and minus.leading < 0
            assert (plus.monic(), minus.monic()) == (cert.p_plus, cert.p_minus)
    assert certified >= 12
