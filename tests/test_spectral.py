import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
import sympy

import oracles
from conftest import mirrored_network, random_network
from latsym import spectral
from latsym.network import Network
from latsym.ninesite import build_ninesite
from latsym.pgst import pgst_certificate
from latsym.polynomial import RationalPoly, _int_gcd, _int_mul, _lam_poly, det_fraction
from latsym.spectral import (
    ReductionMatrix,
    SpectralError,
    _from_power_sums,
    _pair_polys,
    _traces,
    char_poly,
    is_cospectral,
    is_latent_symmetric,
    is_strongly_cospectral,
    isospectral_reduction,
    reduction_charpoly,
    singlet_sites,
)

# parity factors of the nine-site network at k = 27/50, frozen exactly
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


X = sympy.Symbol("x")


def to_sympy(p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                      X, domain="QQ")


def from_sympy(q):
    return RationalPoly([Fraction(int(c.p), int(c.q)) for c in reversed(q.all_coeffs())])


def path_network(n, k=Fraction(1), onsite=None):
    return Network(
        n,
        onsite if onsite is not None else [Fraction(0)] * n,
        [(i, i + 1, k) for i in range(1, n)],
    )


def rand_network(rng, n_max=5):
    n = rng.randint(2, n_max)
    onsite = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.6:
                w = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                if w:
                    edges.append((i, j, w))
    return Network(n, onsite, edges)


def test_char_poly_small_cases():
    single = Network(1, [Fraction(5, 3)], [])
    assert char_poly(single) == RationalPoly([Fraction(-5, 3), 1])
    pair = path_network(2, k=Fraction(3, 4))
    assert char_poly(pair) == RationalPoly([Fraction(-9, 16), 0, 1])
    triple = path_network(3)
    assert char_poly(triple) == RationalPoly([0, -2, 0, 1])


def test_char_poly_is_monic_of_degree_n():
    rng = random.Random(2)
    for _ in range(10):
        net = rand_network(rng)
        p = char_poly(net)
        assert p.degree == net.n
        assert p.leading == 1


def test_char_poly_matches_direct_determinant():
    # the production path interpolates integer determinants; re-derive a few
    # values with plain fraction elimination at fresh sample points
    rng = random.Random(17)
    for _ in range(10):
        net = rand_network(rng)
        p = char_poly(net)
        h = net.hamiltonian()
        for x in (Fraction(7, 2), Fraction(-5, 3), Fraction(13)):
            shifted = [
                [(x if i == j else Fraction(0)) - h[i][j] for j in range(net.n)]
                for i in range(net.n)
            ]
            assert oracles.evaluate(p, x) == det_fraction(shifted)


def test_char_poly_of_disjoint_parts_multiplies():
    a = path_network(2, k=Fraction(2, 3))
    b = path_network(3)
    both = Network(
        5,
        [Fraction(0)] * 5,
        [(1, 2, Fraction(2, 3)), (3, 4, Fraction(1)), (4, 5, Fraction(1))],
    )
    assert char_poly(both) == char_poly(a) * char_poly(b)


def test_ninesite_char_poly_factors_exactly():
    p = char_poly(build_ninesite())
    assert p == RationalPoly([0, 1]) * P_MINUS * P_PLUS


def test_cospectrality_of_ninesite_pairs():
    net = build_ninesite()
    assert is_cospectral(net, 2, 6)
    assert not is_cospectral(net, 1, 5)
    assert not is_cospectral(net, 2, 7)
    assert is_latent_symmetric(net, 2, 6)


def test_cospectrality_with_potential_and_other_couplings():
    for k, e in [(Fraction(1), Fraction(0)), (Fraction(27, 50), Fraction(-3, 7)), (Fraction(2, 5), Fraction(4))]:
        assert is_cospectral(build_ninesite(k, e), 2, 6)


def test_mirror_pairs_are_cospectral():
    net = path_network(5)
    assert is_cospectral(net, 1, 5)
    assert is_cospectral(net, 2, 4)
    assert not is_latent_symmetric(net, 1, 5)  # the mirror is an automorphism


def test_cospectral_iff_equal_return_walks():
    # closed-walk counts (H^m)_uu vs (H^m)_vv decide cospectrality; check the
    # deleted-charpoly route against that criterion on random networks
    rng = random.Random(23)
    for _ in range(15):
        net = rand_network(rng)
        h = net.hamiltonian()
        u, v = rng.sample(range(1, net.n + 1), 2)
        power = [[Fraction(int(i == j)) for j in range(net.n)] for i in range(net.n)]
        walks_equal = True
        for _ in range(2 * net.n):
            power = [
                [sum(power[i][k] * h[k][j] for k in range(net.n)) for j in range(net.n)]
                for i in range(net.n)
            ]
            if power[u - 1][u - 1] != power[v - 1][v - 1]:
                walks_equal = False
                break
        assert is_cospectral(net, u, v) == walks_equal


def test_is_cospectral_validates_pair():
    net = path_network(3)
    with pytest.raises(Exception):
        is_cospectral(net, 1, 1)
    with pytest.raises(Exception):
        is_cospectral(net, 0, 2)


def deleted_charpoly_values(net, w):
    """det(x*I - H) with site w deleted, at x = 0, ..., n - 1, by det_fraction."""
    h = net.hamiltonian()
    keep = [i for i in range(net.n) if i != w - 1]
    return [
        det_fraction([[Fraction(x * (i == j)) - h[i][j] for j in keep] for i in keep])
        for x in range(net.n)
    ]


def test_cospectral_pairs_on_one_network_match_the_deleted_vertex_oracle(
    oracle_networks, monkeypatch
):
    # every pair is asked of one Network object, so later queries read the
    # closed-walk counts that earlier ones left on it; two monic polynomials of
    # degree n - 1 are equal iff they agree at n points
    rng = random.Random(41)
    mirrored_paths = [
        path_network(n, Fraction(-2, 3), [Fraction(min(i, n - 1 - i), 2) for i in range(n)])
        for n in range(2, 9)
    ]
    nets = [*mirrored_paths, *(rand_network(rng, 8) for _ in range(20)), *oracle_networks]
    products = []
    times_a = spectral._times_a

    def counted(rows, y):
        products.append(len(y))
        return times_a(rows, y)

    monkeypatch.setattr(spectral, "_times_a", counted)
    cospectral = 0
    for net in nets:
        values = [deleted_charpoly_values(net, w) for w in range(1, net.n + 1)]
        pairs = list(itertools.combinations(range(1, net.n + 1), 2))
        want = {(u, v): values[u - 1] == values[v - 1] for u, v in pairs}
        cospectral += sum(want.values())
        rng.shuffle(pairs)
        assert {(u, v): is_cospectral(net, u, v) for u, v in pairs} == want
        products.clear()
        rng.shuffle(pairs)
        assert {(u, v): is_cospectral(net, v, u) for u, v in pairs} == want
        assert products == []  # the warm queries read the walk table only
    assert cospectral >= 20


def test_singlets_and_certificate_agree_on_a_warm_network_and_a_fresh_copy(oracle_networks):
    checked = 0
    for net in [*oracle_networks, build_ninesite(), path_network(5)]:
        pairs = itertools.combinations(range(1, net.n + 1), 2)
        for u, v in [p for p in pairs if is_cospectral(net, *p)]:  # warms net
            fresh = Network(net.n, net.onsite, net.edges)
            assert singlet_sites(net, u, v) == singlet_sites(fresh, u, v)
            fresh = Network(net.n, net.onsite, net.edges)
            assert pgst_certificate(net, u, v).to_dict() == pgst_certificate(fresh, u, v).to_dict()
            checked += 1
    assert checked >= 8


def test_exact_answers_do_not_depend_on_what_the_walk_table_already_holds(oracle_networks):
    # phi(G) reads every site's closed-walk counts from the network's table, so
    # a table that cospectrality or singlet queries extended first must give
    # the same polynomials as a fresh one
    checked = 0
    for net in [*oracle_networks, build_ninesite(), path_network(5)]:
        pairs = list(itertools.combinations(range(1, net.n + 1), 2))
        cospectral = [p for p in pairs if is_cospectral(Network(net.n, net.onsite, net.edges), *p)]
        for u, v in cospectral:
            fresh, all_pairs, singlets = (Network(net.n, net.onsite, net.edges) for _ in range(3))
            for p in pairs:
                is_cospectral(all_pairs, *p)
            singlet_sites(singlets, u, v)
            answers = [
                (
                    pgst_certificate(copy, u, v).to_dict(),
                    isospectral_reduction(copy, u, v),
                    char_poly(copy),
                )
                for copy in (fresh, all_pairs, singlets)
            ]
            assert answers[0] == answers[1] == answers[2]
            checked += 1
    assert checked >= 8


def test_singlet_sites_path():
    assert singlet_sites(path_network(3), 1, 3) == frozenset({2})
    assert singlet_sites(path_network(5), 1, 5) == frozenset({3})
    assert singlet_sites(path_network(5), 2, 4) == frozenset({3})
    assert singlet_sites(path_network(2), 1, 2) == frozenset()


def power_singlets(net, u, v, top):
    """w outside the pair with (H^m)[u,w] = (H^m)[v,w] for m = 1..top, by Fraction powers."""
    n = net.n
    h = net.hamiltonian()
    ru = [Fraction(int(i == u - 1)) for i in range(n)]
    rv = [Fraction(int(i == v - 1)) for i in range(n)]
    alive = {w for w in range(1, n + 1) if w not in (u, v)}
    for _ in range(top):
        ru = [sum(ru[i] * h[i][j] for i in range(n)) for j in range(n)]
        rv = [sum(rv[i] * h[i][j] for i in range(n)) for j in range(n)]
        alive = {w for w in alive if ru[w - 1] == rv[w - 1]}
    return frozenset(alive)


def test_singlet_sites_ninesite():
    net = build_ninesite()
    assert singlet_sites(net, 2, 6) == frozenset({4, 8, 9})
    # powers far beyond Cayley-Hamilton's n - 1 must not change the answer
    assert power_singlets(net, 2, 6, 2 * net.n) == frozenset({4, 8, 9})


def test_singlet_sites_requires_cospectral_pair():
    with pytest.raises(SpectralError):
        singlet_sites(path_network(3), 1, 2)


def test_reduction_two_site_network():
    net = path_network(2, k=Fraction(3, 5))
    red = isospectral_reduction(net, 1, 2)
    assert red.a == (RationalPoly([0]), RationalPoly([1]))
    assert red.b == (RationalPoly([Fraction(3, 5)]), RationalPoly([1]))


def test_reduction_three_site_path():
    red = isospectral_reduction(path_network(3), 1, 3)
    lam_inv = (RationalPoly([1]), RationalPoly([0, 1]))
    assert red.a == lam_inv
    assert red.b == lam_inv
    assert oracles.rf_evaluate(red.a, Fraction(2)) == Fraction(1, 2)


def test_reduction_rejects_non_cospectral_pair():
    with pytest.raises(SpectralError):
        isospectral_reduction(path_network(3), 1, 2)
    uneven = Network(2, [Fraction(0), Fraction(1)], [(1, 2, Fraction(1))])
    with pytest.raises(SpectralError):
        isospectral_reduction(uneven, 1, 2)


def test_ninesite_reduction_frozen_coefficients():
    red = isospectral_reduction(build_ninesite(), 2, 6)
    shared_den = RationalPoly(
        [0, Fraction(531441, 1250000), 0, Fraction(-729, 500), 0, 1]
    )
    assert red.a.den == shared_den
    assert red.b.den == shared_den
    assert red.a.num == RationalPoly(
        [
            Fraction(2711943423, 15625000000),
            0,
            Fraction(-531441, 781250),
            0,
            Fraction(729, 1250),
        ]
    )
    assert red.b.num == RationalPoly(
        [Fraction(-1162261467, 15625000000), 0, Fraction(531441, 3125000)]
    )


def test_ninesite_reduction_frozen_point_values():
    # these four values were re-derived by hand from the closed-form entries
    red = isospectral_reduction(build_ninesite(), 2, 6)
    at = oracles.rf_evaluate
    assert at(red.a, Fraction(1)) == Fraction(-1195623423, 513237500)
    assert at(red.b, Fraction(1)) == Fraction(-1494943533, 513237500)
    assert at(red.a, Fraction(2)) == Fraction(105996663423, 331036025000)
    assert at(red.b, Fraction(2)) == Fraction(9466558533, 331036025000)


def test_reduction_preserves_point_spectrum():
    # eigenvalue condition: det(R(lam) - lam I) = 0 exactly on char_poly roots
    # that survive the reduction; equivalently its numerator divides char_poly
    net = build_ninesite()
    red = isospectral_reduction(net, 2, 6)
    rc = reduction_charpoly(red)
    assert to_sympy(char_poly(net)).rem(to_sympy(rc)).is_zero


def test_reduction_charpoly_three_site():
    red = isospectral_reduction(path_network(3), 1, 3)
    assert reduction_charpoly(red) == RationalPoly([-2, 0, 1])


def test_reduction_charpoly_matches_rational_function_arithmetic(oracle_networks):
    nets = [*oracle_networks, build_ninesite(), build_ninesite(Fraction(10**7), Fraction(1, 3)),
            *map(path_network, (2, 3, 5, 7))]
    pairs = [
        (net, u, v)
        for net in nets
        for u, v in itertools.combinations(range(1, net.n + 1), 2)
        if is_cospectral(net, u, v)
    ]
    assert len(pairs) >= 12
    shared = 0
    for net, u, v in pairs:
        red = isospectral_reduction(net, u, v)
        assert reduction_charpoly(red).coeffs == oracles.rational_function_charpoly(red).coeffs
        num = _int_mul(*red._pair.parity_factors)
        shared += len(_int_gcd(num, _int_mul(*red._pair.numerators))) > 1
    # P+ P- and N+ N- share a factor on the ends of P_3, P_5 and P_7, P_7's
    # (2, 6) and (3, 5), and the n = 4 mirrored net's (1, 2): these pairs are
    # the ones that fail if the gcd is not divided out
    assert shared >= 3
    # only a matrix isospectral_reduction returned carries the pair data
    red = isospectral_reduction(build_ninesite(), 2, 6)
    for bare in (ReductionMatrix(red.a, red.b), dataclasses.replace(red, a=red.b)):
        with pytest.raises(SpectralError, match="isospectral_reduction"):
            reduction_charpoly(bare)


def test_strong_cospectrality():
    assert is_strongly_cospectral(build_ninesite(), 2, 6)
    assert is_strongly_cospectral(path_network(3), 1, 3)
    assert not is_strongly_cospectral(path_network(3), 1, 2)


def test_disjoint_twins_are_not_strongly_cospectral():
    # two identical 2-chains: ends of different chains are cospectral but the
    # reduction eigenvalues are doubly degenerate
    net = Network(
        4,
        [Fraction(0)] * 4,
        [(1, 2, Fraction(1)), (3, 4, Fraction(1))],
    )
    assert is_cospectral(net, 1, 3)
    assert not is_strongly_cospectral(net, 1, 3)


def test_strong_cospectrality_of_a_long_path_streams_its_walk():
    # the ends of P_150: the parity factors come from one walk of 2n - 1 steps,
    # keeping two entries per step rather than the 300 x 150 walk of big ints
    import tracemalloc

    net = path_network(150)
    tracemalloc.start()
    try:
        assert is_strongly_cospectral(net, 1, 150)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # streamed: about 0.07 MB; holding the whole walk: about 1.3 MB
    assert peak < 5e5


def test_reduction_is_relabeling_invariant():
    net = build_ninesite()
    base = isospectral_reduction(net, 2, 6)
    rng = random.Random(31)
    ids = list(range(1, 10))
    rng.shuffle(ids)
    perm = dict(zip(range(1, 10), ids))
    shuffled = Network(
        9,
        [net.onsite[old - 1] for old in sorted(perm, key=perm.get)],
        [(perm[i], perm[j], w) for i, j, w in net.edges],
    )
    red = isospectral_reduction(shuffled, perm[2], perm[6])
    assert red.a == base.a
    assert red.b == base.b


# -- the exact engine and the adjugate oracle against cofactors and each other --


def sample_points(n):
    # more points than twice the degree of any reduction entry
    return [Fraction(2 * j + 1, 7) for j in range(-n - 2, n + 2)]


SMALL_NETWORKS = [
    Network(0, [], []),
    Network(1, [Fraction(5, 3)], []),
    Network(2, [Fraction(-1, 2), Fraction(2, 3)], [(1, 2, Fraction(3, 4))]),
    path_network(2, k=Fraction(3, 5)),
    Network(4, [Fraction(0)] * 4, []),  # zero H: empty rows, every trace 0
    Network(  # two components with on-site terms
        5,
        [Fraction(1, 2), Fraction(0), Fraction(-3), Fraction(0), Fraction(2, 7)],
        [(1, 2, Fraction(1, 3)), (4, 5, Fraction(2))],
    ),
]


def test_minor_engine_satisfies_jacobi_identity_against_cofactors(oracle_networks):
    for net in SMALL_NETWORKS + oracle_networks:
        n = net.n
        h = net.hamiltonian()
        scale, phi_mu, adj_mu = oracles.adjugate(net)
        assert (net._integer_form.d, _from_power_sums(_traces(net, n))) == (scale, phi_mu)
        phi = _lam_poly(phi_mu, scale)
        assert phi == char_poly(net)

        def entry(i, j):
            # every entry of adj(mu*I - dH) is d^(n-1) adj(lam*I - H) at lam = mu/d
            return _lam_poly(adj_mu[i][j], scale, n - 1)

        # n+1 points pin down every polynomial of degree <= n
        points = []
        for lam in range(n + 1):
            m = [[(lam if i == j else 0) - h[i][j] for j in range(n)] for i in range(n)]

            def cofactor_det(drop_row, drop_col, m=m):
                return det_fraction(
                    [[m[i][j] for j in range(n) if j not in drop_col]
                     for i in range(n) if i not in drop_row]
                )

            assert oracles.evaluate(phi, lam) == det_fraction(m)
            deleted = [cofactor_det({w}, {w}) for w in range(n)]
            points.append((lam, deleted, cofactor_det))
        for i, j in itertools.product(range(n), repeat=2):
            # [adj M]_ij = (-1)^(i+j) det(M without row j and column i)
            adj_ij = entry(i, j)
            for lam, _, cofactor_det in points:
                assert oracles.evaluate(adj_ij, lam) == (-1) ** (i + j) * cofactor_det({j}, {i})
        for u, v in itertools.combinations(range(1, n + 1), 2):
            phi_u, phi_v = entry(u - 1, u - 1), entry(v - 1, v - 1)
            a_uv = entry(u - 1, v - 1)
            jacobi = oracles.sub(phi_u * phi_v, a_uv * a_uv)
            d = from_sympy(to_sympy(jacobi).exquo(to_sympy(phi)))
            assert jacobi == phi * d
            at = oracles.evaluate
            for lam, deleted, cofactor_det in points:
                assert at(phi_u, lam) == deleted[u - 1]
                assert at(phi_v, lam) == deleted[v - 1]
                assert at(d, lam) == cofactor_det({u - 1, v - 1}, {u - 1, v - 1})
                # [adj M]_uv = (-1)^(u+v) det(M without row v and column u)
                assert at(a_uv, lam) == (-1) ** (u + v) * cofactor_det({v - 1}, {u - 1})
            pair = _pair_polys(net, u, v)
            assert (pair is not None) == (phi_u == phi_v)
            assert pair is None or pair.d == scale


def test_power_sums_of_no_monic_integer_polynomial_raise():
    # p1 = 1, p2 = 2: c1 = -1, c2 = -(c1 p1 + p2)/2 = -1/2
    with pytest.raises(ValueError, match="non-integer coefficient c_2"):
        spectral._from_power_sums([1, 2])
    # roots 0 and 1 have every power sum 1
    assert spectral._from_power_sums([1, 1]) == [0, -1, 1]
    assert spectral._power_sums([0, -1, 1], 4) == [1, 1, 1, 1]
    # P+ and P- of degree 5 each leave a nine-site P0 of degree -1
    pair = _pair_polys(build_ninesite(), 2, 6)
    pair.__dict__["parity_factors"] = ([0, 0, 0, 0, 0, 1], [-1, 0, 0, 0, 0, 1])
    with pytest.raises(ValueError, match="exceeds the number of sites"):
        pair.decomposition


def test_exact_engine_at_extreme_couplings():
    # strong and tiny couplings in one network; the mirror-symmetric 4-site
    # chain makes (1, 4) cospectral while (1, 2) is not
    big, tiny = Fraction(10**7), Fraction(1, 10**13)
    nets = [
        path_network(3, k=big),
        Network(2, [Fraction(0)] * 2, [(1, 2, tiny)]),
        Network(
            4,
            [Fraction(1, 3), Fraction(-2), Fraction(-2), Fraction(1, 3)],
            [(1, 2, big), (2, 3, tiny), (3, 4, big)],
        ),
    ]
    for net in nets:
        n = net.n
        h = net.hamiltonian()
        p = char_poly(net)
        for lam in [Fraction(j * 10**6 + 1, 3) for j in range(-n, n + 1)] + [tiny, -tiny]:
            m = [[(lam if i == j else 0) - h[i][j] for j in range(n)] for i in range(n)]
            assert oracles.evaluate(p, lam) == det_fraction(m)

        def deleted(w, lam):
            return det_fraction(
                [[(lam if i == j else 0) - h[i][j] for j in range(n) if j != w - 1]
                 for i in range(n) if i != w - 1]
            )

        for u, v in itertools.combinations(range(1, n + 1), 2):
            equal = all(
                deleted(u, Fraction(lam)) == deleted(v, Fraction(lam)) for lam in range(n + 1)
            )
            assert is_cospectral(net, u, v) == equal
    assert is_cospectral(nets[2], 1, 4)
    assert not is_cospectral(nets[2], 1, 2)


def schur_reduction(net, u, v, lam):
    """(R_uu, R_vv, R_uv) of R(lam) = H_SS - H_SC (H_CC - lam I)^-1 H_CS.

    Each entry uses x^T M^-1 y = -det([[M, y], [x^T, 0]]) / det M with
    M = H_CC - lam I, by Gaussian elimination over Q; None at a pole.
    """
    h = net.hamiltonian()
    rest = [i for i in range(net.n) if i not in (u - 1, v - 1)]
    m = [[h[i][j] - (lam if i == j else 0) for j in rest] for i in rest]
    den = det_fraction(m)
    if den == 0:
        return None

    def entry(s, t):
        bordered = [row + [h[i][t]] for row, i in zip(m, rest)]
        bordered.append([h[s][j] for j in rest] + [Fraction(0)])
        return h[s][t] + det_fraction(bordered) / den

    return entry(u - 1, u - 1), entry(v - 1, v - 1), entry(u - 1, v - 1)


def test_isospectral_reduction_matches_schur_complement(oracle_networks):
    cases = [
        (net, pair)
        for net in oracle_networks
        for pair in itertools.combinations(range(1, net.n + 1), 2)
    ]
    cases.append((build_ninesite(potential=Fraction(1, 3)), (2, 6)))
    cospectral_pairs = 0
    for net, (u, v) in cases:
        values = (
            (lam, r)
            for lam in sample_points(net.n)
            if (r := schur_reduction(net, u, v, lam)) is not None
        )
        try:
            red = isospectral_reduction(net, u, v)
        except SpectralError:
            assert any(r_uu != r_vv for _, (r_uu, r_vv, _) in values)
            continue
        cospectral_pairs += 1
        # agreement at more than 2n points makes the rational functions equal
        checked = 0
        for lam, (r_uu, r_vv, r_uv) in values:
            assert oracles.rf_evaluate(red.a, lam) == r_uu == r_vv
            assert oracles.rf_evaluate(red.b, lam) == r_uv
            checked += 1
        assert checked > 2 * net.n
    assert cospectral_pairs >= 7


def jacobi_reductions(net):
    """(a, b, reduction polynomial) per cospectral pair, by the Jacobi route on
    the oracle adjugate: D = (phi(G - v)^2 - A_uv^2)/phi(G) = phi(G - {u, v}),
    a = (lam*D - phi(G - v))/D, b = A_uv/D and phi(G)/D, in lowest terms."""
    d, phi_mu, adj = oracles.adjugate(net)
    phi_g = _lam_poly(phi_mu, d)
    out = {}
    for u, v in itertools.combinations(range(1, net.n + 1), 2):
        phi_u, phi_v, a_uv = (_lam_poly(adj[i][j], d, net.n - 1)
                              for i, j in ((u - 1, u - 1), (v - 1, v - 1), (u - 1, v - 1)))
        if phi_u != phi_v:
            continue
        dd, rem = oracles.divmod_q(
            oracles.sub(oracles.mul(phi_v, phi_v), oracles.mul(a_uv, a_uv)), phi_g
        )
        assert rem.is_zero
        out[u, v] = (
            oracles.reduced(oracles.sub(oracles.mul(oracles.LAM, dd), phi_v), dd),
            oracles.reduced(a_uv, dd),
            oracles.reduced(phi_g, dd)[0],
        )
    return out


def test_reduction_from_walk_moments_matches_the_jacobi_route():
    rng = random.Random(30)
    nets = [make(rng, n) for n in range(2, 12) for make in (random_network, mirrored_network)
            for _ in range(5)]
    big, tiny = Fraction(10**7), Fraction(1, 10**13)
    zero = Fraction(0)
    nets += [
        Network(2, [zero] * 2, []),
        Network(3, [Fraction(1, 2)] * 3, []),
        Network(2, [Fraction(-1, 2)] * 2, [(1, 2, Fraction(3, 4))]),
        Network(4, [zero] * 4, [(1, 2, Fraction(1)), (3, 4, Fraction(1))]),  # twin chains
        Network(4, [zero] * 4, [(1, w, Fraction(1)) for w in (2, 3, 4)]),  # star K_1,3
        Network(  # two components, each with a mirror pair
            5,
            [Fraction(1, 2), zero, Fraction(1, 2), Fraction(-3), Fraction(-3)],
            [(1, 2, Fraction(1, 3)), (2, 3, Fraction(1, 3)), (4, 5, Fraction(2, 7))],
        ),
        Network(
            4,
            [Fraction(1, 3), Fraction(-2), Fraction(-2), Fraction(1, 3)],
            [(1, 2, big), (2, 3, tiny), (3, 4, big)],
        ),
        path_network(20),
        build_ninesite(big),
        build_ninesite(tiny),
    ]
    nets += [build_ninesite(Fraction(27, 50), Fraction(i, 100)) for i in range(-50, 151, 20)]
    pairs = 0
    for net in nets:
        want = jacobi_reductions(net)
        for u, v in itertools.combinations(range(1, net.n + 1), 2):
            if (u, v) not in want:
                with pytest.raises(SpectralError):
                    isospectral_reduction(net, u, v)
                continue
            a, b, charpoly = want[u, v]
            red = isospectral_reduction(net, u, v)
            assert (red.a, red.b) == (a, b)
            assert reduction_charpoly(red) == charpoly
            pairs += 1
    assert pairs >= 90


def test_reduction_of_a_long_path_reads_no_characteristic_polynomial(monkeypatch):
    engine = spectral._traces

    def refuse(net, m):
        if m == net.n:  # phi(G) reads the traces to depth n
            raise AssertionError("the reduction computed phi(G)")
        return engine(net, m)

    monkeypatch.setattr(spectral, "_traces", refuse)
    net = path_network(150)
    red = isospectral_reduction(net, 1, 150)
    # ends of P_n: D = phi(P_(n-2)), phi(G - v) = phi(P_(n-1)), A_uv = 1, and
    # phi(P_k) = lam phi(P_(k-1)) - phi(P_(k-2)), so a = phi(P_(n-3))/phi(P_(n-2))
    # and b = 1/phi(P_(n-2)); consecutive phi(P_k) are coprime
    phis = [oracles.ONE, oracles.LAM]
    while len(phis) < 151:
        phis.append(oracles.sub(oracles.mul(oracles.LAM, phis[-1]), phis[-2]))
    assert red.a == (phis[147], phis[148])
    assert red.b == (oracles.ONE, phis[148])
    # (lam - a)^2 - b^2 = phi(P_150)/phi(P_148) in lowest terms (Cassini's
    # identity), from one gcd of P+ P- and N+ N-, each of at most n + 1 terms
    calls, int_gcd = [], spectral._int_gcd

    def recording_gcd(a, b):
        calls.append((len(a), len(b)))
        return int_gcd(a, b)

    monkeypatch.setattr(spectral, "_int_gcd", recording_gcd)
    assert reduction_charpoly(red) == phis[150]
    assert len(calls) == 1 and max(calls[0]) <= net.n + 1
    with pytest.raises(
        SpectralError,
        match=r"^reduction is not bisymmetric for this pair \(the pair is not cospectral\)$",
    ):
        isospectral_reduction(net, 1, 149)


def unit_weight_graphs(max_n):
    """One graph with unit couplings per isomorphism class, on 2..max_n sites."""
    for n in range(2, max_n + 1):
        slots = list(itertools.combinations(range(n), 2))
        seen = set()
        for mask in range(1 << len(slots)):
            edges = [e for b, e in enumerate(slots) if mask >> b & 1]
            if mask in seen:
                continue
            for perm in itertools.permutations(range(n)):
                seen.add(sum(1 << slots.index(tuple(sorted((perm[i], perm[j]))))
                             for i, j in edges))
            yield Network(n, [Fraction(0)] * n, [(i + 1, j + 1, Fraction(1)) for i, j in edges])


def test_parity_factors_and_strong_cospectrality_match_the_reduction(oracle_networks):
    # oracle: the reduction polynomial phi(G)/gcd(phi(G), D) and the parity
    # numerators (phi(G - v) -/+ A_uv)/gcd(., D), with D by the Jacobi identity;
    # the walk-count verdicts against the adjugate entries they stand for
    big, tiny = Fraction(10**7), Fraction(1, 10**13)
    nets = list(unit_weight_graphs(5)) + oracle_networks
    nets += [build_ninesite(potential=Fraction(e, 4)) for e in range(-8, 9, 3)]
    nets += [build_ninesite(big, tiny), build_ninesite(tiny, big)]
    nets.append(
        Network(
            4,
            [Fraction(1, 3), Fraction(-2), Fraction(-2), Fraction(1, 3)],
            [(1, 2, big), (2, 3, tiny), (3, 4, big)],
        )
    )
    counts = {True: 0, False: 0}
    for net in nets:
        scale, phi_mu, adj_mu = oracles.adjugate(net)
        phi_g = _lam_poly(phi_mu, scale)

        def entry(i, j, net=net, adj_mu=adj_mu):
            return _lam_poly(adj_mu[i][j], scale, net.n - 1)

        for u, v in itertools.combinations(range(1, net.n + 1), 2):
            pair = _pair_polys(net, u, v)
            cospectral = entry(u - 1, u - 1) == entry(v - 1, v - 1)
            assert is_cospectral(net, u, v) == cospectral == (pair is not None)
            if pair is None:
                assert not is_strongly_cospectral(net, u, v)
                with pytest.raises(SpectralError):
                    singlet_sites(net, u, v)
                continue
            assert singlet_sites(net, u, v) == {
                w for w in range(1, net.n + 1)
                if w not in (u, v) and entry(u - 1, w - 1) == entry(v - 1, w - 1)
            }
            phi, a_uv = entry(v - 1, v - 1), entry(u - 1, v - 1)
            d = from_sympy(to_sympy(oracles.sub(phi * phi, a_uv * a_uv)).exquo(to_sympy(phi_g)))

            def lowest(num):
                # sympy, not latsym's gcd engine, reduces num/D
                num = to_sympy(num)
                return num.exquo(num.gcd(to_sympy(d))).monic()

            strong = all(k == 1 for _, k in lowest(phi_g).sqf_list()[1])
            assert is_strongly_cospectral(net, u, v) == strong
            assert tuple(_lam_poly(p, pair.d) for p in pair.parity_factors) == (
                from_sympy(lowest(oracles.sub(phi, a_uv))),
                from_sympy(lowest(oracles.add(phi, a_uv))),
            )
            assert singlet_sites(net, u, v) == power_singlets(net, u, v, 2 * net.n)
            counts[strong] += 1
    assert counts[True] >= 60 and counts[False] >= 100
