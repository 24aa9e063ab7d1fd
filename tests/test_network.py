import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest

import latsym.spectral
from latsym.network import (
    Network,
    NetworkError,
    attach,
    delete_vertex,
    has_swap_automorphism,
    parse_network,
    parse_rational,
    serialize_network,
)
from latsym.ninesite import build_ninesite
from latsym.pgst import pgst_certificate
from latsym.spectral import is_cospectral


def path_network(n, k=Fraction(1), onsite=None):
    return Network(
        n,
        onsite if onsite is not None else [Fraction(0)] * n,
        [(i, i + 1, k) for i in range(1, n)],
    )


def test_parse_rational():
    assert parse_rational("27/50") == Fraction(27, 50)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational(" 1 / 2 ") == Fraction(1, 2)
    assert parse_rational("+4/6") == Fraction(2, 3)


@pytest.mark.parametrize("bad", ["", "1.5", "1/2/3", "a", "1/-2", "--3", "1/0"])
def test_parse_rational_rejects(bad):
    with pytest.raises(NetworkError):
        parse_rational(bad)


def test_network_canonicalizes_edges():
    net = Network(3, [0, 0, 0], [(2, 1, Fraction(1, 2)), (3, 2, Fraction(1))])
    assert net.edges == ((1, 2, Fraction(1, 2)), (2, 3, Fraction(1)))
    assert (1, 2, Fraction(1, 2)) in net.edges  # given as (2, 1)
    assert all((i, j) != (1, 3) for i, j, _ in net.edges)


def test_network_drops_zero_weight_edges():
    net = Network(2, [0, 0], [(1, 2, Fraction(0))])
    assert net.edges == ()


@pytest.mark.parametrize(
    "edges",
    [
        [(1, 1, Fraction(1))],  # self-loop
        [(1, 2, Fraction(1)), (2, 1, Fraction(1))],  # duplicate after flip
        [(0, 2, Fraction(1))],  # out of range
        [(1, 4, Fraction(1))],
    ],
)
def test_network_rejects_bad_edges(edges):
    with pytest.raises(NetworkError):
        Network(3, [0, 0, 0], edges)


def test_network_onsite_length_checked():
    with pytest.raises(NetworkError):
        Network(3, [0, 0], [])


def test_hamiltonian_is_symmetric():
    net = build_ninesite()
    h = net.hamiltonian()
    for i in range(net.n):
        for j in range(net.n):
            assert h[i][j] == h[j][i]
    assert h[2][7] == Fraction(27, 50)  # the chord
    assert h[0][0] == 0


def test_serialize_parse_round_trip():
    net = build_ninesite(Fraction(3, 7), potential=Fraction(-2, 5))
    again = parse_network(serialize_network(net))
    assert again == net


def test_parse_network_examples():
    text = json.dumps(
        {"n": 2, "onsite": ["0", "1/3"], "edges": [[2, 1, "-5/2"]]}
    )
    net = parse_network(text)
    assert net.n == 2
    assert net.onsite == (Fraction(0), Fraction(1, 3))
    assert net.edges == ((1, 2, Fraction(-5, 2)),)


@pytest.mark.parametrize(
    "doc",
    [
        '{"n": 2, "onsite": ["0", "0"]}',  # missing edges
        '{"n": 2, "onsite": ["0", "0"], "edges": [], "extra": 1}',
        '{"n": 0, "onsite": [], "edges": []}',
        '{"n": true, "onsite": ["0"], "edges": []}',
        '{"n": 2, "onsite": ["0", "0"], "edges": [[1, 2, "0"]]}',  # zero weight
        '{"n": 2, "onsite": ["0", "0"], "edges": [[1, 2]]}',
        '{"n": 2, "onsite": ["0", "0"], "edges": [["1", 2, "1"]]}',
        '{"n": 2, "onsite": ["0", "0"], "edges": [[true, 2, "1"]]}',  # a boolean is no site
        '{"n": 2, "onsite": [0, 0], "edges": []}',  # onsite must be strings
        "not json",
        "[1, 2]",
    ],
)
def test_parse_network_rejects(doc):
    with pytest.raises(NetworkError):
        parse_network(doc)


def test_serialization_is_deterministic():
    net = build_ninesite()
    assert serialize_network(net) == serialize_network(build_ninesite())


def test_delete_vertex_relabels():
    net = path_network(4)
    cut = delete_vertex(net, 2)
    assert cut.n == 3
    # old 3-4 edge becomes 2-3; old 1-2 and 2-3 disappear
    assert cut.edges == ((2, 3, Fraction(1)),)


def test_delete_vertex_keeps_onsite():
    net = path_network(3, onsite=[Fraction(5), Fraction(6), Fraction(7)])
    assert delete_vertex(net, 2).onsite == (Fraction(5), Fraction(7))


def test_delete_vertex_bounds():
    net = path_network(3)
    with pytest.raises(NetworkError):
        delete_vertex(net, 0)
    with pytest.raises(NetworkError):
        delete_vertex(Network(1, [0], []), 1)


def test_attach_offsets_extension_ids():
    base = path_network(3)
    ext = path_network(2, k=Fraction(5))
    out = attach(base, [2], ext, [(2, 1, Fraction(7))])
    assert out.n == 5
    assert (4, 5, Fraction(5)) in out.edges  # ext edge shifted by 3
    assert (2, 4, Fraction(7)) in out.edges  # the bridge
    assert (1, 2, Fraction(1)) in out.edges


def test_attach_empty_extension_is_identity():
    base = build_ninesite()
    assert attach(base, [4], Network(0, [], []), []) == base


def test_attach_validates_bridges():
    base = path_network(3)
    ext = path_network(1)
    with pytest.raises(NetworkError):
        attach(base, [2], ext, [(1, 1, Fraction(1))])  # 1 not a declared anchor
    with pytest.raises(NetworkError):
        attach(base, [2], ext, [(2, 5, Fraction(1))])  # out of ext range
    with pytest.raises(NetworkError):
        attach(base, [2], ext, [(2, 1, Fraction(0))])  # zero weight


def test_swap_automorphism_path_ends():
    net = path_network(5)
    assert has_swap_automorphism(net, 1, 5)
    assert has_swap_automorphism(net, 2, 4)
    assert not has_swap_automorphism(net, 1, 2)


def test_swap_search_is_not_entered_for_a_pair_that_is_not_cospectral(monkeypatch):
    # sites 2 and 3 of P5 have the same on-site term and couplings (1, 1), but
    # phi(P1) phi(P3) != phi(P2)^2, so the closed-walk counts decide the pair
    net = path_network(5)
    assert not is_cospectral(net, 2, 3)

    def refuse(rows, i, n):
        raise AssertionError("swap search entered for a pair that is not cospectral")

    monkeypatch.setattr(latsym.spectral, "_row_walk", refuse)
    assert not has_swap_automorphism(net, 2, 3)
    with pytest.raises(AssertionError, match="swap search entered"):
        has_swap_automorphism(net, 1, 5)  # a cospectral pair does enter it
    with pytest.raises(NetworkError):
        has_swap_automorphism(net, 2, 2)


def test_swap_verdict_is_kept_for_both_orders_of_a_pair(monkeypatch, oracle_networks):
    # the nine-site pair is latent; swapping sites 1 and 2 maps a mirrored network to itself
    cases = [(build_ninesite(), 2, 6, False), (oracle_networks[-1], 1, 2, True)]
    for net, u, v, want in cases:
        assert has_swap_automorphism(net, u, v) == want

    def refuse(rows, i, n):
        raise AssertionError("swap search entered twice for one pair")

    monkeypatch.setattr(latsym.spectral, "_row_walk", refuse)
    for net, u, v, want in cases:
        assert has_swap_automorphism(net, u, v) == has_swap_automorphism(net, v, u) == want
        assert latsym.spectral.is_latent_symmetric(net, v, u) == (not want)
    for net, u, v, _ in cases:  # an equal copy keeps no verdict
        with pytest.raises(AssertionError, match="entered twice"):
            has_swap_automorphism(Network(net.n, net.onsite, net.edges), v, u)


def test_latent_check_and_certificate_search_once(monkeypatch):
    calls = []
    search = latsym.network._swap_search

    def counted(net, u, v):
        calls.append((u, v))
        return search(net, u, v)

    monkeypatch.setattr(latsym.network, "_swap_search", counted)
    net = build_ninesite()
    assert latsym.spectral.is_latent_symmetric(net, 2, 6)
    cert = pgst_certificate(net, 6, 2)
    assert cert.cospectral and not cert.swap_automorphism
    assert calls == [(1, 5)]


def test_swap_automorphism_respects_weights():
    # same shape as the symmetric path, weights break the mirror
    net = Network(3, [0, 0, 0], [(1, 2, Fraction(1)), (2, 3, Fraction(2))])
    assert not has_swap_automorphism(net, 1, 3)


def test_swap_automorphism_respects_onsite():
    net = path_network(3, onsite=[Fraction(1), Fraction(0), Fraction(2)])
    assert not has_swap_automorphism(net, 1, 3)


def test_ninesite_pair_has_no_swap():
    assert not has_swap_automorphism(build_ninesite(), 2, 6)
    assert not has_swap_automorphism(build_ninesite(potential=Fraction(1, 3)), 2, 6)


def test_square_has_swaps():
    square = Network(
        4,
        [0] * 4,
        [(1, 2, Fraction(1)), (2, 3, Fraction(1)), (3, 4, Fraction(1)), (1, 4, Fraction(1))],
    )
    assert has_swap_automorphism(square, 1, 3)
    assert has_swap_automorphism(square, 2, 4)


def mirror_doubled_cubic(seed, m):
    """Two copies of a seeded pairing-model cubic graph on m sites, joined by
    the edge (1, 1 + m); exchanging the copies swaps 1 and 1 + m."""
    rng = random.Random(seed)
    while True:
        points = [x for x in range(1, m + 1) for _ in range(3)]
        rng.shuffle(points)
        pairs = {tuple(sorted(p)) for p in zip(points[::2], points[1::2])}
        if len(pairs) == 3 * m // 2 and all(i != j for i, j in pairs):
            break
    edges = [(i + s, j + s, 1) for i, j in pairs for s in (0, m)]
    return Network(2 * m, [0] * (2 * m), edges + [(1, 1 + m, 1)])


@pytest.mark.parametrize("m", [20, 30])
def test_swap_search_on_mirror_doubled_cubic_graphs(m):
    # every site has the same on-site term and three unit couplings, so only
    # the walk colours from 1 and 1 + m prune the search
    assert has_swap_automorphism(mirror_doubled_cubic(1, m), 1, 1 + m)


def test_swap_search_on_a_path_longer_than_the_recursion_limit():
    # one call frame per placed site would raise RecursionError here at
    # Python's default limit of 1000 frames
    assert has_swap_automorphism(path_network(1100), 1, 1100)


def test_swap_search_checks_couplings_beyond_walk_colours():
    # the 4x4 rook's graph (sites 1..16) and the Shrikhande graph (17..32) are
    # both strongly regular (16, 6, 2, 2): every site is cospectral with every
    # other and walk colours match the two graphs site for site, but they are
    # not isomorphic, so no swap crosses between them
    cells = list(itertools.product(range(4), repeat=2))
    shrikhande = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = []
    for (a, p), (b, q) in itertools.combinations(enumerate(cells, start=1), 2):
        if p[0] == q[0] or p[1] == q[1]:
            edges.append((a, b, 1))
        if ((q[0] - p[0]) % 4, (q[1] - p[1]) % 4) in shrikhande:
            edges.append((a + 16, b + 16, 1))
    net = Network(32, [0] * 32, edges)
    assert is_cospectral(net, 1, 17)
    assert not has_swap_automorphism(net, 1, 17)
    assert has_swap_automorphism(net, 1, 2)
    assert has_swap_automorphism(net, 17, 32)


def permute_network(net, perm):
    # perm maps old id -> new id
    onsite = [Fraction(0)] * net.n
    for old, e in enumerate(net.onsite, start=1):
        onsite[perm[old] - 1] = e
    edges = [(perm[i], perm[j], w) for i, j, w in net.edges]
    return Network(net.n, onsite, edges)


def test_swap_automorphism_is_relabeling_invariant():
    rng = random.Random(99)
    net = build_ninesite()
    for _ in range(5):
        ids = list(range(1, net.n + 1))
        rng.shuffle(ids)
        perm = {old: new for old, new in zip(range(1, net.n + 1), ids)}
        shuffled = permute_network(net, perm)
        assert has_swap_automorphism(shuffled, perm[2], perm[6]) == has_swap_automorphism(
            net, 2, 6
        )
        assert has_swap_automorphism(shuffled, perm[1], perm[9]) == has_swap_automorphism(
            net, 1, 9
        )


def symmetric_weighted_network(rng, n):
    """Random network, weights and on-site terms from small sets so that
    automorphisms are common; half the time a random involution is planted."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    swaps = rng.randint(0, n // 2)
    sigma = {x: x for x in ids}
    for a, b in zip(ids[: 2 * swaps : 2], ids[1 : 2 * swaps : 2]):
        sigma[a], sigma[b] = b, a
    onsite, weights = {}, {}
    for x in ids:
        onsite[x] = onsite.get(sigma[x], rng.choice([Fraction(0), Fraction(0), Fraction(-1, 2)]))
    for i, j in itertools.combinations(range(1, n + 1), 2):
        image = tuple(sorted((sigma[i], sigma[j])))
        weights[(i, j)] = weights.get(image, rng.choice([0, 0, 1, 1, 2, Fraction(-1, 3)]))
    return Network(n, [onsite[x] for x in range(1, n + 1)], [(i, j, w) for (i, j), w in weights.items()])


def brute_force_swaps(net):
    """Pairs {u, v} exchanged by some permutation preserving on-site terms and
    couplings, over all n! permutations."""
    h = net.hamiltonian()
    found = set()
    for perm in itertools.permutations(range(net.n)):
        if all(h[perm[i]][perm[j]] == h[i][j] for i in range(net.n) for j in range(i, net.n)):
            found.update((u + 1, perm[u] + 1) for u in range(net.n) if perm[perm[u]] == u != perm[u])
    return found


def test_swap_automorphism_matches_brute_force_over_all_permutations():
    rng = random.Random(7)
    swaps = 0
    for n in range(2, 8):
        for _ in range(4 if n == 7 else 8):
            net = symmetric_weighted_network(rng, n)
            want = brute_force_swaps(net)
            swaps += len(want)
            for u, v in itertools.permutations(range(1, n + 1), 2):
                assert has_swap_automorphism(net, u, v) == ((u, v) in want), (net, u, v)
    assert swaps >= 40


def test_network_is_frozen():
    net = path_network(3)
    for name, value in (("n", 4), ("onsite", ()), ("edges", ()), ("extra", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(net, name, value)
    assert net == path_network(3)


def test_equality_hash_and_repr_ignore_cached_data():
    warm, fresh = build_ninesite(), build_ninesite()
    text = repr(warm)
    assert is_cospectral(warm, 2, 6)  # computes and caches the integer form and walks
    assert "_integer_form" in vars(warm) and "_integer_form" not in vars(fresh)
    assert warm == fresh and hash(warm) == hash(fresh)
    assert repr(warm) == repr(fresh) == text
    assert warm != build_ninesite(potential=Fraction(1, 3))


def test_check_pair():
    net = path_network(3)
    with pytest.raises(NetworkError):
        net.check_pair(1, 1)
    with pytest.raises(NetworkError):
        net.check_pair(0, 2)


def test_network_keeps_exact_fractions_and_converts_the_rest():
    half = Fraction(1, 2)

    class Half(Fraction):
        pass

    net = Network(3, [half, 1, Half(1, 2)], [(1, 2, half), (2, 3, Half(1, 2))])
    assert net.onsite[0] is half and net.edges[0][2] is half
    assert all(type(x) is Fraction for x in (*net.onsite, *(w for *_, w in net.edges)))
    other = Network(3, ["1/2", Fraction(1), 0.5], [(2, 1, 0.5), (3, 2, "1/2")])
    assert net == other and hash(net) == hash(other) and repr(net) == repr(other)
