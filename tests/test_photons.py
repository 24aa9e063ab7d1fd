import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from latsym.network import Network
from latsym.ninesite import build_ninesite
from latsym.photons import (
    BOSONIC,
    DISTINGUISHABLE,
    _scattering_submatrix,
    assignment_list,
    beam_splitter_unitary,
    correlation_matrix,
    permanent,
    total_unitary,
    transition_probability,
)
from latsym.walk import eigh, evolution_operator


def two_photon_outputs(n):
    """All output occupations with exactly two photons over n modes."""
    for i, j in itertools.combinations_with_replacement(range(1, n + 1), 2):
        s = [0] * n
        s[i - 1] += 1
        s[j - 1] += 1
        yield i, j, tuple(s)


def naive_permanent(m):
    n = m.shape[0]
    return sum(
        np.prod([m[i, perm[i]] for i in range(n)])
        for perm in itertools.permutations(range(n))
    )


def random_unitary(rng, n):
    z = np.array([[rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_assignment_list():
    assert assignment_list((2, 0, 1)) == (1, 1, 3)
    assert assignment_list((0, 0)) == ()
    assert assignment_list((1, 1)) == (1, 2)
    with pytest.raises(ValueError):
        assignment_list((-1, 2))
    with pytest.raises(ValueError):
        assignment_list((1.5,))


def test_permanent_small_cases():
    assert permanent(np.array([[3.5]])) == pytest.approx(3.5)
    a, b, c, d = 2.0, -1.0, 0.5, 3.0
    assert permanent(np.array([[a, b], [c, d]])) == pytest.approx(a * d + b * c)
    assert permanent(np.ones((3, 3))) == pytest.approx(6.0)
    assert permanent(np.eye(4)) == pytest.approx(1.0)
    assert permanent(np.zeros((0, 0))) == pytest.approx(1.0)


def test_permanent_matches_permutation_expansion():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 6)
        m = np.array(
            [[rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in range(n)] for _ in range(n)]
        )
        ref = naive_permanent(m)
        assert abs(permanent(m) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_permanent_input_validation():
    with pytest.raises(ValueError):
        permanent(np.ones((2, 3)))
    with pytest.raises(ValueError):
        permanent(np.ones((21, 21)))


def test_beam_splitter_is_unitary_and_balanced():
    bs = beam_splitter_unitary()
    assert np.abs(bs @ bs.conj().T - np.eye(2)).max() < 1e-15
    assert np.allclose(np.abs(bs) ** 2, 0.5)


def test_hong_ou_mandel_dip():
    bs = beam_splitter_unitary()
    assert transition_probability((1, 1), (2, 0), bs) == pytest.approx(0.5, abs=1e-12)
    assert transition_probability((1, 1), (0, 2), bs) == pytest.approx(0.5, abs=1e-12)
    assert transition_probability((1, 1), (1, 1), bs) == pytest.approx(0.0, abs=1e-12)


def test_distinguishable_photons_show_no_dip():
    bs = beam_splitter_unitary()
    kw = dict(statistics=DISTINGUISHABLE)
    assert transition_probability((1, 1), (1, 1), bs, **kw) == pytest.approx(0.5)
    assert transition_probability((1, 1), (2, 0), bs, **kw) == pytest.approx(0.25)
    assert transition_probability((1, 1), (0, 2), bs, **kw) == pytest.approx(0.25)


def test_transition_probability_single_photon_is_matrix_element():
    rng = random.Random(12)
    u = random_unitary(rng, 3)
    # one photon in mode 2, out in mode 3: |U[3,2]|^2 in either statistics
    expect = abs(u[2, 1]) ** 2
    assert transition_probability((0, 1, 0), (0, 0, 1), u) == pytest.approx(expect)
    assert transition_probability(
        (0, 1, 0), (0, 0, 1), u, statistics=DISTINGUISHABLE
    ) == pytest.approx(expect)


def test_transition_probability_validation():
    u = np.eye(2)
    with pytest.raises(ValueError):
        transition_probability((1, 0), (1, 1), u)  # photon numbers differ
    with pytest.raises(ValueError):
        transition_probability((0, 0), (0, 0), u)  # no photons
    with pytest.raises(ValueError):
        transition_probability((1, 0, 0), (0, 1), u)  # wrong length
    with pytest.raises(ValueError):
        transition_probability((1, 1), (2, 0), u, statistics="fermion")


def all_outputs(n, total):
    for combo in itertools.combinations_with_replacement(range(n), total):
        s = [0] * n
        for c in combo:
            s[c] += 1
        yield tuple(s)


@pytest.mark.parametrize("stats", [BOSONIC, DISTINGUISHABLE])
def test_completeness_two_photons(stats):
    rng = random.Random(77)
    u = random_unitary(rng, 4)
    total = sum(
        transition_probability((1, 0, 1, 0), s, u, statistics=stats)
        for s in all_outputs(4, 2)
    )
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("stats", [BOSONIC, DISTINGUISHABLE])
def test_completeness_three_photons(stats):
    rng = random.Random(78)
    u = random_unitary(rng, 3)
    total = sum(
        transition_probability((1, 1, 1), s, u, statistics=stats)
        for s in all_outputs(3, 3)
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_probabilities_invariant_under_mode_phases():
    rng = random.Random(21)
    u = random_unitary(rng, 3)
    din = np.diag(np.exp(1j * np.array([0.3, -1.2, 2.5])))
    dout = np.diag(np.exp(1j * np.array([0.9, 0.1, -0.4])))
    for s in all_outputs(3, 2):
        p = transition_probability((1, 1, 0), s, u)
        assert transition_probability((1, 1, 0), s, dout @ u @ din) == pytest.approx(p)


def test_total_unitary_embeds_blocks():
    net_u = np.eye(4, dtype=complex)
    u = total_unitary(net_u, (2, 4), phase_site=4, phase=np.pi / 2)
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12
    # untouched modes stay untouched
    assert u[0, 0] == pytest.approx(1.0)
    assert u[2, 2] == pytest.approx(1.0)
    assert abs(u[1, 1]) == pytest.approx(1 / np.sqrt(2))


def test_total_unitary_validation():
    with pytest.raises(ValueError):
        total_unitary(np.eye(3) * 2.0, (1, 2), 2)  # not unitary
    with pytest.raises(ValueError):
        total_unitary(np.eye(3), (1, 1), 1)
    with pytest.raises(ValueError):
        total_unitary(np.eye(3), (1, 5), 1)
    for phase in (np.nan, np.inf):
        with pytest.raises(ValueError, match="phase must be finite"):
            total_unitary(np.eye(3), (1, 2), 2, phase=phase)
    # NaN compares False with the tolerance, and once passed as unitary
    with pytest.raises(ValueError, match="not unitary"):
        total_unitary(np.full((2, 2), np.nan), (1, 2), 2)
    with pytest.raises(ValueError, match="not unitary"):
        correlation_matrix(np.full((2, 2), np.nan), (1, 2))


def test_two_photon_outputs_counts():
    outs = list(two_photon_outputs(4))
    assert len(outs) == 10  # 4 doubles + 6 coincidences
    assert outs[0] == (1, 1, (2, 0, 0, 0))
    assert all(sum(s) == 2 for _, _, s in outs)


def test_correlation_identity_network_shows_no_coincidences():
    # the preparation chain sends the pair into the two parity supermodes (or,
    # at zero phase, into a double on each site); an identity network keeps
    # the photons bunched either way
    for phase in (0.0, np.pi / 2):
        corr = correlation_matrix(np.eye(2, dtype=complex), (1, 2), phase=phase)
        assert corr.values[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert corr.values[1, 1] == pytest.approx(1.0, abs=1e-12)
        assert corr.values[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_quarter_phase_freezes_parity_supermodes():
    # on a two-site chain the parity supermodes are eigenmodes: the pi/2-phase
    # preparation is stationary, while the zero-phase doubles interfere back
    # into a full coincidence after a quarter period
    chain2 = eigh(Network(2, [Fraction(0)] * 2, [(1, 2, Fraction(1))]))
    u = evolution_operator(chain2, np.pi / 4)
    frozen = correlation_matrix(u, (1, 2), phase=np.pi / 2).values
    assert frozen[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert frozen[0, 1] == pytest.approx(0.0, abs=1e-12)
    revived = correlation_matrix(u, (1, 2), phase=0.0).values
    assert revived[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert revived[0, 0] == pytest.approx(0.0, abs=1e-12)


def correlation_by_permanents(net_u, bs_sites, phase, statistics, comparison_mode):
    """Every two-photon output scored by its own permanent."""
    u_tot = total_unitary(net_u, bs_sites, phase_site=bs_sites[1], phase=phase)
    n = u_tot.shape[0]
    r = [0] * n
    for site in bs_sites:
        r[site - 1] += 1
    values = np.zeros((n, n))
    for i, j, s in two_photon_outputs(n):
        m = _scattering_submatrix(r, s, u_tot)
        if statistics == BOSONIC:
            val = abs(permanent(m)) ** 2
        else:
            val = permanent(np.abs(m) ** 2).real
        if i != j and comparison_mode == "halved":
            val /= 2
        values[i - 1, j - 1] = values[j - 1, i - 1] = val
    return values


@pytest.mark.parametrize("statistics", [BOSONIC, DISTINGUISHABLE])
@pytest.mark.parametrize("comparison_mode", ["raw", "halved"])
def test_correlation_matrix_matches_per_output_permanents(statistics, comparison_mode):
    rng = random.Random(31)
    for n in range(2, 10):
        for _ in range(3):
            u = random_unitary(rng, n)
            u_site, v_site = rng.sample(range(1, n + 1), 2)
            phase = rng.uniform(0, 2 * np.pi)
            got = correlation_matrix(
                u, (u_site, v_site), phase=phase, statistics=statistics,
                comparison_mode=comparison_mode,
            ).values
            ref = correlation_by_permanents(u, (u_site, v_site), phase, statistics, comparison_mode)
            assert np.abs(got - ref).max() <= 1e-14


def test_correlation_matrix_is_symmetric_nonnegative():
    sys = eigh(build_ninesite())
    corr = correlation_matrix(evolution_operator(sys, 5.0), (2, 6))
    assert corr.values.shape == (9, 9)
    assert np.abs(corr.values - corr.values.T).max() == 0.0
    assert corr.values.min() >= 0.0


def test_bosonic_diagonal_is_twice_distinguishable_diagonal():
    sys = eigh(build_ninesite())
    u = evolution_operator(sys, 3.7)
    bos = correlation_matrix(u, (2, 6)).values
    dis = correlation_matrix(u, (2, 6), statistics=DISTINGUISHABLE).values
    assert np.abs(np.diag(bos) - 2 * np.diag(dis)).max() < 1e-12


def test_halved_mode_only_rescales_off_diagonals():
    sys = eigh(build_ninesite())
    u = evolution_operator(sys, 8.0)
    raw = correlation_matrix(u, (2, 6), comparison_mode="raw").values
    halved = correlation_matrix(u, (2, 6), comparison_mode="halved").values
    assert np.allclose(np.diag(halved), np.diag(raw))
    off = ~np.eye(9, dtype=bool)
    assert np.allclose(halved[off], raw[off] / 2)
    with pytest.raises(ValueError):
        correlation_matrix(u, (2, 6), comparison_mode="thirds")


def test_singlet_block_of_bosonic_correlations_vanishes():
    sys = eigh(build_ninesite())
    singlets = [3, 7, 8]  # zero-based rows of sites 4, 8, 9
    for tau in (2.0, 8.017018705952, 11.0):
        corr = correlation_matrix(evolution_operator(sys, tau), (2, 6))
        block = corr.values[np.ix_(singlets, singlets)]
        assert np.abs(block).max() < 1e-9


def test_correlation_total_probability_with_factorials():
    # raw scores divided by the bunching factorial must sum to one
    sys = eigh(build_ninesite())
    corr = correlation_matrix(evolution_operator(sys, 4.4), (2, 6))
    total = 0.0
    for i, j, _ in two_photon_outputs(9):
        total += corr.values[i - 1, j - 1] / (2.0 if i == j else 1.0)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_correlation_to_dict():
    corr = correlation_matrix(np.eye(2, dtype=complex), (1, 2), tau=1.5)
    d = corr.to_dict()
    assert d["statistics"] == BOSONIC
    assert d["comparison_mode"] == "raw"
    assert d["tau"] == 1.5
    assert len(d["values"]) == 2
