import functools
import itertools
import math
import random
from fractions import Fraction
from sys import float_info

import numpy as np
import pytest
import sympy

import oracles
from conftest import grow
from latsym import walk
from latsym.network import Network
from latsym.ninesite import SINGLET_SITES, build_ninesite
from latsym.spectral import char_poly, is_strongly_cospectral, singlet_sites
from latsym.walk import (
    _BATCH_BLOCKS,
    _PHASE_BLOCK,
    _PHASE_STRIDE,
    _refine_peak,
    ConvergenceError,
    antisymmetric_confinement,
    eigh,
    envelope_scan,
    evolution_operator,
    evolve,
    fidelity,
    fidelity_curve,
)


def path_network(n, k=Fraction(1)):
    return Network(n, [Fraction(0)] * n, [(i, i + 1, k) for i in range(1, n)])


def rand_network(rng, n_max=4):
    n = rng.randint(1, n_max)
    onsite = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.6:
                w = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                if w:
                    edges.append((i, j, w))
    return Network(n, onsite, edges)


def test_eigh_diagonal_network():
    net = Network(3, [Fraction(3), Fraction(1), Fraction(2)], [])
    sys = eigh(net)
    assert np.allclose(sys.eigenvalues, [1.0, 2.0, 3.0])
    h = np.array([[3.0, 0, 0], [0, 1.0, 0], [0, 0, 2.0]])
    assert np.abs(sys.eigenvectors @ np.diag(sys.eigenvalues) @ sys.eigenvectors.T - h).max() < 1e-12


def test_eigh_two_site():
    sys = eigh(path_network(2))
    assert np.allclose(sys.eigenvalues, [-1.0, 1.0])
    assert np.allclose(np.abs(sys.eigenvectors), 1 / np.sqrt(2))


def test_eigh_single_site():
    sys = eigh(Network(1, [Fraction(-7, 2)], []))
    assert sys.eigenvalues[0] == -3.5


def test_eigh_matches_library_solver():
    rng = random.Random(6)
    for _ in range(12):
        net = rand_network(rng)
        sys = eigh(net)
        h = np.array([[float(x) for x in row] for row in net.hamiltonian()])
        ref = np.linalg.eigvalsh(h)
        assert np.abs(sys.eigenvalues - ref).max() < 1e-10
        assert np.abs(sys.eigenvectors.T @ sys.eigenvectors - np.eye(net.n)).max() < 1e-10


def test_eigh_ninesite_spectrum():
    sys = eigh(build_ninesite())
    lam = sys.eigenvalues
    # spectrum is symmetric about zero with a zero mode in the middle
    assert abs(lam[4]) < 1e-10
    assert np.abs(lam + lam[::-1]).max() < 1e-10
    assert abs(lam[0] + 1.1996549787344948) < 1e-9
    assert abs(lam[3] + 0.3920735034875265) < 1e-9


def exact_eigenvalues(net):
    """Real roots of char_poly, isolated exactly by sympy and then rounded."""
    lam = sympy.Symbol("lam")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(char_poly(net).coeffs)]
    return np.array([float(r.evalf(30)) for r in sympy.Poly(coeffs, lam).real_roots()])


def test_eigh_matches_exact_roots_of_char_poly(oracle_networks):
    for net in [build_ninesite(), *oracle_networks]:
        h = np.array([[float(x) for x in row] for row in net.hamiltonian()])
        exact = exact_eigenvalues(net)
        assert len(exact) == net.n
        assert np.abs(eigh(net).eigenvalues - exact).max() <= 1e-12 * np.abs(h).max()


def test_float_hamiltonian_matches_the_fraction_matrix(oracle_networks):
    # the float matrix is built from the edges; the n x n Fraction matrix it
    # replaced is the reference, entry for entry, and so is eigh's output
    nets = [Network(0, [], []), Network(1, [Fraction(-7, 2)], []), build_ninesite(),
            *oracle_networks]
    for net in nets:
        ref = np.array([[float(x) for x in row] for row in net.hamiltonian()]).reshape(net.n, net.n)
        h = walk._hamiltonian_matrix(net)
        assert h.dtype == ref.dtype and h.shape == ref.shape
        assert np.array_equal(h, ref)
        if net.n:
            evals, q = np.linalg.eigh(ref)
            sys = eigh(net)
            assert np.array_equal(sys.eigenvalues, evals)
            assert np.array_equal(sys.eigenvectors, q)


def test_eigh_reports_non_convergence(monkeypatch):
    def fail(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError):
        eigh(path_network(2))


@pytest.mark.parametrize(
    "net",
    [
        Network(3, [Fraction(0)] * 3, [(1, 2, Fraction(10**7)), (2, 3, Fraction(3 * 10**6))]),
        Network(2, [Fraction(0)] * 2, [(1, 2, Fraction(1, 10**13))]),
        Network(3, [Fraction(1, 10**12), Fraction(0), Fraction(0)], [(2, 3, Fraction(1, 10**13))]),
    ],
)
def test_eigh_tolerances_scale_with_the_couplings(net):
    h = np.array([[float(x) for x in row] for row in net.hamiltonian()])
    scale = np.abs(h).max()
    sys = eigh(net)
    assert np.abs(sys.eigenvalues - np.linalg.eigvalsh(h)).max() <= 1e-12 * scale
    q = sys.eigenvectors
    assert np.abs(q @ np.diag(sys.eigenvalues) @ q.T - h).max() <= 1e-12 * scale


def test_eigh_zero_hamiltonian():
    sys = eigh(Network(3, [Fraction(0)] * 3, []))
    assert np.array_equal(sys.eigenvalues, np.zeros(3))
    assert np.array_equal(sys.eigenvectors, np.eye(3))


def test_evolve_preserves_norm_and_matches_operator():
    rng = random.Random(15)
    net = build_ninesite()
    sys = eigh(net)
    for _ in range(5):
        psi0 = rng.random() * np.eye(9)[rng.randrange(9)] + 0j
        psi0[rng.randrange(9)] += 0.3j
        tau = rng.uniform(0, 30)
        psi = evolve(sys, tau, psi0)
        assert abs(np.linalg.norm(psi) - np.linalg.norm(psi0)) < 1e-10
        assert np.abs(psi - evolution_operator(sys, tau) @ psi0).max() < 1e-10


def test_evolve_shape_check():
    sys = eigh(path_network(2))
    with pytest.raises(ValueError):
        evolve(sys, 1.0, np.zeros(3))


def test_evolution_operator_is_unitary():
    sys = eigh(build_ninesite())
    u = evolution_operator(sys, 7.3)
    assert np.abs(u @ u.conj().T - np.eye(9)).max() < 1e-10


def taylor_expm(h, tau):
    n = h.shape[0]
    a = -1j * tau * h
    term = np.eye(n, dtype=complex)
    out = np.eye(n, dtype=complex)
    for m in range(1, 200):
        term = term @ a / m
        out = out + term
        if np.abs(term).max() < 1e-18:
            break
    return out


def test_evolution_operator_matches_taylor_series():
    rng = random.Random(8)
    for _ in range(10):
        net = rand_network(rng)
        sys = eigh(net)
        h = np.array([[float(x) for x in row] for row in net.hamiltonian()])
        for tau in (0.3, 1.1):
            ref = taylor_expm(h, tau)
            assert np.abs(evolution_operator(sys, tau) - ref).max() < 1e-9


def test_two_site_rabi_oscillation():
    sys = eigh(path_network(2, k=Fraction(3, 4)))
    for tau in np.linspace(0, 6, 25):
        assert abs(fidelity(sys, 1, 2, tau) - np.sin(0.75 * tau) ** 2) < 1e-10


def test_fidelity_is_symmetric_in_the_pair():
    sys = eigh(build_ninesite())
    for tau in (0.7, 3.3, 8.0):
        assert abs(fidelity(sys, 2, 6, tau) - fidelity(sys, 6, 2, tau)) < 1e-12


def test_fidelity_curve_matches_scalar_calls():
    sys = eigh(build_ninesite())
    taus = np.linspace(0, 5, 40)
    curve = fidelity_curve(sys, 2, 6, taus)
    for t, f in zip(taus, curve):
        assert abs(fidelity(sys, 2, 6, t) - f) < 1e-12


def test_cospectral_pair_has_equal_return_amplitudes():
    sys = eigh(build_ninesite())
    for tau in (1.0, 4.2, 17.9):
        u = evolution_operator(sys, tau)
        assert abs(u[1, 1] - u[5, 5]) < 1e-10


def test_envelope_scan_two_site():
    sys = eigh(path_network(2))
    report = envelope_scan(sys, 1, 2, 10.0, 0.01)
    best_t, best_f = report.best
    assert best_f > 1 - 1e-10
    assert abs(best_t - np.pi / 2) < 1e-4
    running = [row[2] for row in report.envelope]
    assert all(b >= a for a, b in zip(running, running[1:]))
    assert report.envelope[-1][2] == pytest.approx(1.0, abs=1e-10)


def test_envelope_scan_is_chunk_invariant(monkeypatch):
    sys = eigh(build_ninesite())
    a = envelope_scan(sys, 2, 6, 12.0, 0.02)
    monkeypatch.setattr(walk, "_CHUNK_SIZE", 137)
    b = envelope_scan(sys, 2, 6, 12.0, 0.02)
    assert a.best == b.best
    assert a.peaks == b.peaks
    assert a.envelope == b.envelope


@pytest.mark.parametrize("samples", [3 * _PHASE_BLOCK + 100, _PHASE_BLOCK // 2])
def test_envelope_rows_match_direct_fidelity_curve(oracle_networks, samples):
    # the phase table against one direct exp(-i lam tau) per row; the phases
    # of both round by about eps * tau * max|lam|
    step = 0.05
    cases = [(eigh(build_ninesite()), 2, 6), (eigh(path_network(2)), 1, 2)]
    cases += [(eigh(net), 1, 2) for net in oracle_networks]
    eps = np.finfo(float).eps
    for sys, u, v in cases:
        lam_max = float(np.abs(sys.eigenvalues).max())
        report = envelope_scan(sys, u, v, (samples - 1) * step, step)
        assert report.samples == samples
        assert report.envelope[-1][0] == (samples - 1) * step
        for tau, f, _ in report.envelope:
            ref = fidelity_curve(sys, u, v, np.array([tau]))[0]
            assert abs(f - ref) <= 64 * eps * (1 + tau * lam_max)


# samples per BLAS product in envelope_scan
BATCH = _BATCH_BLOCKS * _PHASE_BLOCK


def chunk_cases(short, chunk_sizes):
    # (tau_max, chunk size) at step 0.02: the sizes on a scan within one batch,
    # and on a scan whose third batch is partial the sizes but one sample,
    # with one batch and one sample either side of it
    long_sizes = [c for c in chunk_sizes if c > 1] + [BATCH - 1, BATCH, BATCH + 1]
    return [pytest.param(short, c, id=str(c)) for c in chunk_sizes] + [
        pytest.param(1400.0, c, id=f"{c}-three-batches") for c in long_sizes
    ]


@pytest.mark.parametrize(
    "tau_max, chunk_size",
    chunk_cases(50.0, [1, _PHASE_BLOCK - 1, _PHASE_BLOCK, _PHASE_BLOCK + 1, 137]),
)
def test_envelope_scan_is_chunk_invariant_across_block_edges(tau_max, chunk_size, monkeypatch):
    sys = eigh(build_ninesite())
    a = envelope_scan(sys, 2, 6, tau_max, 0.02)
    assert a.samples > 4 * _PHASE_BLOCK
    assert a.samples < BATCH or 2 * BATCH < a.samples < 3 * BATCH - _PHASE_BLOCK
    monkeypatch.setattr(walk, "_CHUNK_SIZE", chunk_size)
    b = envelope_scan(sys, 2, 6, tau_max, 0.02)
    assert a.best == b.best
    assert a.peaks == b.peaks
    assert a.envelope == b.envelope


def seeded_24_site_network():
    rng = random.Random(24)
    n = 24
    onsite = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
    edges = [(i, i + 1, Fraction(rng.randint(1, 3), rng.randint(1, 3))) for i in range(1, n)]
    chords = range(1, n - 4, 3)
    edges += [(i, i + 5, Fraction(rng.randint(-3, -1), rng.randint(1, 3))) for i in chords]
    return Network(n, onsite, edges)


@pytest.mark.parametrize(
    "tau_max, chunk_size",
    chunk_cases(80.0, [1, _PHASE_BLOCK - 1, _PHASE_BLOCK + 1, 3 * _PHASE_BLOCK + 7]),
)
def test_envelope_scan_is_chunk_invariant_on_a_larger_network(tau_max, chunk_size, monkeypatch):
    # each batch's amplitudes are one fixed-shape BLAS product, whatever the chunk
    n = 24
    sys = eigh(seeded_24_site_network())
    a = envelope_scan(sys, 1, n, tau_max, 0.02)
    assert a.samples > 7 * _PHASE_BLOCK
    assert a.samples < BATCH or 2 * BATCH < a.samples < 3 * BATCH - _PHASE_BLOCK
    monkeypatch.setattr(walk, "_CHUNK_SIZE", chunk_size)
    b = envelope_scan(sys, 1, n, tau_max, 0.02)
    assert a.best == b.best
    assert a.peaks == b.peaks
    assert a.envelope == b.envelope


@pytest.mark.parametrize(
    "build, u, v, tau_max",
    [(build_ninesite, 2, 6, 50.0), (seeded_24_site_network, 1, 24, 200.0)],
    ids=["ninesite", "seeded-24"],
)
def test_envelope_running_max_matches_a_brute_oracle(build, u, v, tau_max):
    # the prefix max of the direct curve over every sample, raised by each
    # refined peak at or before the kept tau
    step = 0.02
    sys = eigh(build())
    report = envelope_scan(sys, u, v, tau_max, step)
    taus = np.arange(report.samples) * step
    prefix = np.maximum.accumulate(fidelity_curve(sys, u, v, taus))
    lam_max = float(np.abs(sys.eigenvalues).max())
    eps = np.finfo(float).eps
    assert len(report.peaks) > 1
    for tau, _, running in report.envelope:
        ref = max([prefix[round(tau / step)]] + [f for t, f in report.peaks if t <= tau])
        assert abs(running - ref) <= 64 * eps * (1 + tau * lam_max)


def hill_climb_oracle(fid, t0, h0, lo, hi):
    # the refinement envelope_scan used before Newton on F': a climb with step
    # h, then iterated parabolic steps, until h falls below 1e-4 of h0
    f = functools.cache(fid)
    t = min(max(t0, lo), hi)
    h = h0
    min_h = 1e-4 * h0
    for _ in range(5000):
        if h < min_h:
            break
        tm = max(t - h, lo)
        tp = min(t + h, hi)
        fm, f0, fp = f(tm), f(t), f(tp)
        if fp > f0 and fp >= fm:
            t = tp
            continue
        if fm > f0:
            t = tm
            continue
        denom = fm - 2.0 * f0 + fp
        if denom < 0.0:
            dt = 0.5 * h * (fm - fp) / denom
            t = min(max(t + dt, tm), tp)
        h *= 0.5
    return t, f(t)


def climb_oracle(fid, t0, h0, lo, hi):
    # the climb envelope_scan made on direct F before it read the coarse
    # samples: steps of h0 from t0 until neither neighbour is higher; returns
    # the number of steps, so the peak is at t0 + k*h0
    f = functools.cache(fid)
    at = lambda k: min(max(t0 + k * h0, lo), hi)
    k = 0
    while True:
        fm, f0, fp = f(at(k - 1)), f(at(k)), f(at(k + 1))
        if fp > f0 and fp >= fm:
            k += 1
        elif fm > f0:
            k -= 1
        else:
            return k


# (network, u, v, tau_max, coarse_step) of the refinement checks
REFINEMENT_SCANS = {
    "ninesite-20": (build_ninesite, 2, 6, 20.0, 0.02),
    "ninesite-2e5": (build_ninesite, 2, 6, 2.0e5, 0.02),
    "seeded-24": (seeded_24_site_network, 1, 24, 2000.0, 0.02),
}


@functools.cache
def refinement_scan(name, chunk_size=walk._CHUNK_SIZE):
    """(eigensystem, report, per-trigger (fid, t0, k, F evaluations, (F', F'') evaluations),
    number of exponentials taken at a single tau anywhere in the scan)."""
    build, u, v, tau_max, step = REFINEMENT_SCANS[name]
    sys = eigh(build())
    calls = []
    refine = walk._refine_peak
    real_exp = np.exp
    single_tau = []

    def counting_exp(x, *args, **kwargs):
        # F and (F', F'') take one exp of the n phases at one tau; the coarse
        # blocks take them as (blocks x n) tables
        if np.ndim(x) == 1:
            single_tau.append(x)
        return real_exp(x, *args, **kwargs)

    def refuse(*args):
        raise AssertionError("envelope_scan called a public fidelity function")

    def counted(fid, dfid, t0, k, h0, lo, hi):
        asked, asked_d = [], []
        t, f = refine(
            lambda t: asked.append(t) or fid(t),
            lambda t: asked_d.append(t) or dfid(t),
            t0, k, h0, lo, hi,
        )
        calls.append((fid, t0, k, asked, asked_d))
        return t, f

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walk, "_refine_peak", counted)
        mp.setattr(walk, "_CHUNK_SIZE", chunk_size)
        mp.setattr(walk, "fidelity", refuse)
        mp.setattr(walk, "fidelity_curve", refuse)
        mp.setattr(np, "exp", counting_exp)
        report = envelope_scan(sys, u, v, tau_max, step)
    return sys, report, calls, len(single_tau)


@pytest.mark.parametrize("name", REFINEMENT_SCANS)
def test_refined_peaks_match_the_hill_climb_oracle(name, monkeypatch):
    build, u, v, tau_max, step = REFINEMENT_SCANS[name]
    sys, report, _, _ = refinement_scan(name)
    oracle_refine = lambda fid, dfid, t0, k, h0, lo, hi: hill_climb_oracle(fid, t0, h0, lo, hi)
    monkeypatch.setattr(walk, "_refine_peak", oracle_refine)
    oracle = envelope_scan(sys, u, v, tau_max, step)
    assert len(report.peaks) == len(oracle.peaks) > 1
    for (t, f), (t_ref, f_ref) in zip(report.peaks, oracle.peaks):
        assert abs(t - t_ref) <= 1e-4 * step
        assert f >= f_ref - 1e-12
    assert abs(report.best[0] - oracle.best[0]) <= 1e-4 * step


@pytest.mark.parametrize("name", REFINEMENT_SCANS)
def test_refined_peaks_are_stationary_maxima(name):
    # Newton stops within 64 ulps of t + step of the root of F'; F' and F''
    # here come from a separate sum over the eigenbasis
    _, u, v, tau_max, step = REFINEMENT_SCANS[name]
    sys, report, _, _ = refinement_scan(name)
    lam = sys.eigenvalues
    c = sys.eigenvectors[u - 1] * sys.eigenvectors[v - 1]
    eps = np.finfo(float).eps
    interior = [(t, f) for t, f in report.peaks if step < t < tau_max - step]
    assert interior
    for t, f in interior:
        terms = c * np.exp(-1j * lam * t)
        a, da, dda = np.sum(terms), np.sum(-1j * lam * terms), np.sum(-(lam**2) * terms)
        d1 = 2 * (a.conjugate() * da).real
        d2 = 2 * (abs(da) ** 2 + (a.conjugate() * dda).real)
        assert d2 < 0
        assert abs(d1 / d2) <= 128 * eps * (t + step)
        delta = 1e-2 * step
        assert fidelity(sys, u, v, t - delta) <= f >= fidelity(sys, u, v, t + delta)


def assert_newton_evaluations_only(calls, single_tau_exps):
    # the climb reads the coarse samples: Newton needs a few (F', F'')
    # evaluations and one F at its end, and the scan evaluates nothing else at
    # a single tau
    assert calls
    for _, _, _, asked, asked_d in calls:
        assert len(asked) == 1
        assert len(asked_d) == len(set(asked_d)) <= 8
    assert single_tau_exps == sum(len(asked) + len(asked_d) for *_, asked, asked_d in calls)


@pytest.mark.parametrize("name", REFINEMENT_SCANS)
def test_refinement_evaluations_stay_within_the_climb_moves(name):
    assert_newton_evaluations_only(*refinement_scan(name)[2:])


@pytest.mark.parametrize(
    "name, chunk_size", [("ninesite-20", 1), ("ninesite-20", 137), ("seeded-24", 137)]
)
def test_refinements_evaluate_no_f_at_chunk_edges(name, chunk_size):
    # a climb that reaches the end of a chunk reads the next block, not F
    _, report, calls, single_tau_exps = refinement_scan(name, chunk_size)
    assert_newton_evaluations_only(calls, single_tau_exps)
    _, whole, whole_calls, _ = refinement_scan(name)
    assert [call[1:3] for call in calls] == [call[1:3] for call in whole_calls]
    assert (report.peaks, report.envelope) == (whole.peaks, whole.envelope)


@pytest.mark.parametrize("name", REFINEMENT_SCANS)
def test_coarse_climb_ends_where_the_direct_climb_does(name):
    _, _, _, tau_max, step = REFINEMENT_SCANS[name]
    _, _, calls, _ = refinement_scan(name)
    assert any(k > 0 for _, _, k, _, _ in calls)
    for fid, t0, k, _, _ in calls:
        assert climb_oracle(fid, t0, step, 0.0, tau_max) == k


def test_refine_peak_finds_the_first_principal_peak():
    # direct call from the direct climb's end: fid and dfid from fidelity's
    # formula, each tau asked once
    sys = eigh(build_ninesite())
    lam = sys.eigenvalues
    c = sys.eigenvectors[1] * sys.eigenvectors[5]
    asked, asked_d = [], []

    def fid(t):
        asked.append(t)
        return fidelity(sys, 2, 6, t)

    def dfid(t):
        asked_d.append(t)
        terms = c * np.exp(-1j * lam * t)
        a, da, dda = np.sum(terms), np.sum(-1j * lam * terms), np.sum(-(lam**2) * terms)
        return 2 * (a.conjugate() * da).real, 2 * (abs(da) ** 2 + (a.conjugate() * dda).real)

    k = climb_oracle(lambda t: fidelity(sys, 2, 6, t), 8.0, 0.02, 0.0, 20.0)
    t, f = _refine_peak(fid, dfid, 8.0, k, 0.02, 0.0, 20.0)
    assert k == 1
    assert abs(t - 8.017018706487) < 1e-9
    assert f == fidelity(sys, 2, 6, t)
    assert asked == [t]
    assert len(asked_d) == len(set(asked_d)) <= 8


def test_envelope_scan_makes_no_exponential_per_sample(monkeypatch):
    # coarse curve only: refinement is stubbed out so that every trigger keeps
    # its coarse value, and the public per-tau functions must not be called
    sys = eigh(build_ninesite())
    counted = []
    real_exp = np.exp

    def counting_exp(x, *args, **kwargs):
        counted.append(np.size(x))
        return real_exp(x, *args, **kwargs)

    def refuse(*args):
        raise AssertionError("envelope_scan called a public fidelity function")

    monkeypatch.setattr(np, "exp", counting_exp)
    monkeypatch.setattr(walk, "fidelity", refuse)
    monkeypatch.setattr(walk, "fidelity_curve", refuse)
    keep_trigger = lambda fid, dfid, t0, k, h0, lo, hi: (t0, -np.inf)
    monkeypatch.setattr(walk, "_refine_peak", keep_trigger)
    report = envelope_scan(sys, 2, 6, 50.0, 0.02)
    blocks = math.ceil(report.samples / _PHASE_BLOCK)
    assert sum(counted) == (_PHASE_BLOCK // _PHASE_STRIDE + _PHASE_STRIDE + blocks) * sys.n


def test_envelope_scan_first_principal_peak_regression():
    sys = eigh(build_ninesite())
    report = envelope_scan(sys, 2, 6, 20.0, 0.02)
    best_t, best_f = report.best
    assert abs(best_t - 8.017018705952) < 1e-3
    assert abs(best_f - 0.836925742302) < 1e-6


def test_envelope_scan_envelope_covers_endpoints():
    sys = eigh(path_network(2))
    report = envelope_scan(sys, 1, 2, 3.0, 0.01)
    assert report.envelope[0][0] == 0.0
    assert report.envelope[-1][0] == pytest.approx(3.0)
    assert report.samples == 301


def test_envelope_scan_validation():
    sys = eigh(path_network(2))
    with pytest.raises(ValueError):
        envelope_scan(sys, 1, 2, -1.0, 0.01)
    with pytest.raises(ValueError):
        envelope_scan(sys, 1, 2, 1.0, 0.0)


@pytest.mark.parametrize(
    "tau_max, step",
    [(math.nan, 0.1), (1.0, math.nan), (math.inf, 0.1), (1e300, 1e-300), (1.0, math.inf)],
)
def test_envelope_scan_refuses_non_finite_sample_count(tau_max, step):
    sys = eigh(path_network(2))
    with pytest.raises(ValueError, match="must be finite"):
        envelope_scan(sys, 1, 2, tau_max, step)


def test_envelope_scan_refuses_a_sample_count_beyond_int64(monkeypatch):
    sys = eigh(build_ninesite())

    def refuse(*args, **kwargs):
        raise AssertionError("envelope_scan built an array before refusing")

    for name in ("geomspace", "arange", "exp", "outer", "concatenate"):
        monkeypatch.setattr(np, name, refuse)
    with pytest.raises(ValueError, match="int64"):
        envelope_scan(sys, 2, 6, 1e20, 1.0)


def test_antisymmetric_input_never_reaches_singlet_sites():
    sys = eigh(build_ninesite())
    leak = antisymmetric_confinement(sys, 2, 6, SINGLET_SITES, np.linspace(0, 100, 2001))
    assert leak < 1e-10


def moved_point_grid(taus=np.linspace(0, 100, 2000), shift=1e-9):
    taus = taus.copy()
    taus[777] += shift
    return taus


@pytest.mark.parametrize(
    "taus",
    [
        np.cumsum(np.full(10000, 0.01)),  # drifts 598 ulps of max|tau| from even spacing
        np.array(list(itertools.accumulate([0.1] * 5000))),  # 301 ulps
        np.cumsum(np.full(2000, 0.05)),  # 65 ulps
    ],
    ids=["cumsum-10000", "accumulate-5000", "cumsum-2000"],
)
def test_confinement_accepts_a_grid_summed_step_by_step(taus):
    # a running sum drifts from tau_0 + j*step by fewer than N ulps of max|tau|;
    # the amplitudes are read at tau_0 + j*step, so the phases may be off by
    # N*eps*max|lam|*max|tau| against one exp per given sample
    sys = eigh(build_ninesite())
    eps, n = np.finfo(float).eps, taus.size
    scale = 1 + float(np.abs(sys.eigenvalues).max()) * float(np.abs(taus).max())
    even = np.linspace(taus[0], taus[-1], n)
    for sites in ([1], SINGLET_SITES):
        got = antisymmetric_confinement(sys, 2, 6, sites, taus)
        assert abs(got - antisymmetric_confinement(sys, 2, 6, sites, even)) <= 16 * eps * scale
        want = oracles.direct_confinement(sys, 2, 6, sites, taus)
        assert abs(got - want) <= (n + 16) * eps * scale
    # site 1 carries the input (max about 0.5), so the comparison is not vacuous
    assert antisymmetric_confinement(sys, 2, 6, [1], taus) > 0.4


@pytest.mark.parametrize(
    "taus",
    [
        np.linspace(0, 100, 2000),
        np.linspace(0, 100, 2001),
        np.linspace(0, 2e5, 4001),
        np.arange(0, 50, 0.05),
        np.linspace(-10, 10, 401),
        np.array([7.3]),
        np.linspace(0, 70, 700),  # above one block, not a multiple of it
        np.linspace(0, 1, 11),  # site 1's amplitude rises: the max is the last sample's
        np.linspace(1, 0, 11),  # a negative step: the max is the first sample's
    ],
    ids=["2000", "2001", "2e5", "arange", "negative", "one-point", "700", "rising", "falling"],
)
def test_confinement_matches_the_direct_formula(taus):
    # against one exp per sample: the phase table's rotations round the phases
    # lam*tau to order eps*max|lam|*max|tau|, and sum |coef_k Q_wk| <= 1
    net = grow(20, 1)  # the perfbench dynamics network: pair (2, 6), 14 singlet sites
    singlets = sorted(singlet_sites(net, 2, 6))
    others = [w for w in range(1, net.n + 1) if w not in (2, 6, *singlets)]
    cases = [
        (eigh(build_ninesite()), [1], 0.01),  # site 1 carries the input (max about 0.5)
        (eigh(build_ninesite()), SINGLET_SITES, None),
        (eigh(net), others, 0.01),
        (eigh(net), singlets, None),
    ]
    for sys, sites, floor in cases:
        lam, tau = float(np.abs(sys.eigenvalues).max()), float(np.abs(taus).max())
        want = oracles.direct_confinement(sys, 2, 6, sites, taus)
        got = antisymmetric_confinement(sys, 2, 6, sites, taus)
        assert abs(got - want) <= 16 * np.finfo(float).eps * (1 + lam * tau)
        if floor is not None:
            assert want > floor  # a site set that carries amplitude, so the check is not vacuous
        else:
            assert got < 1e-10


def test_confinement_memory_does_not_grow_with_samples_times_sites():
    # one 10^6 x 9 complex table of exponentials alone would be 144 MB; the
    # spacing check holds one float per sample, the blocks a fixed few
    import tracemalloc

    sys = eigh(build_ninesite())
    taus = np.linspace(0, 1e4, 10**6)
    tracemalloc.start()
    try:
        leak = antisymmetric_confinement(sys, 2, 6, SINGLET_SITES, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert leak < 1e-10
    assert peak < 2 * taus.nbytes + 2**20


def test_symmetric_input_does_reach_singlet_sites():
    sys = eigh(build_ninesite())
    psi0 = np.zeros(9, dtype=complex)
    psi0[1] = psi0[5] = 1 / np.sqrt(2)
    biggest = 0.0
    for tau in np.linspace(0, 20, 200):
        psi = evolve(sys, tau, psi0)
        biggest = max(biggest, max(abs(psi[w - 1]) for w in SINGLET_SITES))
    assert biggest > 0.1


def test_antisymmetric_confinement_needs_sites():
    sys = eigh(build_ninesite())
    with pytest.raises(ValueError):
        antisymmetric_confinement(sys, 2, 6, [], np.array([0.0]))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda sys: fidelity(sys, 2, 6, math.nan), "tau must be finite"),
        (lambda sys: fidelity_curve(sys, 2, 6, [0.0, math.inf]), "tau must be finite"),
        (lambda sys: evolve(sys, -math.inf, np.eye(9)[1]), "tau must be finite"),
        (lambda sys: evolution_operator(sys, math.inf), "tau must be finite"),
        (
            lambda sys: antisymmetric_confinement(sys, 2, 6, SINGLET_SITES, [1.0, math.nan]),
            "tau must be finite",
        ),
        (lambda sys: antisymmetric_confinement(sys, 2, 6, SINGLET_SITES, []), "grid is empty"),
        (lambda sys: antisymmetric_confinement(sys, 2, 6, [2], [1.0]), "must not include"),
        (lambda sys: antisymmetric_confinement(sys, 2, 6, [4, 6], [1.0]), "must not include"),
        (lambda sys: antisymmetric_confinement(sys, 2, 2, [4], [1.0]), "distinct sites"),
        (
            lambda sys: antisymmetric_confinement(sys, 2, 6, SINGLET_SITES, np.geomspace(1, 100, 50)),
            "evenly spaced",
        ),
        (
            lambda sys: antisymmetric_confinement(sys, 2, 6, SINGLET_SITES, moved_point_grid()),
            "evenly spaced",
        ),
        (
            lambda sys: antisymmetric_confinement(
                sys, 2, 6, SINGLET_SITES, moved_point_grid(np.cumsum(np.full(10000, 0.01)), 1e-6)
            ),
            "evenly spaced",
        ),
        (lambda sys: evolution_operator(sys, 1.7e308), r"max\|lam\| \* \|tau\|"),
        (lambda sys: fidelity_curve(sys, 2, 6, [0.0, -1.7e308]), r"max\|lam\| \* \|tau\|"),
        (lambda sys: envelope_scan(sys, 2, 6, 1.7e308, 1e307), r"max\|lam\| \* \|tau\|"),
    ],
    ids=[
        "fidelity", "fidelity_curve", "evolve", "evolution_operator", "confinement-tau",
        "confinement-empty-grid", "confinement-singlet-u", "confinement-singlet-v",
        "confinement-u-equals-v", "confinement-geomspace", "confinement-moved-point",
        "confinement-summed-moved-point",
        "evolution_operator-phase-overflow",
        "fidelity_curve-phase-overflow", "envelope_scan-phase-overflow",
    ],
)
def test_walk_functions_refuse_non_finite_tau_and_bad_confinement_input(call, match):
    # each would otherwise return NaN, a leak through u or v (0.51 for
    # singlets [2] on (2, 6)), numpy's zero-size reduction error, 0.0 for
    # the zero input (e_2 - e_2)/sqrt(2), or a leak at the wrong times for a
    # grid that one phase table cannot rotate onto
    with pytest.raises(ValueError, match=match):
        call(eigh(build_ninesite()))


@pytest.mark.parametrize(
    "onsite, coupling",
    [
        (0, Fraction(1, 10**310)),  # subnormal: it would keep only a few bits
        (Fraction(-(10**309)), 1),
    ],
    ids=["coupling-1e-310", "onsite-1e309"],
)
def test_eigh_refuses_entries_outside_the_normal_float_range(onsite, coupling):
    # test_cli runs the couplings 1e400 and 1e-400 through the subcommands
    net = Network(2, [onsite, 0], [(1, 2, coupling)])
    with pytest.raises(ValueError, match="outside the normal float range"):
        eigh(net)


def test_eigh_accepts_entries_at_the_ends_of_the_normal_float_range():
    # the range check runs on the converted floats, so the exact ends pass
    lo, hi = Fraction(float_info.min), Fraction(float_info.max)
    h = walk._hamiltonian_matrix(Network(2, [hi, 0], [(1, 2, -lo)]))
    assert h.tolist() == [[float_info.max, -float_info.min], [-float_info.min, 0.0]]


@pytest.mark.parametrize("scale", [Fraction(1, 10**12), Fraction(1, 10**9), 1, 10**9])
def test_eigenprojector_parity_agrees_with_exact_verdict_at_any_scale(scale):
    # the cluster tolerance is relative to max|lam|: no absolute floor
    base = build_ninesite()
    twins = Network(4, [Fraction(0)] * 4, [(1, 2, Fraction(1)), (3, 4, Fraction(1))])
    cases = [(base, 2, 6, True), (base, 2, 3, False), (twins, 1, 3, False),
             (path_network(3), 1, 3, True), (path_network(3), 1, 2, False)]
    for net, u, v, strong in cases:
        onsite = [e * scale for e in net.onsite]
        scaled = Network(net.n, onsite, [(i, j, w * scale) for i, j, w in net.edges])
        assert is_strongly_cospectral(scaled, u, v) == strong
        assert oracles.eigenprojector_parity(eigh(scaled), u, v) == strong


@pytest.mark.parametrize("bad", [0, 10, 1.9, 2.5])
def test_walk_functions_refuse_out_of_range_sites(bad):
    # site 0 would otherwise read row -1, i.e. site 9; singlet 1.9 was read as
    # site 1, and fidelity at u = 2.5 raised numpy's IndexError
    sys = eigh(build_ninesite())
    taus = np.array([0.0, 1.0])
    calls = [
        lambda: fidelity(sys, bad, 2, 1.0),
        lambda: fidelity(sys, 2, bad, 1.0),
        lambda: fidelity_curve(sys, bad, 2, taus),
        lambda: fidelity_curve(sys, 2, bad, taus),
        lambda: envelope_scan(sys, bad, 6, 1.0, 0.1),
        lambda: envelope_scan(sys, 2, bad, 1.0, 0.1),
        lambda: antisymmetric_confinement(sys, bad, 6, SINGLET_SITES, taus),
        lambda: antisymmetric_confinement(sys, 2, bad, SINGLET_SITES, taus),
        lambda: antisymmetric_confinement(sys, 2, 6, [4, bad], taus),
    ]
    match = f"site {bad} out of range 1..9" if isinstance(bad, int) else f"site {bad} is not an integer"
    for call in calls:
        with pytest.raises(ValueError, match=match):
            call()
