"""Continuous-time quantum-walk engine on network Hamiltonians.

Double-precision throughout; the spectrum comes from LAPACK through
numpy.linalg.eigh.  Site arguments are 1-based to match the network layer and
must be integers in 1..n; raw state vectors are plain 0-based numpy arrays.

envelope_scan evaluates its coarse grid from a phase table: one block of
exp(-i lam_k r dt) per call, built from two short factors and rotated per
block of _PHASE_BLOCK samples, so a long scan makes no complex exponential per
sample, and each aligned batch of _BATCH_BLOCKS blocks is one fixed-shape BLAS
matrix product.  A record's climb to its peak reads the coarse samples the
scan already holds; Newton's method on the analytic F' and F'' then refines
that peak.  The running maximum at the kept samples comes from the maxima of
the segments that end there, raised by the refined peaks in one pass after
the scan.

antisymmetric_confinement reads the same phase table, built by
_phase_table, so its N-sample tau grid must be evenly spaced to N ulps; both
differ from a direct exp(-i lam tau) by phase rounding of order
eps*max|lam|*tau, confinement by up to N times that on a drifting grid.
"""

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from sys import float_info
from typing import Iterable

import numpy as np

from .network import Network


class ConvergenceError(RuntimeError):
    pass


@dataclass
class EigenSystem:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # orthonormal, column j belongs to eigenvalue j
    n: int


def _float_entry(x: Fraction) -> float:
    # float(x) rounds to nearest and raises OverflowError past float_info.max; a
    # nonzero entry that overflows or rounds below the normal range is refused
    try:
        y = float(x)
    except OverflowError:
        y = math.inf
    if x and not float_info.min <= abs(y) <= float_info.max:
        raise ValueError("an entry of H is outside the normal float range 2.2e-308..1.8e308")
    return y


def _hamiltonian_matrix(net: Network) -> np.ndarray:
    # the float(Fraction) entries of net.hamiltonian(), without its n x n Fractions
    h = np.diag([_float_entry(e) for e in net.onsite])
    for i, j, w in net.edges:
        h[i - 1, j - 1] = h[j - 1, i - 1] = _float_entry(w)
    return h


def eigh(net: Network) -> EigenSystem:
    """Diagonalize the (real symmetric) Hamiltonian with LAPACK (numpy.linalg.eigh).

    Eigenpairs are returned sorted ascending.  The result must be orthonormal
    to 1e-10 and reconstruct H to 1e-10 times the largest |H_ij|; a LAPACK
    failure or a result outside either bound raises ConvergenceError.  A
    nonzero entry of H outside the normal float range raises ValueError.
    """
    n = net.n
    h = _hamiltonian_matrix(net)
    try:
        evals, q = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigh failed: {exc}") from exc
    if n:
        scale = float(np.abs(h).max())
        if np.abs(q.T @ q - np.eye(n)).max() > 1e-10:
            raise ConvergenceError("eigenvector matrix lost orthonormality")
        if np.abs((q * evals) @ q.T - h).max() > 1e-10 * scale:
            raise ConvergenceError("spectral reconstruction drifted from H")
    return EigenSystem(eigenvalues=evals, eigenvectors=q, n=n)


def _check_sites(sys: EigenSystem, *sites: int) -> None:
    # numpy would read site 0 as the last row, and int() site 1.9 as site 1;
    # refuse both rather than wrap or truncate
    for site in sites:
        if not isinstance(site, numbers.Integral):
            raise ValueError(f"site {site!r} is not an integer")
        if not 1 <= site <= sys.n:
            raise ValueError(f"site {site} out of range 1..{sys.n}")


def _check_taus(sys: EigenSystem, taus) -> None:
    # exp(-i lam tau) is NaN, which would pass as a result, unless tau and lam*tau are
    # finite; a product of Python floats overflows to inf (0 * inf is NaN) with no warning
    lam = float(np.abs(sys.eigenvalues).max(initial=0.0))
    if not math.isfinite(lam * float(np.abs(taus).max(initial=0.0))):
        raise ValueError("tau must be finite, and so must max|lam| * |tau|")


def _sample_count(tau_max: float, step: float) -> float:
    """Samples 0, step, 2*step, ... up to tau_max: floor(tau_max/step) + 1.

    A ratio within 1e-9 of a step below an integer counts that sample too, so
    a step that rounding leaves a hair short still reaches tau_max, and the
    last sample may pass tau_max by at most 1e-9 of a step (11 samples for
    tau_max = 0.99999999995, step = 0.1).  inf when the ratio overflows, so
    that a cap on the count refuses it.
    """
    ratio = tau_max / step
    return math.floor(ratio + 1e-9) + 1 if math.isfinite(ratio) else math.inf


def evolve(sys: EigenSystem, tau: float, psi0: np.ndarray) -> np.ndarray:
    """psi(tau) = Q exp(-i Lambda tau) Q^T psi0."""
    _check_taus(sys, tau)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (sys.n,):
        raise ValueError(f"state must have shape ({sys.n},)")
    phases = np.exp(-1j * sys.eigenvalues * tau)
    return sys.eigenvectors @ (phases * (sys.eigenvectors.T @ psi0))


def evolution_operator(sys: EigenSystem, tau: float) -> np.ndarray:
    _check_taus(sys, tau)
    phases = np.exp(-1j * sys.eigenvalues * tau)
    return (sys.eigenvectors * phases) @ sys.eigenvectors.T


def fidelity(sys: EigenSystem, u: int, v: int, tau: float) -> float:
    """|U_{u,v}(tau)|^2 — probability of finding at u a walker launched at v."""
    _check_sites(sys, u, v)
    _check_taus(sys, tau)
    c = sys.eigenvectors[u - 1] * sys.eigenvectors[v - 1]
    amp = np.sum(c * np.exp(-1j * sys.eigenvalues * tau))
    return float(abs(amp) ** 2)


def fidelity_curve(sys: EigenSystem, u: int, v: int, taus: np.ndarray) -> np.ndarray:
    _check_sites(sys, u, v)
    _check_taus(sys, taus)
    c = sys.eigenvectors[u - 1] * sys.eigenvectors[v - 1]
    amp = np.exp(-1j * np.outer(taus, sys.eigenvalues)) @ c
    return np.abs(amp) ** 2


# Samples per phase-table block in envelope_scan.
_PHASE_BLOCK = 512
# Stride of envelope_scan's factored phase table: row r is big[r // 32] * small[r % 32].
_PHASE_STRIDE = 32
# Phase-table blocks per BLAS product in envelope_scan.
_BATCH_BLOCKS = 64
# Log-spaced samples kept in envelope_scan's thinned envelope.
_ENVELOPE_POINTS = 2000
# Coarse samples envelope_scan holds at a time; the report does not depend on it.
_CHUNK_SIZE = 500_000


def _phase_table(neg_i_lam: np.ndarray, step: float) -> np.ndarray:
    # table[k, r] = exp(-i lam_k r step) for r < B, as big[k, r // b] small[k, r % b]
    # (b = _PHASE_STRIDE): B/b + b columns of exponentials instead of B
    b = _PHASE_STRIDE
    big = np.exp(np.outer(neg_i_lam, np.arange(0, _PHASE_BLOCK, b) * step))
    small = np.exp(np.outer(neg_i_lam, np.arange(b) * step))
    return (big[:, :, None] * small[:, None, :]).reshape(len(neg_i_lam), _PHASE_BLOCK)


@dataclass
class PeakReport:
    samples: int
    step: float
    peaks: list[tuple[float, float]]  # refined (tau, F), in trigger order
    envelope: list[tuple[float, float, float]]  # (tau, F, running_max), thinned
    best: tuple[float, float]


def _refine_peak(
    fid, dfid, t0: float, k: int, h0: float, lo: float, hi: float
) -> tuple[float, float]:
    # fid(t) is F, dfid(t) is (F', F'').  The coarse samples climb from t0 to
    # t = t0 + k*h0 and fall after it, so F peaks inside [t - h0, t + h0].  A
    # Newton step on F' is taken while F'' < 0 and it stays in that bracket,
    # which shrinks to the last point on each side of the peak; otherwise the
    # bracket is bisected.  A step below 64 ulps of t + h0 ends the search:
    # the rounding of the phases lam*t leaves F' no more precise than that.
    at = lambda j: min(max(t0 + j * h0, lo), hi)
    a, t, b = at(k - 1), at(k), at(k + 1)
    tol = 64 * np.finfo(float).eps * (abs(t) + h0)
    while True:
        d1, d2 = dfid(t)
        if d1 > 0:
            a = t
        elif d1 < 0:
            b = t
        else:
            break
        dx = -d1 / d2 if d2 < 0 else np.inf
        if not a <= t + dx <= b:
            dx = 0.5 * (a + b) - t
        if abs(dx) <= tol:
            break
        t += dx
    return t, fid(t)


def envelope_scan(
    sys: EigenSystem,
    u: int,
    v: int,
    tau_max: float,
    coarse_step: float,
) -> PeakReport:
    """Coarse fidelity scan with refinement of every new running-max record.

    A coarse sample beating the running maximum (which includes all refined
    values so far) triggers refinement: the coarse samples climb from it to
    the first sample whose successor is no higher, and safeguarded Newton on
    F' then searches one coarse step on either side of that sample, with F'
    and F'' in closed form, from one exp and one (3 x n)(n) product per tau.
    The refined F is abs(c @ exp(-i lam tau))**2 with c_k = Q[u, k] Q[v, k],
    one evaluation per refinement.  The envelope output is the running
    maximum on a logarithmically thinned grid of about _ENVELOPE_POINTS
    samples, evaluated only there: the coarse part comes from the maxima of
    the segments that end at each kept sample, and only a segment whose
    maximum beats the running maximum before it is searched for records.

    The coarse curve comes from a phase table.  Sample i = q*B + r (B =
    _PHASE_BLOCK) has amplitude sum_k T[r, k] R[q, k] with T[r, k] =
    exp(-i lam_k r dt), built once per call as the product of
    exp(-i lam_k (r // b) b dt) and exp(-i lam_k (r % b) dt) (b =
    _PHASE_STRIDE), B/b + b rows of exponentials, and R[q, k] =
    c_k exp(-i lam_k q B dt), built once per batch.  N samples thus cost
    (B/b + b + N/B) n complex exponentials instead of N n.  Batch j holds
    blocks jK..jK+K-1 (K = _BATCH_BLOCKS, counted from sample 0, rows past
    the last block zero), and its K*B amplitudes are one (K x n)(n x B)
    product R T^T into one reused buffer, which keeps the last batch
    computed, so a batch is computed once as the scan moves right.  Every
    product has that shape and block q is always row q mod K of batch
    q // K, so each value depends on i alone and the report does not depend
    on _CHUNK_SIZE; a climb that reaches the end of a chunk reads the batch
    that holds the next block the same way.  Against the direct
    exp(-i lam_k i dt) a sample differs by phase rounding of order
    eps*max|lam|*tau.
    coarse_step, tau_max/coarse_step, max|lam|*tau_max and lam^2*c must be
    finite and the sample count must fit in int64, else ValueError.
    """
    if tau_max <= 0 or coarse_step <= 0:
        raise ValueError("tau_max and coarse_step must be positive")
    if not (np.isfinite(coarse_step) and np.isfinite(tau_max / coarse_step)):
        raise ValueError("coarse_step and tau_max/coarse_step must be finite")
    _check_sites(sys, u, v)
    n_samples = _sample_count(tau_max, coarse_step)
    if n_samples > np.iinfo(np.int64).max:
        raise ValueError(f"{n_samples} samples do not fit in int64")

    # geomspace ends exactly at 1 and n_samples, so keep holds 0 and n_samples - 1
    keep = np.sort(np.round(np.geomspace(1, n_samples, _ENVELOPE_POINTS)).astype(int) - 1)
    keep = keep[np.concatenate(([True], keep[1:] != keep[:-1]))]

    neg_i_lam = -1j * sys.eigenvalues
    c = sys.eigenvectors[u - 1] * sys.eigenvectors[v - 1]
    # phases are taken up to tau_max (B*coarse_step in the table), and sum_k |c_k| <= 1
    # gives |F''| <= 4 sum_k lam_k^2 |c_k|; Python floats overflow with no warning
    _check_taus(sys, max(tau_max, _PHASE_BLOCK * coarse_step))
    lam = sys.eigenvalues.tolist()
    if not math.isfinite(4 * sum(x * x * abs(y) for x, y in zip(lam, c.tolist()))):
        raise ValueError("lam^2 * c must be finite")
    table = _phase_table(neg_i_lam, coarse_step)
    fid = lambda t: float(abs(c @ np.exp(neg_i_lam * t)) ** 2)
    # rows of a, a' and a'' at t: F' = 2 Re(conj(a) a'), F'' = 2 (|a'|^2 + Re(conj(a) a''))
    rows = np.array([c, neg_i_lam * c, neg_i_lam**2 * c])

    def dfid(t):
        a, da, dda = (rows @ np.exp(neg_i_lam * t)).tolist()
        ac = a.conjugate()
        return 2.0 * (ac * da).real, 2.0 * (abs(da) ** 2 + (ac * dda).real)

    span = _BATCH_BLOCKS * _PHASE_BLOCK
    n_blocks = -(-n_samples // _PHASE_BLOCK)
    rot = np.zeros((_BATCH_BLOCKS, sys.n), dtype=complex)  # rows past the last block stay 0
    amp = np.empty((_BATCH_BLOCKS, _PHASE_BLOCK), dtype=complex)
    held = -1  # the first sample of the batch amp holds

    def coarse(lo, hi):
        # F at samples lo..hi-1, from the batches they overlap.  A batch is one
        # (K x n)(n x B) product whatever lo and hi, and sample i is always in
        # row (i // B) % K of batch i // (K B), so each value depends on i alone.
        nonlocal held
        f = np.empty(hi - lo)
        for first in range(lo - lo % span, hi, span):
            if first != held:
                q = first // _PHASE_BLOCK
                blocks = np.arange(q, min(q + _BATCH_BLOCKS, n_blocks))
                r = rot[: len(blocks)]
                np.exp(np.outer(blocks * _PHASE_BLOCK * coarse_step, neg_i_lam), out=r)
                r *= c
                np.matmul(rot, table, out=amp)
                held = first
            i, j = max(lo, first), min(hi, first + span)
            np.abs(amp.reshape(-1)[i - first : j - first], out=f[i - lo : j - lo])
        return np.square(f, out=f)

    def climb(f, start, g):
        # the first sample at or after g whose successor is no higher; f holds
        # samples start.. and a climb past its end reads the batch of the next block
        while g + 1 < n_samples:
            if g + 1 == start + len(f):
                f, start = coarse(g, min(g + 1 + _PHASE_BLOCK, n_samples)), g
            if f[g + 1 - start] <= f[g - start]:
                break
            g += 1
        return g

    peaks: list[tuple[float, float]] = []
    ref_pos, ref_f = [], []  # sample position and F of each refinement
    kept_f, kept_max = [], []
    best_t, best_f = 0.0, -np.inf
    carry = -np.inf  # max over the coarse samples at earlier times
    for start in range(0, n_samples, _CHUNK_SIZE):
        stop = min(start + _CHUNK_SIZE, n_samples)
        f = coarse(start, stop)
        sel = keep[np.searchsorted(keep, start) : np.searchsorted(keep, stop)]
        # the segments of f that end at each kept sample, then the rest of f
        bounds = np.concatenate(([0], sel - start + 1))
        if bounds[-1] == len(f):
            bounds = bounds[:-1]
        seg_max = np.maximum.reduceat(f, bounds)
        acc = np.maximum.accumulate(np.concatenate(([carry], seg_max)))
        ends = np.append(bounds[1:], len(f)).tolist()
        # best_f is at least every earlier sample, so a sample beating it is a
        # record, and its left neighbour is lower: the climb only goes right
        for s in np.flatnonzero(seg_max > acc[:-1]).tolist():
            if seg_max[s] <= best_f:
                continue
            i = int(bounds[s])
            while (hits := np.flatnonzero(f[i : ends[s]] > best_f)).size:
                i += int(hits[0])
                g, f_i = start + i, float(f[i])
                t_i = g * coarse_step
                p = climb(f, start, g)
                t_ref, f_ref = _refine_peak(fid, dfid, t_i, p - g, coarse_step, 0.0, tau_max)
                if f_ref < f_i:  # refinement may not undercut its trigger
                    t_ref, f_ref, pos = t_i, f_i, g
                else:
                    # the first sample at or after t_ref, of the bracket's p - 1, p, p + 1
                    pos = p - 1 + (t_ref > (p - 1) * coarse_step) + (t_ref > p * coarse_step)
                # f_ref >= f_i > best_f >= every F so far: a record, and the top of its peak
                if peaks and abs(t_ref - peaks[-1][0]) < coarse_step:
                    peaks[-1] = (t_ref, f_ref)
                else:
                    peaks.append((t_ref, f_ref))
                best_t, best_f = t_ref, f_ref
                ref_pos.append(min(pos, n_samples - 1))
                ref_f.append(f_ref)
                i += 1
        kept_f.append(f[sel - start])
        kept_max.append(acc[1 : len(sel) + 1])
        carry = float(acc[-1])
    # the running max at the kept samples: the coarse running max, raised by
    # each refined value from the first kept sample at or after its position
    running = np.concatenate(kept_max)
    np.maximum.at(running, np.searchsorted(keep, ref_pos), ref_f)
    np.maximum.accumulate(running, out=running)
    return PeakReport(
        samples=n_samples,
        step=coarse_step,
        peaks=peaks,
        envelope=list(
            zip((keep * coarse_step).tolist(), np.concatenate(kept_f).tolist(), running.tolist())
        ),
        best=(best_t, best_f),
    )


def antisymmetric_confinement(
    sys: EigenSystem, u: int, v: int, singlets: Iterable[int], tau_grid: np.ndarray
) -> float:
    """Max |psi_w(tau)| over singlet sites w for the input (e_u - e_v)/sqrt(2).

    u and v must differ, the singlets must not include them (the input sets their
    amplitudes), and the grid must be non-empty, finite and evenly spaced, else
    ValueError.  Evenly spaced means |tau_j - (tau_0 + j*step)| <= N*eps*max|tau|
    for the N samples, with step taken from the grid's two ends: np.linspace
    and np.arange grids pass within about an ulp, and a grid summed step by
    step (np.cumsum, itertools.accumulate) drifts by fewer than N ulps.

    The amplitudes come from envelope_scan's phase table: sample j = q*B + r
    (B = _PHASE_BLOCK) is sum_k T[k, r] R[q, k] W[k, w] with T[k, r] =
    exp(-i lam_k r step), R[q, k] = exp(-i lam_k (tau_0 + q B step)) and
    W[k, w] = coef_k Q[w, k], one (|S| x n)(n x B) product per block.  N
    samples thus cost (B/b + b + N/B) n complex exponentials instead of N n,
    and no array grows with N beyond one float per sample for the spacing
    check.  The amplitudes are read at tau_0 + j*step, so against the direct
    exp(-i lam_k tau_j) the phases differ by up to N*eps*max|lam|*max|tau|
    on a drifting grid, plus rounding of order eps*max|lam|*max|tau|, and
    the result by no more than that, as sum_k |coef_k Q[w, k]| <= 1.
    """
    sites = list(singlets)
    if not sites:
        raise ValueError("no singlet sites supplied")
    _check_sites(sys, u, v, *sites)
    if u == v:
        raise ValueError("pair must consist of two distinct sites")  # e_u - e_u is 0
    if u in sites or v in sites:
        raise ValueError(f"singlet sites must not include the pair ({u}, {v})")
    taus = np.asarray(tau_grid, dtype=float).ravel()
    if not taus.size:
        raise ValueError("tau grid is empty")
    _check_taus(sys, taus)
    tau0, last = float(taus[0]), float(taus[-1])
    step = (last - tau0) / (taus.size - 1) if taus.size > 1 else 0.0
    _check_taus(sys, _PHASE_BLOCK * step)  # the table's phases reach B*step
    # the grid as np.linspace builds it, j*step + tau_0, less the grid
    off = np.arange(taus.size, dtype=float)
    off *= step
    off += tau0
    off -= taus
    if np.abs(off, out=off).max() > taus.size * np.finfo(float).eps * max(abs(tau0), abs(last)):
        raise ValueError("tau grid must be evenly spaced: tau_j = tau_0 + j * step")
    neg_i_lam = -1j * sys.eigenvalues
    coef = (sys.eigenvectors[u - 1] - sys.eigenvectors[v - 1]) / np.sqrt(2.0)
    weights = sys.eigenvectors[[s - 1 for s in sites]] * coef  # W^T, |S| x n
    table = _phase_table(neg_i_lam, step)
    leak = 0.0
    for first in range(0, taus.size, _PHASE_BLOCK):
        rot = np.exp(neg_i_lam * (tau0 + first * step))
        amps = (weights * rot) @ table[:, : taus.size - first]
        leak = max(leak, float(np.abs(amps).max()))
    return leak
