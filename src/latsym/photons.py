"""Few-photon transfer statistics through a mode unitary.

Occupation lists give photon counts per mode (1-based mode ids).  A transition
r -> s is scored by the permanent of the scattering submatrix M with
M[j, k] = amplitude from input mode d_j(r) to output mode d_k(s), where d(q)
repeats each mode id once per photon.  Unitaries follow the column-action
convention psi_out = U psi_in.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

BOSONIC = "bosonic"
DISTINGUISHABLE = "distinguishable"

_STATS_ALIASES = {
    "boson": BOSONIC,
    "bosonic": BOSONIC,
    "dist": DISTINGUISHABLE,
    "distinguishable": DISTINGUISHABLE,
}


def _canon_stats(statistics: str) -> str:
    try:
        return _STATS_ALIASES[statistics]
    except KeyError:
        raise ValueError(f"unknown statistics {statistics!r}") from None


def assignment_list(occupations: Sequence[int]) -> tuple[int, ...]:
    """Mode j repeated q_j times, ascending; e.g. (2, 0, 1) -> (1, 1, 3)."""
    out = []
    for mode, count in enumerate(occupations, start=1):
        if count < 0 or count != int(count):
            raise ValueError("occupations must be non-negative integers")
        out.extend([mode] * int(count))
    return tuple(out)


def permanent(m: np.ndarray) -> complex:
    """Permanent by the Ryser formula with Gray-code subset updates."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("permanent needs a square matrix")
    n = m.shape[0]
    if n == 0:
        return complex(1.0)
    if n > 20:
        raise ValueError("permanent limited to 20x20")
    total = 0.0 + 0.0j
    row_sum = np.zeros(n, dtype=complex)
    gray = 0
    bits = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        changed = new_gray ^ gray
        col = changed.bit_length() - 1
        if new_gray & changed:
            row_sum += m[:, col]
            bits += 1
        else:
            row_sum -= m[:, col]
            bits -= 1
        gray = new_gray
        term = np.prod(row_sum)
        total += term if (bits % 2 == 0) else -term
    return complex(total if n % 2 == 0 else -total)


def _scattering_submatrix(r, s, u: np.ndarray) -> np.ndarray:
    dr = assignment_list(r)
    ds = assignment_list(s)
    t = u.T  # t[input, output]
    return t[np.ix_([d - 1 for d in dr], [d - 1 for d in ds])]


def transition_probability(
    r: Sequence[int], s: Sequence[int], u: np.ndarray, statistics: str = BOSONIC
) -> float:
    """P(r -> s) through unitary u, for the chosen particle statistics."""
    stats = _canon_stats(statistics)
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    if u.shape != (n, n) or len(r) != n or len(s) != n:
        raise ValueError("occupation lists and unitary must share one mode count")
    if sum(r) != sum(s) or sum(r) < 1:
        raise ValueError("photon numbers must match and be at least 1")
    m = _scattering_submatrix(r, s, u)
    s_fact = math.prod(math.factorial(x) for x in s)
    if stats == BOSONIC:
        r_fact = math.prod(math.factorial(x) for x in r)
        return float(abs(permanent(m)) ** 2 / (r_fact * s_fact))
    return float(permanent(np.abs(m) ** 2).real / s_fact)


def beam_splitter_unitary() -> np.ndarray:
    """Balanced beam splitter, (1/sqrt 2) [[1, i], [i, 1]]."""
    return np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)


def _check_unitary(u: np.ndarray, tol: float) -> None:
    n = u.shape[0]
    if u.shape != (n, n):
        raise ValueError("unitary must be square")
    if not np.abs(u.conj().T @ u - np.eye(n)).max() <= tol:  # NaN fails too
        raise ValueError("matrix is not unitary within tolerance")


def total_unitary(
    net_u: np.ndarray,
    bs_sites: tuple[int, int],
    phase_site: int,
    phase: float = np.pi / 2,
) -> np.ndarray:
    """net_u composed after a phase on one site and a beam splitter on a site pair.

    U_tot = U_net . U_phase . U_bs, with the balanced beam splitter embedded on
    bs_sites and the phase factor e^{i phase} on phase_site.
    """
    net_u = np.asarray(net_u, dtype=complex)
    _check_unitary(net_u, 1e-9)
    n = net_u.shape[0]
    u, v = bs_sites
    for site in (u, v, phase_site):
        if not 1 <= site <= n:
            raise ValueError(f"site {site} out of range 1..{n}")
    if u == v:
        raise ValueError("beam splitter needs two distinct sites")
    if not np.isfinite(phase):
        raise ValueError("phase must be finite")
    bs = np.eye(n, dtype=complex)
    block = beam_splitter_unitary()
    bs[u - 1, u - 1] = block[0, 0]
    bs[u - 1, v - 1] = block[0, 1]
    bs[v - 1, u - 1] = block[1, 0]
    bs[v - 1, v - 1] = block[1, 1]
    ph = np.eye(n, dtype=complex)
    ph[phase_site - 1, phase_site - 1] = np.exp(1j * phase)
    return net_u @ ph @ bs


@dataclass
class CorrelationMatrix:
    values: np.ndarray  # n x n, symmetric, non-negative
    statistics: str
    comparison_mode: str  # "raw" or "halved"
    tau: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "statistics": self.statistics,
            "comparison_mode": self.comparison_mode,
            "tau": self.tau,
            "values": [[float(x) for x in row] for row in self.values],
        }


def correlation_matrix(
    net_u: np.ndarray,
    bs_sites: tuple[int, int],
    phase: float = np.pi / 2,
    statistics: str = BOSONIC,
    comparison_mode: str = "raw",
    tau: Optional[float] = None,
) -> CorrelationMatrix:
    """Two-photon correlation matrix for one photon in each of bs_sites.

    The physical preparation chain is applied in order: beam splitter on the
    pair, phase on the second site of the pair, then net_u.  Entries are the
    raw permanent scores (no factorial prefactors), in closed form with
    A_ij = U_iu U_jv: |A_ij + A_ji|^2 for bosons and |A_ij|^2 + |A_ji|^2 for
    distinguishable photons.  "halved" comparison mode divides the
    off-diagonal entries by two.
    """
    stats = _canon_stats(statistics)
    if comparison_mode not in ("raw", "halved"):
        raise ValueError(f"unknown comparison mode {comparison_mode!r}")
    u_site, v_site = bs_sites
    u_tot = total_unitary(net_u, bs_sites, phase_site=v_site, phase=phase)
    n = u_tot.shape[0]
    a = np.outer(u_tot[:, u_site - 1], u_tot[:, v_site - 1])
    if stats == BOSONIC:
        values = np.abs(a + a.T) ** 2
    else:
        values = np.abs(a) ** 2 + np.abs(a.T) ** 2
    if comparison_mode == "halved":
        off = ~np.eye(n, dtype=bool)
        values[off] *= 0.5
    return CorrelationMatrix(
        values=values, statistics=stats, comparison_mode=comparison_mode, tau=tau
    )
