"""Command-line front end.

Exit codes: 0 on success (and on yes answers), 1 on no answers from yes/no
tests, 2 on input or usage errors.

numpy and the numeric layers (`walk`, `photons`) are imported inside the
handlers that use them, so the exact subcommands start without loading numpy.
"""

import argparse
import csv
import math
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .network import NetworkError, parse_network
from .ninesite import build_ninesite
from .pgst import PGSTError, boundary_scan, pgst_certificate
from .spectral import (
    SpectralError,
    is_cospectral,
    is_latent_symmetric,
    isospectral_reduction,
    singlet_sites,
)


# Largest grid `scan-boundary` accepts.  Each point walks a new network (the
# pair's closed-walk counts and one walk of 2n - 1 steps from v), then runs two
# Berlekamp-Massey passes and one resultant; the roots of all points' parity
# factors then come from one stacked eigvals call per companion size.  About
# 0.23 ms a point on the nine-site network (one core of a shared 2-core Linux
# container, Python 3.11), some 2.3 s at the cap.  A larger grid is refused
# before any work rather than left running.
MAX_SCAN_POINTS = 10_000

# Largest `evolve` grid, in rows times sites.  Rows are computed and written
# in blocks, so memory does not grow with the grid; the cap bounds the CSV
# (about 20 bytes per value, some 0.2 GB at the cap) and the run time, and a
# larger grid is refused before any work.
MAX_EVOLVE_VALUES = 10_000_000

# Rows per block that `evolve` computes and writes at a time.
_EVOLVE_BLOCK_ROWS = 4096

# Largest `envelope` grid, in samples.  On the nine-site network the command takes
# about 1.2 s for this many samples from a fresh process, 0.9 s without start-up
# (2-core Xeon); a larger grid is refused before eigh runs.
MAX_ENVELOPE_SAMPLES = 10**8


def _g17(x: float) -> str:
    # 17 significant digits: doubles round-trip losslessly
    return format(float(x), ".17g")


def _write_csv(
    path: str, columns: Sequence[str], formats: Sequence[str], rows: Iterable[tuple]
) -> None:
    """A header of column names, then each row formatted by one `%` operation.

    "%.17g" writes a float exactly as _g17 does.
    """
    line = ",".join(formats) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(line % row for row in rows)


def _load_network(path: str):
    return parse_network(Path(path).read_text())


def analyze_intensities(
    intensities: Sequence[float], background: float, u: int, v: int
) -> tuple[float, float]:
    """Background-subtracted transfer fidelities from per-site intensities.

    F_uv = (I_v - bg) / sum_i (I_i - bg) and symmetrically for F_vu, both
    clamped to [0, 1] with a warning when measurement noise forces clamping.
    """
    n = len(intensities)
    if not all(map(math.isfinite, [*intensities, background])):
        raise ValueError("intensities and background must be finite")
    for site in (u, v):
        if not 1 <= site <= n:
            raise ValueError(f"site {site} out of range 1..{n}")
    if u == v:
        raise ValueError("pair must consist of two distinct sites")
    total = sum(x - background for x in intensities)
    if total <= 0:
        raise ValueError("all intensities at or below background")
    f_uv = (intensities[v - 1] - background) / total
    f_vu = (intensities[u - 1] - background) / total
    clamped = [x for x in (f_uv, f_vu) if x < 0 or x > 1]
    if clamped:
        warnings.warn(
            "fidelity outside [0, 1] clamped (intensity below background?)",
            stacklevel=2,
        )
    clip = lambda x: min(max(x, 0.0), 1.0)
    return clip(f_uv), clip(f_vu)


def _yes_no(label: str, test):
    """A subcommand that prints `label: yes|no` for test(net, u, v); exit 1 on no."""

    def run(args) -> int:
        ok = test(_load_network(args.network), args.u, args.v)
        print(f"{label}: {'yes' if ok else 'no'}")
        return 0 if ok else 1

    return run


def _cmd_singlets(args) -> int:
    net = _load_network(args.network)
    sites = sorted(singlet_sites(net, args.u, args.v))
    print("singlets: " + (" ".join(map(str, sites)) if sites else "none"))
    return 0


def _cmd_reduce(args) -> int:
    net = _load_network(args.network)
    red = isospectral_reduction(net, args.u, args.v)
    print(f"a_num: {red.a.num}")
    print(f"a_den: {red.a.den}")
    print(f"b_num: {red.b.num}")
    print(f"b_den: {red.b.den}")
    return 0


def _cmd_cert(args) -> int:
    net = _load_network(args.network)
    print(pgst_certificate(net, args.u, args.v).report_text())
    return 0


def _cmd_scan_boundary(args) -> int:
    try:
        k, emin, emax, step = (Fraction(x) for x in (args.k, args.emin, args.emax, args.step))
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {exc}") from None
    if step <= 0 or emax < emin:
        raise ValueError("need step > 0 and emax >= emin")
    count = math.floor((emax - emin) / step) + 1
    if count > MAX_SCAN_POINTS:
        raise ValueError(f"grid has {count} points, more than the limit of {MAX_SCAN_POINTS}")
    grid = [emin + i * step for i in range(count)]
    report = boundary_scan(build_ninesite, k, grid)
    print(report.report_text())
    return 0


def _cmd_evolve(args) -> int:
    import numpy as np

    from .walk import _check_taus, _sample_count, eigh

    if not (0 < args.step < math.inf and args.tmax >= 0):
        raise ValueError("need step > 0 and tmax >= 0")
    net = _load_network(args.network)
    net.check_vertex(args.from_site)
    n_rows = _sample_count(args.tmax, args.step)
    if n_rows * net.n > MAX_EVOLVE_VALUES:
        raise ValueError(
            f"grid has {n_rows} rows of {net.n} sites, more than the limit of "
            f"{MAX_EVOLVE_VALUES} values"
        )
    sys_ = eigh(net)
    _check_taus(sys_, (n_rows - 1) * args.step)
    coef = sys_.eigenvectors[args.from_site - 1]

    def rows():
        for start in range(0, n_rows, _EVOLVE_BLOCK_ROWS):
            taus = np.arange(start, min(start + _EVOLVE_BLOCK_ROWS, n_rows)) * args.step
            amps = (np.exp(-1j * np.outer(taus, sys_.eigenvalues)) * coef) @ sys_.eigenvectors.T
            probs = np.abs(amps) ** 2
            yield from ((t, *row) for t, row in zip(taus.tolist(), probs.tolist()))

    _write_csv(
        args.out,
        ["tau", *(f"p{i}" for i in range(1, net.n + 1))],
        ["%.17g"] * (net.n + 1),
        rows(),
    )
    print(f"wrote {n_rows} rows to {args.out}")
    return 0


def _cmd_envelope(args) -> int:
    from .walk import _sample_count, eigh, envelope_scan

    if not (0 < args.step < math.inf and args.tmax > 0):
        raise ValueError("need step > 0 and tmax > 0")
    net = _load_network(args.network)
    net.check_pair(args.u, args.v)
    n_samples = _sample_count(args.tmax, args.step)
    if n_samples > MAX_ENVELOPE_SAMPLES:
        raise ValueError(
            f"grid has {n_samples} samples, more than the limit of {MAX_ENVELOPE_SAMPLES}"
        )
    sys_ = eigh(net)
    report = envelope_scan(sys_, args.u, args.v, args.tmax, args.step)
    _write_csv(args.out, ["tau", "F", "running_max"], ["%.17g"] * 3, report.envelope)
    best_t, best_f = report.best
    print(f"best: tau={_g17(best_t)} F={_g17(best_f)}")
    return 0


def _cmd_correlate(args) -> int:
    from .photons import correlation_matrix
    from .walk import eigh, evolution_operator

    if not (math.isfinite(args.tau) and math.isfinite(args.phase)):
        raise ValueError("need finite --tau and --phase")
    net = _load_network(args.network)
    net.check_pair(args.u, args.v)
    sys_ = eigh(net)
    u_net = evolution_operator(sys_, args.tau)
    corr = correlation_matrix(
        u_net,
        (args.u, args.v),
        phase=args.phase,
        statistics=args.stats,
        comparison_mode="halved" if args.halved else "raw",
        tau=args.tau,
    )
    vals = corr.values
    _write_csv(
        args.out,
        ["i", "j", "value"],
        ["%d", "%d", "%.17g"],
        ((i, j, x) for i, row in enumerate(vals.tolist(), 1) for j, x in enumerate(row, 1)),
    )
    print(
        f"statistics={corr.statistics} mode={corr.comparison_mode} "
        f"max={_g17(vals.max())} at tau={_g17(args.tau)}"
    )
    return 0


def _read_intensity_csv(path: str) -> list[float]:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows or [c.strip() for c in rows[0]] != ["site", "intensity"]:
        raise ValueError("intensity CSV must start with header 'site,intensity'")
    by_site = {}
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"bad intensity row {row!r}")
        site = int(row[0])
        if site in by_site:
            raise ValueError(f"duplicate site {site}")
        by_site[site] = float(row[1])
        if not math.isfinite(by_site[site]):
            raise ValueError(f"intensity of site {site} is not finite")
    n = len(by_site)
    if set(by_site) != set(range(1, n + 1)):
        raise ValueError("sites must be 1..n with no gaps")
    return [by_site[i] for i in range(1, n + 1)]


def _cmd_intensities(args) -> int:
    intensities = _read_intensity_csv(args.csv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        f_uv, f_vu = analyze_intensities(intensities, args.bg, args.u, args.v)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    print(f"F_uv = {_g17(f_uv)}")
    print(f"F_vu = {_g17(f_vu)}")
    return 0


def _add_pair_args(p) -> None:
    p.add_argument("-u", type=int, required=True, help="first site id")
    p.add_argument("-v", type=int, required=True, help="second site id")


# Subcommands that take NETWORK -u U -v V and nothing else: (name, help, handler).
_PAIR_COMMANDS = (
    ("cospectral", "are two sites cospectral?", _yes_no("cospectral", is_cospectral)),
    (
        "latent",
        "cospectral without a swap automorphism?",
        _yes_no("latent-symmetric", is_latent_symmetric),
    ),
    ("singlets", "sites walk-equivalent w.r.t. the pair", _cmd_singlets),
    ("reduce", "isospectral reduction onto the pair", _cmd_reduce),
    ("cert", "state-transfer certificate for the pair", _cmd_cert),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latsym",
        description="Latent-symmetry detection, state-transfer certification, "
        "quantum-walk dynamics and two-photon statistics on weighted networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_, func in _PAIR_COMMANDS:
        p = sub.add_parser(name, help=help_)
        p.add_argument("network")
        _add_pair_args(p)
        p.set_defaults(func=func)

    p = sub.add_parser(
        "scan-boundary",
        help="scan the shared on-site potential of the nine-site network "
        f"for strong-cospectrality failures (at most {MAX_SCAN_POINTS} grid points)",
    )
    # let negative rationals like -43/100 pass as option values
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    p.add_argument("-k", required=True, help="uniform coupling, rational")
    p.add_argument("-emin", required=True, help="grid start, rational")
    p.add_argument("-emax", required=True, help="grid end, rational")
    p.add_argument("-step", required=True, help="grid step, rational")
    p.set_defaults(func=_cmd_scan_boundary)

    p = sub.add_parser(
        "evolve", help=f"per-site probabilities over time (at most {MAX_EVOLVE_VALUES} values)"
    )
    p.add_argument("network")
    p.add_argument("--from", dest="from_site", metavar="SITE", type=int, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser(
        "envelope",
        help=f"running-max transfer-fidelity envelope (at most {MAX_ENVELOPE_SAMPLES} samples)",
    )
    p.add_argument("network")
    _add_pair_args(p)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_envelope)

    p = sub.add_parser("correlate", help="two-photon correlation matrix")
    p.add_argument("network")
    _add_pair_args(p)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--phase", type=float, default=math.pi / 2)
    p.add_argument("--stats", choices=("boson", "dist"), default="boson")
    p.add_argument("--halved", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("intensities", help="fidelities from measured intensities")
    p.add_argument("csv")
    p.add_argument("--bg", type=float, required=True)
    _add_pair_args(p)
    p.set_defaults(func=_cmd_intensities)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NetworkError, SpectralError, PGSTError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
