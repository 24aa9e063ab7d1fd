import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from latsym import cli
from latsym.cli import (
    MAX_ENVELOPE_SAMPLES,
    MAX_EVOLVE_VALUES,
    MAX_SCAN_POINTS,
    analyze_intensities,
    main,
)
from latsym.ninesite import build_ninesite
from latsym.network import serialize_network


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "ninesite.json"
    path.write_text(serialize_network(build_ninesite()) + "\n")
    return str(path)


@pytest.fixture
def chain2_file(tmp_path):
    path = tmp_path / "chain2.json"
    path.write_text('{"n": 2, "onsite": ["0", "0"], "edges": [[1, 2, "1"]]}')
    return str(path)


def assert_g17(tokens):
    # every float is written as _g17 writes it: 17 significant digits
    assert all(cli._g17(float(t)) == t for t in tokens)


def test_cospectral_yes(net_file, capsys):
    assert main(["cospectral", net_file, "-u", "2", "-v", "6"]) == 0
    assert capsys.readouterr().out == "cospectral: yes\n"


def test_cospectral_no_gives_exit_one(net_file, capsys):
    assert main(["cospectral", net_file, "-u", "1", "-v", "5"]) == 1
    assert capsys.readouterr().out == "cospectral: no\n"


def test_latent_exact_output(net_file, capsys):
    assert main(["latent", net_file, "-u", "2", "-v", "6"]) == 0
    assert capsys.readouterr().out == "latent-symmetric: yes\n"
    assert main(["latent", net_file, "-u", "1", "-v", "5"]) == 1
    assert capsys.readouterr().out == "latent-symmetric: no\n"


def test_singlets(net_file, capsys):
    assert main(["singlets", net_file, "-u", "2", "-v", "6"]) == 0
    assert capsys.readouterr().out == "singlets: 4 8 9\n"


def test_singlets_on_non_cospectral_pair_errors(net_file, capsys):
    assert main(["singlets", net_file, "-u", "1", "-v", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_reduce(net_file, capsys):
    assert main(["reduce", net_file, "-u", "2", "-v", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("a_num: 729/1250*lam^4")
    assert lines[1] == "a_den: lam^5 - 729/500*lam^3 + 531441/1250000*lam"
    assert lines[2].startswith("b_num: 531441/3125000*lam^2")
    assert lines[3] == lines[1].replace("a_den", "b_den")


def test_cert(net_file, capsys):
    assert main(["cert", net_file, "-u", "2", "-v", "6"]) == 0
    out = capsys.readouterr().out
    assert "verdict: LITERAL_CONDITION_FAILED" in out
    assert "strongly_cospectral: yes" in out


def test_scan_boundary(capsys):
    assert main(
        ["scan-boundary", "-k", "1", "-emin", "12/5", "-emax", "121/50", "-step", "1/100"]
    ) == 0
    out = capsys.readouterr().out
    assert "boundary bracketed in E in [2.41, 2.42]" in out


def test_scan_boundary_accepts_negative_bounds(capsys):
    assert main(
        ["scan-boundary", "-k", "1", "-emin", "-43/100", "-emax", "-2/5", "-step", "1/100"]
    ) == 0
    assert "boundary bracketed" in capsys.readouterr().out


def test_scan_boundary_bad_step(capsys):
    assert main(["scan-boundary", "-k", "1", "-emin", "0", "-emax", "1", "-step", "0"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override", [["-k", "1/0"], ["-step", "1/0"], ["-emin", "0/0"]], ids=["k", "step", "emin"]
)
def test_scan_boundary_refuses_zero_denominators(override, capsys):
    argv = ["scan-boundary", "-k", "1", "-emin", "0", "-emax", "1", "-step", "1/10", *override]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: zero denominator")


def test_scan_boundary_refuses_couplings_beyond_the_float_range(capsys):
    # the root distance reads the parity factors in floats; their coefficients
    # grow like powers of k, and at k = 1e400 one overflowed with a traceback
    argv = ["scan-boundary", "-k", "1e400", "-emin", "0", "-emax", "1/10", "-step", "1/10"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a parity-factor coefficient exceeds the float range")


_OUT_OF_RANGE = "error: an entry of H is outside the normal float range 2.2e-308..1.8e308\n"
_PHASE_OVERFLOW = "error: tau must be finite, and so must max|lam| * |tau|\n"


@pytest.mark.parametrize(
    "coupling, argv, err",
    [
        ("1" + "0" * 400, ["envelope", "-u", "1", "-v", "2", "--tmax", "10", "--step", "0.1"],
         _OUT_OF_RANGE),
        ("1" + "0" * 400, ["evolve", "--from", "1", "--tmax", "10", "--step", "1"], _OUT_OF_RANGE),
        ("1" + "0" * 400, ["correlate", "-u", "1", "-v", "2", "--tau", "1"], _OUT_OF_RANGE),
        # once read as 0.0, it printed best: tau=0 F=0 against a true F of about 1e-200
        ("1/1" + "0" * 400,
         ["envelope", "-u", "1", "-v", "2", "--tmax", "1e300", "--step", "1e298"], _OUT_OF_RANGE),
        # lam^2 overflows in F''
        ("1" + "0" * 300, ["envelope", "-u", "1", "-v", "2", "--tmax", "10", "--step", "0.1"],
         "error: lam^2 * c must be finite\n"),
    ],
    ids=["envelope-1e400", "evolve-1e400", "correlate-1e400", "envelope-1e-400", "envelope-1e300"],
)
def test_numeric_subcommands_refuse_couplings_outside_the_float_range(
    tmp_path, capsys, coupling, argv, err
):
    net = tmp_path / "two.json"
    net.write_text(json.dumps({"n": 2, "onsite": ["0", "0"], "edges": [[1, 2, coupling]]}))
    out = tmp_path / "out.csv"
    assert main([argv[0], str(net), *argv[1:], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["correlate", "-u", "2", "-v", "6", "--tau", "1.7e308"],
        ["evolve", "--from", "2", "--tmax", "1.7e308", "--step", "1e307"],
    ],
    ids=["correlate", "evolve"],
)
def test_numeric_subcommands_refuse_overflowing_phases(net_file, tmp_path, capsys, argv):
    # lam*tau overflows: both once wrote NaN to the CSV and exited 0
    out = tmp_path / "out.csv"
    assert main([argv[0], net_file, *argv[1:], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _PHASE_OVERFLOW
    assert not out.exists()


def test_evolve_writes_probability_table(chain2_file, tmp_path, capsys):
    out = tmp_path / "probs.csv"
    code = main(
        ["evolve", chain2_file, "--from", "1", "--tmax", "1", "--step", "0.5", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,p1,p2"
    assert len(lines) == 4
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(1.0, abs=1e-12)
    # probabilities sum to one on every row
    for line in lines[1:]:
        assert_g17(line.split(","))
        vals = [float(x) for x in line.split(",")]
        assert sum(vals[1:]) == pytest.approx(1.0, abs=1e-10)


def test_one_sample_count_rule_for_cli_grids_and_envelope_scan(net_file, tmp_path, capsys):
    from latsym.walk import _sample_count, eigh, envelope_scan

    # the benchmark's evolve command and dynamics scan, and a ratio 5e-10 of a
    # step short of 10, which counts its 11th sample at tau = 1.0 > tau_max
    assert _sample_count(999.9, 0.1) == 10_000
    assert _sample_count(99_999 * 0.05, 0.05) == 10**5
    assert _sample_count(0.99999999995, 0.1) == 11
    assert _sample_count(1e300, 1e-300) == math.inf
    out = tmp_path / "probs.csv"
    argv = ["evolve", net_file, "--from", "2", "--tmax", "999.9", "--step", "0.1"]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == "wrote 10000 rows to " + str(out) + "\n"
    assert len(out.read_text().splitlines()) == 10_001
    sys_ = eigh(build_ninesite())
    assert envelope_scan(sys_, 2, 6, 99_999 * 0.05, 0.05).samples == 10**5
    report = envelope_scan(sys_, 2, 6, 0.99999999995, 0.1)
    assert report.samples == 11
    assert 0.99999999995 < report.envelope[-1][0] <= 0.99999999995 + 1e-9 * 0.1


def test_csv_rows_match_per_value_g17_formatting(tmp_path):
    # the one-% row format against the per-value _g17 loop it replaced
    values = [0.0, -0.0, 1.0, -1.5, 0.1, 1 / 3, 2.0**-1074, 5e-324, 1.7976931348623157e308,
              1e16, 123456789012345678.0, math.pi * 1e-300, float("inf"), float("-inf"),
              float("nan")]
    rows = [(float(i), *values[i:], *values[:i]) for i in range(len(values))]
    out = tmp_path / "rows.csv"
    cli._write_csv(str(out), ["a"] * len(rows[0]), ["%.17g"] * len(rows[0]), rows)
    expected = ",".join(["a"] * len(rows[0])) + "\n" + "".join(
        ",".join(cli._g17(x) for x in row) + "\n" for row in rows
    )
    assert out.read_text() == expected


def test_envelope_csv(chain2_file, tmp_path, capsys):
    out = tmp_path / "env.csv"
    code = main(
        ["envelope", chain2_file, "-u", "1", "-v", "2", "--tmax", "5", "--step", "0.01", "--out", str(out)]
    )
    assert code == 0
    assert "best: tau=" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,F,running_max"
    assert_g17(",".join(lines[1:]).split(","))
    running = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b >= a for a, b in zip(running, running[1:]))
    assert running[-1] == pytest.approx(1.0, abs=1e-9)


def test_envelope_output_is_byte_deterministic(chain2_file, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["envelope", chain2_file, "-u", "1", "-v", "2", "--tmax", "3", "--step", "0.01"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_correlate_csv(net_file, tmp_path, capsys):
    out = tmp_path / "corr.csv"
    code = main(
        ["correlate", net_file, "-u", "2", "-v", "6", "--tau", "8.017", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "i,j,value"
    assert len(lines) == 1 + 81
    values = {}
    for line in lines[1:]:
        i, j, val = line.split(",")
        assert_g17([val])
        values[(int(i), int(j))] = float(val)
    assert values[(2, 6)] == values[(6, 2)]
    assert values[(2, 2)] > 0.5


def test_correlate_halved_mode(net_file, tmp_path):
    raw = tmp_path / "raw.csv"
    halved = tmp_path / "halved.csv"
    base = ["correlate", net_file, "-u", "2", "-v", "6", "--tau", "3.0"]
    assert main(base + ["--out", str(raw)]) == 0
    assert main(base + ["--halved", "--out", str(halved)]) == 0

    def load(path):
        rows = path.read_text().splitlines()[1:]
        return {
            (int(i), int(j)): float(v)
            for i, j, v in (line.split(",") for line in rows)
        }

    r, h = load(raw), load(halved)
    assert h[(2, 6)] == pytest.approx(r[(2, 6)] / 2, rel=1e-15)
    assert h[(4, 4)] == r[(4, 4)]


def test_correlate_distinguishable(net_file, tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = main(
        ["correlate", net_file, "-u", "2", "-v", "6", "--tau", "8.017", "--stats", "dist", "--out", str(out)]
    )
    assert code == 0
    assert "statistics=distinguishable" in capsys.readouterr().out


def test_analyze_intensities():
    f_uv, f_vu = analyze_intensities([10.0, 12.0, 980.0], 10.0, 1, 3)
    assert f_uv == pytest.approx(970.0 / 972.0)
    assert f_vu == pytest.approx(0.0)
    with pytest.raises(ValueError, match="distinct"):
        analyze_intensities([10.0, 12.0, 980.0], 10.0, 2, 2)


def test_analyze_intensities_clamps_with_warning():
    with pytest.warns(UserWarning):
        f_uv, f_vu = analyze_intensities([8.0, 30.0], 10.0, 1, 2)
    assert 0.0 <= f_uv <= 1.0
    assert 0.0 <= f_vu <= 1.0


def test_analyze_intensities_rejects_pure_background():
    with pytest.raises(ValueError):
        analyze_intensities([5.0, 5.0], 5.0, 1, 2)


def test_intensities_command(tmp_path, capsys):
    csv = tmp_path / "meas.csv"
    csv.write_text("site,intensity\n1,10\n2,12\n3,980\n")
    assert main(["intensities", str(csv), "--bg", "10", "-u", "1", "-v", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("F_uv = 0.99794238683127")
    assert out.splitlines()[1] == "F_vu = 0"


def test_intensities_command_warns_on_clamp(tmp_path, capsys):
    csv = tmp_path / "meas.csv"
    csv.write_text("site,intensity\n1,8\n2,30\n")
    assert main(["intensities", str(csv), "--bg", "10", "-u", "1", "-v", "2"]) == 0
    captured = capsys.readouterr()
    assert "warning:" in captured.err


def test_intensities_command_bad_input(tmp_path, capsys):
    csv = tmp_path / "meas.csv"
    csv.write_text("wrong,header\n1,10\n")
    assert main(["intensities", str(csv), "--bg", "0", "-u", "1", "-v", "1"]) == 2
    csv.write_text("site,intensity\n1,10\n3,12\n")  # gap in site ids
    assert main(["intensities", str(csv), "--bg", "0", "-u", "1", "-v", "2"]) == 2
    csv.write_text("site,intensity\n1,10\n2,12\n")
    assert main(["intensities", str(csv), "--bg", "0", "-u", "2", "-v", "2"]) == 2


def test_missing_network_file_is_reported(capsys):
    assert main(["latent", "/nonexistent/net.json", "-u", "1", "-v", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_argument_exits_two(net_file):
    with pytest.raises(SystemExit) as exc:
        main(["cospectral", net_file, "-u", "2"])
    assert exc.value.code == 2


def test_scan_boundary_counts_grid_points_exactly(capsys):
    # (1/4 - 0) / (1/10) = 2.5: the grid is 0, 1/10, 1/5
    assert main(["scan-boundary", "-k", "1", "-emin", "0", "-emax", "1/4", "-step", "1/10"]) == 0
    assert "grid points: 3\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "emax, step",
    [("1", "1e-300"), (str(MAX_SCAN_POINTS), "1")],  # 10^300 + 1 and MAX_SCAN_POINTS + 1 points
)
def test_scan_boundary_refuses_oversized_grid(emax, step, capsys):
    t0 = time.perf_counter()
    code = main(["scan-boundary", "-k", "27/50", "-emin", "0", "-emax", emax, "-step", step])
    assert code == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"limit of {MAX_SCAN_POINTS}" in captured.err


@pytest.mark.parametrize(
    "tmax, step", [("1", "0"), ("1", "-0.1"), ("-1", "0.1"), ("nan", "0.1"), ("1", "inf")]
)
def test_evolve_refuses_invalid_grid(chain2_file, tmp_path, capsys, tmax, step):
    out = tmp_path / "probs.csv"
    code = main(
        ["evolve", chain2_file, "--from", "1", "--tmax", tmax, "--step", step, "--out", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need step > 0 and tmax >= 0" in captured.err
    assert not out.exists()


def _no_eigh(net):
    raise AssertionError("evolve diagonalized H for a grid it should refuse")


@pytest.mark.parametrize(
    "tmax, step",
    [("1e12", "1"), ("1", "1e-300"), ("1e300", "1e-300"), ("inf", "1")],
)
def test_evolve_refuses_oversized_grid_before_any_work(
    net_file, tmp_path, capsys, monkeypatch, tmax, step
):
    monkeypatch.setattr("latsym.walk.eigh", _no_eigh)
    out = tmp_path / "probs.csv"
    code = main(
        ["evolve", net_file, "--from", "2", "--tmax", tmax, "--step", step, "--out", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"more than the limit of {MAX_EVOLVE_VALUES} values" in captured.err
    assert not out.exists()


def test_evolve_cap_counts_rows_times_sites(chain2_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_EVOLVE_VALUES", 6)
    out = str(tmp_path / "probs.csv")
    argv = ["evolve", chain2_file, "--from", "1", "--step", "0.5", "--out", out]
    # 3 rows x 2 sites is at the cap, 4 rows x 2 sites is over it
    assert main(argv + ["--tmax", "1"]) == 0
    assert capsys.readouterr().out == f"wrote 3 rows to {out}\n"
    assert main(argv + ["--tmax", "1.5"]) == 2
    assert "grid has 4 rows of 2 sites, more than the limit of 6 values" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_evolve_rows_across_a_block_edge(net_file, tmp_path, capsys, extra):
    import numpy as np

    from latsym.walk import eigh, evolve

    rows = cli._EVOLVE_BLOCK_ROWS + extra
    out = tmp_path / "probs.csv"
    argv = ["evolve", net_file, "--from", "2", "--tmax", repr((rows - 1) * 0.5), "--step", "0.5"]
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {rows} rows to {out}\n"
    lines = out.read_text().splitlines()
    assert lines[0] == "tau," + ",".join(f"p{i}" for i in range(1, 10))
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    taus = np.arange(rows) * 0.5
    assert table.shape == (rows, 10)
    assert np.array_equal(table[:, 0], taus)
    # against one evolve per row; both round the phases by eps * max|lam| * tau
    sys_ = eigh(build_ninesite())
    ref = np.array([np.abs(evolve(sys_, t, np.eye(9)[1])) ** 2 for t in taus])
    lam_max = np.abs(sys_.eigenvalues).max()
    bound = 64 * np.finfo(float).eps * (1 + taus * lam_max)
    assert (np.abs(table[:, 1:] - ref).max(axis=1) <= bound).all()


def test_evolve_memory_does_not_grow_with_the_grid(net_file, tmp_path, capsys):
    # numpy and the walk module are imported before tracing starts, as the
    # handler's imports are by then in any process that ran it before
    import tracemalloc

    import numpy  # noqa: F401
    import latsym.walk  # noqa: F401

    rows = 8 * cli._EVOLVE_BLOCK_ROWS
    out = str(tmp_path / "probs.csv")
    argv = ["evolve", net_file, "--from", "2", "--tmax", repr((rows - 1) * 0.5), "--step", "0.5"]
    tracemalloc.start()
    try:
        assert main(argv + ["--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == f"wrote {rows} rows to {out}\n"
    # holding the whole grid at once took about 300 bytes per row, 10 MB here
    assert peak < 4e6


def _no_envelope_eigh(net):
    raise AssertionError("envelope diagonalized H for a grid it should refuse")


@pytest.mark.parametrize(
    "tmax, step",
    [
        ("1", "0"),
        ("1", "-0.1"),
        ("0", "0.1"),
        ("-1", "0.1"),
        ("nan", "0.1"),
        ("1", "nan"),
        ("1", "inf"),
    ],
)
def test_envelope_refuses_invalid_grid(net_file, tmp_path, capsys, monkeypatch, tmax, step):
    monkeypatch.setattr("latsym.walk.eigh", _no_envelope_eigh)
    out = tmp_path / "env.csv"
    code = main(
        ["envelope", net_file, "-u", "2", "-v", "6", "--tmax", tmax, "--step", step, "--out", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need step > 0 and tmax > 0\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "tmax, step, count",
    [
        ("1e12", "0.01", "100000000000001"),
        ("1e300", "1e-300", "inf"),
        ("inf", "1", "inf"),
        ("1e8", "1", str(MAX_ENVELOPE_SAMPLES + 1)),
    ],
)
def test_envelope_refuses_oversized_grid_before_any_work(
    net_file, tmp_path, capsys, monkeypatch, tmax, step, count
):
    monkeypatch.setattr("latsym.walk.eigh", _no_envelope_eigh)
    out = tmp_path / "env.csv"
    t0 = time.perf_counter()
    code = main(
        ["envelope", net_file, "-u", "2", "-v", "6", "--tmax", tmax, "--step", step, "--out", str(out)]
    )
    assert code == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: grid has {count} samples, more than the limit of {MAX_ENVELOPE_SAMPLES}\n"
    )
    assert not out.exists()


def test_envelope_cap_counts_samples(chain2_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_ENVELOPE_SAMPLES", 3)
    out = str(tmp_path / "env.csv")
    argv = ["envelope", chain2_file, "-u", "1", "-v", "2", "--step", "0.5", "--out", out]
    # samples at 0, 0.5, 1 are at the cap; adding 1.5 is over it
    assert main(argv + ["--tmax", "1"]) == 0
    assert capsys.readouterr().out.startswith("best: tau=")
    assert main(argv + ["--tmax", "1.5"]) == 2
    assert capsys.readouterr().err == "error: grid has 4 samples, more than the limit of 3\n"


@pytest.mark.parametrize(
    "rows, bg",
    [("1,nan\n2,1\n3,2\n", "0"), ("1,1\n2,inf\n3,2\n", "0"), ("1,3\n2,1\n3,2\n", "nan"),
     ("1,3\n2,1\n3,2\n", "-inf")],
    ids=["nan-intensity", "inf-intensity", "nan-bg", "-inf-bg"],
)
def test_intensities_refuses_non_finite_values(tmp_path, capsys, rows, bg):
    csv = tmp_path / "meas.csv"
    csv.write_text("site,intensity\n" + rows)
    assert main(["intensities", str(csv), f"--bg={bg}", "-u", "1", "-v", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "finite" in captured.err


def test_analyze_intensities_rejects_non_finite_values():
    for values, background in (([1.0, float("nan")], 0.0), ([1.0, 2.0], float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            analyze_intensities(values, background, 1, 2)


@pytest.mark.parametrize(
    "extra", [["--tau", "nan"], ["--tau", "inf"], ["--tau=-inf"], ["--tau", "1", "--phase", "nan"]]
)
def test_correlate_refuses_non_finite_tau_or_phase_before_eigh(
    net_file, tmp_path, capsys, monkeypatch, extra
):
    monkeypatch.setattr("latsym.walk.eigh", _no_envelope_eigh)
    out = tmp_path / "corr.csv"
    assert main(["correlate", net_file, "-u", "2", "-v", "6", *extra, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need finite --tau and --phase\n"
    assert not out.exists()


# Runs in src/ with sympy made unimportable, the argv of perfbench's stored
# `latsym cert` reference included.
SYMPY_BLOCKED = """
import contextlib, io, json, sys
sys.modules["sympy"] = None  # every `import sympy` now raises ImportError
try:
    import sympy
    blocked = False
except ImportError:
    blocked = True
from latsym import cli, pgst_certificate
from latsym.ninesite import build_ninesite
ref = json.load(open("../perfbench/cli_reference.json"))["cert"]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(ref["argv"])
print(json.dumps({
    "blocked": blocked, "ref": ref, "exit": code, "stdout": out.getvalue(),
    "report": pgst_certificate(build_ninesite(), 2, 6).report_text() + "\\n",
}))
"""


def test_cert_runs_without_sympy():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", SYMPY_BLOCKED], cwd=src, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["blocked"]
    assert got["exit"] == got["ref"]["exit"] == 0
    assert got["stdout"] == got["report"] == got["ref"]["stdout"]


# Runs in src/ with numpy made unimportable: the exact subcommands, perfbench's
# stored `latsym latent` and `latsym cert` references among them, and --help.
NUMPY_BLOCKED = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # every `import numpy` now raises ImportError
from latsym import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    runs.append({"exit": code, "stdout": out.getvalue()})
print(json.dumps(runs))
"""


def test_exact_subcommands_run_without_numpy(net_file, tmp_path, capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    refs = json.loads((src.parent / "perfbench" / "cli_reference.json").read_text())
    csv = tmp_path / "meas.csv"
    csv.write_text("site,intensity\n1,10\n2,12\n3,980\n")
    pair = ["-u", "2", "-v", "6"]
    argvs = [
        ["cospectral", net_file, *pair],
        ["cospectral", net_file, "-u", "1", "-v", "5"],
        ["singlets", net_file, *pair],
        ["reduce", net_file, *pair],
        ["intensities", str(csv), "--bg", "10", "-u", "1", "-v", "3"],
        ["--help"],
    ]
    expected = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        expected.append({"exit": code, "stdout": capsys.readouterr().out})
    for kind in ("latent", "cert"):
        argvs.append(refs[kind]["argv"])
        expected.append({"exit": refs[kind]["exit"], "stdout": refs[kind]["stdout"]})
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED, json.dumps(argvs)],
        cwd=src, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == expected
    assert [run["exit"] for run in expected] == [0, 1, 0, 0, 0, 0, 0, 0]


LAZY_NUMERIC_NAMES = """
import json, sys
import latsym
after_import = "numpy" in sys.modules
missing_from_dir = sorted(set(latsym.__all__) - set(dir(latsym)))
eigh = latsym.eigh
after_eigh = "numpy" in sys.modules
namespace = {}
exec("from latsym import *", namespace)
print(json.dumps({
    "after_import": after_import,
    "after_eigh": after_eigh,
    "eigh_is_walk_eigh": eigh is sys.modules["latsym.walk"].eigh,
    "unbound": [name for name in latsym.__all__ if name not in namespace],
    "missing_from_dir": missing_from_dir,
}))
"""


def test_numeric_names_load_numpy_on_first_access():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_NUMERIC_NAMES],
        cwd=src, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "after_import": False,
        "after_eigh": True,
        "eigh_is_walk_eigh": True,
        "unbound": [],
        "missing_from_dir": [],
    }
