import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heatkern import TravelingWaveSpec, make_kernel, profile, traveling_wave
from heatkern import kernel as kn
from heatkern.coefficients import on_arrays
from heatkern.cli import main, _parse_grid, _phi_from_args, ConfigError


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def test_parse_grid():
    grid = _parse_grid("-3:3:7")
    assert grid[0] == -3.0 and grid[-1] == 3.0 and len(grid) == 7
    assert _parse_grid("0.5:0.5:1").tolist() == [0.5]
    for bad in ("1:2", "a:b:c", "3:1:5", "0:1:1", "1:1:2", "0:0:0",
                "nan:1:3", "0:inf:3", "nan:nan:1"):
        with pytest.raises(ConfigError):
            _parse_grid(bad)


@pytest.mark.parametrize("command, flags, column", [
    ("kernel", ["--profile", "fokker-planck"], "K"),
    ("solve", ["--profile", "ou-drift", "--param", "k=1"], "u"),
    ("burgers", ["--profile", "constant-heat"], "v"),
])
def test_single_point_grid(tmp_path, command, flags, column):
    # x:x:1 gives the value the same x has inside a wider grid
    one, three = tmp_path / "one.csv", tmp_path / "three.csv"
    args = [command, *flags, "--t", "0.5"]
    assert main(args + ["--grid=0.25:0.25:1", "--out", str(one)]) == 0
    assert main(args + ["--grid=-0.5:1:3", "--out", str(three)]) == 0
    header, rows1 = _read_csv(one)
    _, rows3 = _read_csv(three)
    k = header.index(column)
    assert len(rows1) == 1
    middle = [row for row in rows3 if row[header.index("x")] == 0.25
              and ("y" not in header or row[header.index("y")] == 0.25)]
    assert rows1[0, k] == pytest.approx(middle[0][k], rel=1e-12)


def test_kernel_command(tmp_path):
    out = tmp_path / "kernel.csv"
    rc = main(["kernel", "--profile", "fokker-planck", "--t", "1",
               "--grid=-1:1:3", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["x", "y", "t", "K"]
    assert rows.shape == (9, 4)
    center = rows[(rows[:, 0] == 0.0) & (rows[:, 1] == 0.0)][0, 3]
    want = 1.0 / math.sqrt(2.0 * math.pi * (1.0 - math.exp(-2.0)))
    assert center == pytest.approx(want, rel=1e-9)


def test_kernel_command_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["kernel", "--profile", "ou-drift", "--param", "k=1", "--param",
            "g=0.5", "--t", "0.5", "--grid=-2:2:9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # the one grid evaluation equals point-by-point evaluation to the bit
    K = make_kernel(profile("ou-drift", T=2.5, k=1.0, g=0.5), tol=1e-10)
    _, rows = _read_csv(out1)
    assert [K.evaluate(x, y, t) for x, y, t, _ in rows] == rows[:, 3].tolist()


def test_solve_command_matches_analytic(tmp_path):
    out = tmp_path / "solve.csv"
    rc = main(["solve", "--profile", "constant-heat", "--param", "a=1",
               "--phi", "gaussian", "--t", "0.25", "--grid=-1:1:5",
               "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["t", "x", "u"]
    for _, x, u in rows:
        want = math.exp(-x * x / 2.0) / math.sqrt(2.0)
        assert u == pytest.approx(want, rel=1e-6)


def test_riccati_command(tmp_path):
    out = tmp_path / "riccati.csv"
    rc = main(["riccati", "--profile", "fokker-planck", "--points", "5",
               "--tmax", "1.5", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["t", "alpha0", "beta0", "gamma0", "delta0", "eps0",
                      "kappa0"]
    assert rows.shape == (5, 7)


def test_riccati_command_stops_at_last_valid_time(tmp_path):
    # a = 1, b = -4: mu0 = sin(4t)/2 vanishes at pi/4 < --tmax
    config = tmp_path / "osc.json"
    config.write_text(json.dumps({"coefficients": {
        "profile": "custom", "poly": {"a": [1.0], "b": [-4.0]}, "T": 2.0}}))
    out = tmp_path / "riccati.csv"
    rc = main(["riccati", "--config", str(config), "--points", "7",
               "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out)
    assert rows.shape == (7, 7) and np.all(np.isfinite(rows))
    assert rows[-1, 0] == pytest.approx(math.pi / 4.0 * (1.0 - 1e-6), rel=1e-9)
    # a --tmin past the zero is a numerical failure, not a bad command line
    assert main(["riccati", "--config", str(config), "--tmin", "1.0",
                 "--tmax", "1.5", "--out", str(tmp_path / "late.csv")]) == 3
    single = tmp_path / "single.csv"
    assert main(["riccati", "--config", str(config), "--tmin", "0.5",
                 "--tmax", "0.5", "--points", "1", "--out", str(single)]) == 0
    _, rows = _read_csv(single)
    assert rows.shape == (1, 7) and rows[0, 0] == 0.5


def test_kernel_past_a_zero_of_a_exit_code(tmp_path, capsys):
    config = tmp_path / "backward.json"
    config.write_text(json.dumps({"coefficients": {
        "profile": "custom", "poly": {"a": [1.0, -1.0]}, "T": 2.0}}))
    out = tmp_path / "k.csv"
    rc = main(["kernel", "--config", str(config), "--t", "1.5",
               "--grid=-1:1:3", "--out", str(out)])
    assert rc == 3
    assert "a(t) changes sign at t = 1 " in capsys.readouterr().err
    assert not out.exists()


def test_riccati_characteristic_dump(tmp_path):
    out = tmp_path / "chs.csv"
    rc = main(["riccati", "--profile", "cable", "--param", "lam=1",
               "--param", "tau=2", "--characteristic", "--points", "4",
               "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["t", "mu0", "dmu0", "mu1", "dmu1", "h"]
    # mu0 = t e^{-t} for this profile
    for row in rows:
        assert row[1] == pytest.approx(row[0] * math.exp(-row[0]), rel=1e-8)


def test_burgers_command(tmp_path):
    out = tmp_path / "burgers.csv"
    rc = main(["burgers", "--profile", "constant-heat", "--v0", "bateman",
               "--A", "1.0", "--V", "0.3", "--sign", "-", "--t", "0.5",
               "--grid=-4:4:81", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["t", "x", "v"]
    assert rows.shape == (81, 3)
    # far left of the kink the state is A - V
    assert rows[0, 2] == pytest.approx(0.7, abs=5e-2)


def test_wave_command(tmp_path):
    out = tmp_path / "wave.csv"
    rc = main(["wave", "--c0", "1", "--F0=-0.5", "--t", "0.5",
               "--grid=-2:2:41", "--window=-3:5", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["t", "x", "v"]


def test_wave_command_reports_poles(tmp_path, capsys):
    # mu = 1 - 2 (e^{z + 3} - 1) vanishes at z = -3 + log 1.5
    out = tmp_path / "wave.csv"
    assert main(["wave", "--c0", "1", "--F0", "4", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("profile poles at z = ") and err.count(",") == 0
    assert float(err.split("=")[1]) == pytest.approx(-3.0 + math.log(1.5),
                                                     abs=1e-11)
    assert np.all(np.isfinite(_read_csv(out)[1]))


def test_wave_command_deterministic(tmp_path):
    out = tmp_path / "wave.csv"
    rc = main(["wave", "--c0", "0.3", "--c1", "0.2", "--c2", "0.1",
               "--c3=-0.2", "--c4", "0.1", "--F0=-0.3", "--window=-2:1",
               "--t", "0.3", "--grid=-1.6:0.2:31", "--out", str(out)])
    assert rc == 0
    # the one grid evaluation equals point-by-point evaluation to the bit
    spec = TravelingWaveSpec(c0=0.3, c1=0.2, c2=0.1, c3=-0.2, c4=0.1,
                             beta0_init=1.0, gamma0_init=0.0,
                             z_window=(-2.0, 1.0), F0=-0.3)
    coeffs = profile("constant-heat", T=2.5)
    tw = traveling_wave(spec, coeffs.a, coeffs.c, T=1.0)
    _, rows = _read_csv(out)
    assert [tw(x, t) for t, x, _ in rows] == rows[:, 2].tolist()


def test_main_keeps_no_state_between_calls(tmp_path, capsys):
    def kernel_center(out):
        _, rows = _read_csv(out)
        return rows[(rows[:, 0] == 0.0) & (rows[:, 1] == 0.0)][0, 3]

    out = tmp_path / "out.csv"
    grid = ["--t", "1", "--grid=-1:1:3", "--out", str(out)]
    # an appended --param does not leak into the next call
    assert main(["kernel", "--profile", "constant-heat", "--param", "a=2",
                 *grid]) == 0
    assert kernel_center(out) == pytest.approx(1.0 / math.sqrt(8.0 * math.pi))
    assert main(["kernel", "--profile", "constant-heat", *grid]) == 0
    assert kernel_center(out) == pytest.approx(1.0 / math.sqrt(4.0 * math.pi))
    # nor does a store_true flag
    dump = ["--profile", "cable", "--points", "3", "--out", str(out)]
    assert main(["riccati", "--characteristic", *dump]) == 0
    assert _read_csv(out)[0][1] == "mu0"
    assert main(["riccati", *dump]) == 0
    assert _read_csv(out)[0][1] == "alpha0"
    # an argparse error leaves the next call working
    with pytest.raises(SystemExit):
        main(["kernel", "--profile", "constant-heat"])
    assert "--t" in capsys.readouterr().err
    assert main(["kernel", "--profile", "constant-heat", *grid]) == 0
    assert kernel_center(out) == pytest.approx(1.0 / math.sqrt(4.0 * math.pi))


def test_validate_filtered():
    assert main(["validate", "--only", "sigma"]) == 0
    assert main(["validate", "--only", "separable"]) == 0


def test_validate_no_match():
    assert main(["validate", "--only", "zzz-no-such-check"]) == 2


def test_config_error_exit_code():
    assert main(["kernel", "--profile", "not-a-profile", "--t", "1.0"]) == 2
    assert main(["kernel", "--profile", "constant-heat", "--param", "nope",
                 "--t", "1.0"]) == 2
    assert main(["solve", "--profile", "constant-heat", "--phi", "bogus",
                 "--t", "0.5"]) == 2


@pytest.mark.parametrize("argv", [
    ["riccati", "--tmin", "0"],
    ["riccati", "--points", "-1"],
    ["riccati", "--tmin", "1.5", "--tmax", "0.5"],
    ["riccati", "--tmin", "0.5", "--tmax", "0.5"],
    ["riccati", "--tmin", "0.5", "--tmax", "0.7", "--points", "1"],
    ["wave", "--window", "3:1"],
    ["wave", "--window", "a:b"],
    ["wave", "--beta0", "0"],
    ["wave", "--c0", "nan"],
    ["wave", "--F0", "nan"],
    ["solve", "--t", "0.5", "--L", "-1"],
    ["solve", "--t", "0.5", "--phi-width", "0", "--grid=-1:1:5"],
    ["solve", "--t", "0.5", "--phi-center", "inf", "--grid=-1:1:5"],
    ["solve", "--t", "0.5", "--phi-center", "nan", "--grid=-1:1:5"],
    ["burgers", "--t", "0.5", "--A", "inf", "--grid=-1:1:5"],
    ["burgers", "--t", "0.5", "--V", "inf", "--grid=-1:1:5"],
    ["burgers", "--t", "0.5", "--c", "inf", "--grid=-1:1:5"],
    ["burgers", "--t", "0.5", "--c", "nan", "--grid=-1:1:5"],
    ["burgers", "--t", "0.5", "--v0", "gaussian", "--v0-amplitude", "nan",
     "--grid=-1:1:5"],
    ["burgers", "--t", "0.5", "--v0", "gaussian", "--v0-amplitude", "inf",
     "--grid=-1:1:5"],
])
def test_bad_option_is_configuration_error(capsys, deadline, tmp_path, argv):
    out = tmp_path / "out.csv"
    try:
        with deadline(30):
            code = main([*argv, "--out", str(out)])
    except SystemExit as exc:       # argparse rejects the value itself
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    # a hang must not pass as the expected message
    assert "configuration error" in err and "still running" not in err
    assert not out.exists()


def test_wave_past_domain_end_exit_code(tmp_path, capsys):
    # a(t) = 1 - t and c(t) = t are given on [0, 0.5] only; the wave's frame
    # must not read them past it, as the kernel does not
    config = tmp_path / "cw.json"
    config.write_text(json.dumps({"profile": "custom", "T": 0.5,
                                  "poly": {"a": [1.0, -1.0], "c": [0.0, 1.0]}}))
    out = tmp_path / "w.csv"
    argv = ["--grid=-1:1:3", "--config", str(config), "--out", str(out)]
    for command in ("wave", "kernel"):
        assert main([command, "--t", "0.9", *argv]) == 3
        assert "DomainError" in capsys.readouterr().err
        assert not out.exists()
    assert main(["wave", "--t", "0.5", *argv]) == 0
    assert np.all(np.isfinite(_read_csv(out)[1]))


def test_numerical_error_exit_code(tmp_path):
    config = tmp_path / "osc.json"
    config.write_text(json.dumps({
        "coefficients": {"profile": "custom",
                         "poly": {"a": [1.0], "b": [-1.0]}, "T": 2.0}}))
    # t = 1.8 is past the first zero of mu0 at pi/2
    rc = main(["kernel", "--config", str(config), "--t", "1.8",
               "--grid=-1:1:3", "--out", str(tmp_path / "x.csv")])
    assert rc == 3


def test_config_file_listing_coefficients(tmp_path):
    config = tmp_path / "fp.json"
    config.write_text(json.dumps(
        {"coefficients": {"profile": "fokker-planck", "T": 2.0}}))
    out = tmp_path / "k.csv"
    rc = main(["kernel", "--config", str(config), "--t", "1.0",
               "--grid=-1:1:3", "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out)
    want = 1.0 / math.sqrt(2.0 * math.pi * (1.0 - math.exp(-2.0)))
    center = rows[(rows[:, 0] == 0.0) & (rows[:, 1] == 0.0)][0, 3]
    assert center == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("config", [
    [1, 2], "text", 3.5, {"coefficients": [1]},
    {"profile": "ou-drift", "params": 5},
    {"profile": "ou-drift", "params": {"k": [1.0]}},
    {"profile": "custom", "poly": {"a": 1.0}},
    {"profile": "custom", "poly": {"a": "12"}},
], ids=["list", "string", "number", "sub-list", "params-number",
        "param-list", "poly-number", "poly-string"])
def test_config_of_wrong_type_exit_code(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["kernel", "--t", "1", "--grid=-1:1:3", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


@pytest.mark.parametrize("config, what", [
    # true once ran an OU kernel with k = 1 on T = 1, and built a = 1
    ({"profile": "ou-drift", "params": {"k": True}}, "parameter 'k'"),
    ({"profile": "ou-drift", "params": {"k": 1.0}, "T": True}, "T"),
    ({"profile": "custom", "poly": {"a": [True]}}, "poly entry of 'a'"),
], ids=["param", "T", "poly"])
def test_config_boolean_is_not_a_number(tmp_path, capsys, config, what):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "k.csv"
    assert main(["kernel", "--t", "1", "--grid=-1:1:3", "--config", str(path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"configuration error: {what} must be "
                                       "a finite number, got True\n")
    assert not out.exists()


@pytest.mark.parametrize("config, what, got", [
    ({"profile": "ou-drift", "params": {"k": "1"}, "T": 2.0},
     "parameter 'k'", "'1'"),
    ({"profile": "ou-drift", "params": {"k": 1.0}, "T": "2"}, "T", "'2'"),
    ({"profile": "custom", "poly": {"a": ["1"]}}, "poly entry of 'a'", "'1'"),
], ids=["param", "T", "poly"])
def test_config_numeric_string_is_not_a_number(tmp_path, capsys, config, what,
                                               got):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "k.csv"
    assert main(["kernel", "--t", "1", "--grid=-1:1:3", "--config", str(path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"configuration error: {what} must be "
                                       f"a finite number, got {got}\n")
    assert not out.exists()


def test_missing_config_file_exit_code():
    assert main(["kernel", "--config", "/nonexistent.json", "--t", "1.0"]) == 2


@pytest.mark.parametrize("text", ["{bad", "\udcff", "[1, 2"])
def test_unreadable_config_file_exit_code(tmp_path, capsys, text):
    config = tmp_path / "bad.json"
    config.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert main(["kernel", "--config", str(config), "--t", "1.0"]) == 2
    assert "configuration error: cannot read --config" in capsys.readouterr().err


def test_out_directory_exit_code(tmp_path, capsys):
    assert main(["kernel", "--t", "1.0", "--grid=-1:1:3",
                 "--out", str(tmp_path)]) == 2
    assert "configuration error: cannot open --out" in capsys.readouterr().err


def test_other_os_errors_propagate(monkeypatch):
    # only reading --config and opening --out map to exit code 2
    def stalled(*args, **kwargs):
        raise TimeoutError("stalled")

    monkeypatch.setattr(kn, "make_kernel", stalled)
    with pytest.raises(TimeoutError, match="stalled"):
        main(["kernel", "--t", "1.0", "--grid=-1:1:3"])


def test_dash_value_given_as_separate_token(tmp_path):
    # "--grid -1:1:3" reads like an option; it means the same as "--grid=-1:1:3"
    joined, split = tmp_path / "joined.csv", tmp_path / "split.csv"
    args = ["kernel", "--profile", "fokker-planck", "--t", "1"]
    assert main(args + ["--grid=-1:1:3", "--out", str(joined)]) == 0
    assert main(args + ["--grid", "-1:1:3", "--out", str(split)]) == 0
    assert split.read_text() == joined.read_text()
    assert _read_csv(split)[1].shape == (9, 4)


def test_solve_ones_truncates_at_default_L(tmp_path):
    # phi = 1 on [-30, 30]: u = (erf((30 - x)/sqrt(4t)) + erf((30 + x)/sqrt(4t)))/2
    out = tmp_path / "u.csv"
    with pytest.warns(kn.TruncationWarning, match="at x=30"):
        assert main(["solve", "--profile", "constant-heat", "--phi", "ones",
                     "--t", "2", "--grid", "26:30:3", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    want = [0.5 * (math.erf((30.0 - x) / math.sqrt(8.0))
                   + math.erf((30.0 + x) / math.sqrt(8.0))) for x in rows[:, 1]]
    assert rows[:, 2] == pytest.approx(want, rel=1e-8)


def test_solve_ones_stays_on_the_array_path(tmp_path):
    phi = _phi_from_args(argparse.Namespace(phi="ones", L=None))
    calls = []
    values = on_arrays(lambda y: calls.append(y.shape) or phi(y))
    nodes = np.linspace(-1.0, 1.0, 42).reshape(2, 21)
    for _ in range(2):
        assert values(nodes).tolist() == np.ones_like(nodes).tolist()
    assert calls == [(2, 21), (2, 21)]    # one call per batch of nodes
    out = tmp_path / "u.csv"
    assert main(["solve", "--profile", "constant-heat", "--phi", "ones",
                 "--t", "0.5", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    want = kn.solve_ivp(make_kernel(profile("constant-heat", T=2.5), tol=1e-10),
                        kn.InitialData.from_callable(np.ones_like, L=30.0),
                        _parse_grid("-4:4:81"), 0.5)
    assert rows[:, 2].tolist() == want.values[0].tolist()


def test_gnuplot_surface_script_for_kernel(tmp_path):
    out = tmp_path / "k.csv"
    assert main(["kernel", "--t", "1", "--grid=-1:1:3", "--out", str(out),
                 "--gnuplot"]) == 0
    script = (tmp_path / "k.csv.gp").read_text()
    assert f"splot '{out}' every ::1 using 1:2:4 with pm3d" in script


def test_gnuplot_without_out_is_skipped(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["kernel", "--t", "1", "--grid=-1:1:3", "--gnuplot"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("x,y,t,K\n")
    assert captured.err == "--gnuplot requires --out\n"
    assert list(tmp_path.iterdir()) == []


def test_gnuplot_script_emitted(tmp_path):
    out = tmp_path / "field.csv"
    rc = main(["solve", "--profile", "constant-heat", "--t", "0.25",
               "--grid=-1:1:5", "--out", str(out), "--gnuplot"])
    assert rc == 0
    script = tmp_path / "field.csv.gp"
    assert script.exists()
    assert str(out) in script.read_text()


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_bad_tolerance_exit_code(deadline, tol):
    with deadline(30), pytest.raises(SystemExit) as exc:
        main(["kernel", "--profile", "fokker-planck", "--t", "1",
              "--grid=-1:1:3", "--tol", tol])
    assert exc.value.code == 2


@pytest.mark.parametrize("params", [["k=inf"], ["k=1", "a=nan"]])
def test_non_finite_parameter_exit_code(deadline, tmp_path, params):
    flags = [tok for p in params for tok in ("--param", p)]
    with deadline(30):
        rc = main(["kernel", "--profile", "ou-drift", *flags, "--t", "1",
                   "--grid=-1:1:3", "--out", str(tmp_path / "k.csv")])
    assert rc == 2


def test_non_finite_config_exit_code(deadline, tmp_path):
    config = tmp_path / "nan.json"
    config.write_text(json.dumps({"coefficients": {
        "profile": "custom", "poly": {"a": [1.0], "c": [math.nan]}}}))
    with deadline(30):
        rc = main(["kernel", "--config", str(config), "--t", "1",
                   "--grid=-1:1:3", "--out", str(tmp_path / "k.csv")])
    assert rc == 2


def test_nan_time_exit_code(tmp_path):
    out = tmp_path / "k.csv"
    rc = main(["kernel", "--profile", "fokker-planck", "--t", "nan",
               "--grid=-1:1:3", "--out", str(out)])
    assert rc == 3
    assert not out.exists()


def test_classical_burgers_past_horizon_exit_code(deadline, capsys):
    with deadline(30):
        rc = main(["burgers", "--profile", "constant-heat", "--T", "2.5",
                   "--t", "7", "--grid=-1:1:21"])
    assert rc == 3
    assert capsys.readouterr().out == ""


def test_burgers_backward_viscosity_exit_code(deadline, tmp_path):
    out = tmp_path / "v.csv"
    with deadline(30):
        rc = main(["burgers", "--profile", "constant-heat", "--param", "a=-1",
                   "--v0", "gaussian", "--t", "0.5", "--grid=-1:1:21",
                   "--out", str(out)])
    assert rc == 3
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--param", "a=-1"], ["--A", "-1"]])
def test_burgers_bateman_parameter_exit_code(deadline, tmp_path, flags):
    out = tmp_path / "v.csv"
    with deadline(30):
        rc = main(["burgers", "--profile", "constant-heat", *flags, "--t", "0.5",
                   "--grid=-1:1:21", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


_SCIPY_FREE = """
import sys
import heatkern, heatkern.cli, heatkern.checks
from heatkern.cli import main
for argv in (["kernel", "--profile", "ou-drift", "--param", "k=1", "--t", "0.5",
              "--grid=-1:1:5"],
             ["solve", "--profile", "fokker-planck", "--phi", "gaussian",
              "--t", "0.25", "--grid=-1:1:5"],
             ["burgers", "--profile", "constant-heat", "--v0", "gaussian",
              "--t", "0.5", "--grid=-1:1:5"],
             ["riccati", "--profile", "cable", "--points", "5"]):
    assert main([*argv, "--out", "-"]) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print("numpy.polynomial" in sys.modules)
"""


def test_main_path_loads_no_scipy(tmp_path):
    # only the oracles (and so validate) import scipy, inside the functions;
    # the numerical V0 builds its Legendre matrix without numpy.polynomial
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _SCIPY_FREE], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["[]", "False"]


def test_module_entry_point(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "heatkern", "validate",
                           "--only", "fd-richardson/heat"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "fd-richardson/heat" in done.stdout


def test_a_far_grid_point_is_a_numerical_failure(tmp_path):
    # u overflows at x = +-1e160: a numerical failure, not a traceback
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "heatkern", "solve", "--t", "1",
                           "--grid=-1e160:1e160:3"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 3
    assert "Traceback" not in done.stderr
    assert "QuadratureError: u is not finite at t = 1, x = -1e+160" in done.stderr


@pytest.mark.parametrize("grid, at", [("-1e30:1e30:3", "-1e+30"),
                                      ("1e200:1e200:1", "1e+200")])
def test_a_far_burgers_point_is_named(tmp_path, grid, at):
    # the window at a far x rounds to one point, so its inner integral is 0
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "heatkern", "burgers",
                           "--v0", "gaussian", "--t", "0.5", f"--grid={grid}"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 3
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.endswith("numerical failure: QuadratureError: inner "
                                f"integral is not positive at t = 0.5, x = {at}\n")


def test_a_far_kernel_point_is_a_numerical_failure(tmp_path):
    # the expanded exponent overflows to inf - inf at x = y = +-1e160
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "heatkern", "kernel", "--t", "1",
                           "--grid=-1e160:1e160:3"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == ("numerical failure: OverflowError: kernel exponent "
                           "at x = -1e+160, y = -1e+160, t = 1 is not finite: "
                           "its expanded form overflows\n")
