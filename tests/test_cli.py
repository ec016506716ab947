"""Exercise the command-line surface and its exit codes."""

import json

import pytest

from lmhd.cli import main
from lmhd.diagnostics import RECORD_FIELDS


BASE_CFG = """
grid.n = 2
grid.points = 16
params.nu = 1.0
params.eta = 0.0
params.alpha = 2.0
params.g1.kind = constant_one
ic.name = orszag_tang_2d
stepper.dt = 0.001
stepper.t_end = 0.02
diag.cadence = 1
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG)
    return path


def test_run_ok(cfg_path, capsys):
    code = main(["run", str(cfg_path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "ok"
    assert "energy_residual" in out


NON_FINITE = {"stepper.dt = 0.001": "stepper.dt = nan", "params.nu = 1.0": "params.nu = nan",
              "params.alpha = 2.0": "params.alpha = inf", "stepper.t_end = 0.02": "stepper.t_end = nan"}
# integers too large to convert to float
HUGE = "1" + "0" * 400
OVERFLOWING = (BASE_CFG.replace("grid.n = 2", f"grid.n = {HUGE}"),
               BASE_CFG.replace("ic.name = orszag_tang_2d", f"ic.name = single_mode\nic.k = {HUGE},0"))


def test_run_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    missing = tmp_path / "missing"
    for text in ("grid.bogus = 1\n", "ic.sed = 3\n", "grid.points = 16\ngrid.points = 32\n",
                 BASE_CFG + f"out.series = {missing / 'series.csv'}\n",
                 BASE_CFG + f"out.snapshots = {missing / 'snap'}\nout.snapshot_times = 0.01\n",
                 *(BASE_CFG.replace(old, new) for old, new in NON_FINITE.items()), *OVERFLOWING):
        path.write_text(text)
        assert main(["run", str(path)]) == 2
    for text in OVERFLOWING:
        path.write_text(text)
        assert main(["sweep", str(path), "--vary", "g1=constant_one"]) == 2
    # a UTF-16 byte-order mark is not UTF-8
    path.write_bytes(b"\xff\xfe" + BASE_CFG.encode("utf-16-le"))
    assert main(["run", str(path)]) == 2
    assert main(["sweep", str(path), "--vary", "g1=constant_one"]) == 2


def test_run_adaptive(tmp_path, capsys):
    cfg = tmp_path / "adaptive.cfg"
    cfg.write_text(BASE_CFG.replace("stepper.dt = 0.001", "stepper.dt = adaptive")
                   .replace("stepper.t_end = 0.02", "stepper.t_end = 0.2"))
    code = main(["run", str(cfg)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["records"] >= 3 and "energy_residual" in out


def test_run_missing_file():
    assert main(["run", "/does/not/exist.cfg"]) == 2


def test_run_writes_series_then_check(cfg_path, tmp_path, capsys):
    series = tmp_path / "series.csv"
    cfg = tmp_path / "with_out.cfg"
    cfg.write_text(BASE_CFG + f"out.series = {series}\n")
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["check", str(series), "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "gronwall_constant" in report


def test_run_and_check_report_identical_constants(tmp_path, capsys):
    series = tmp_path / "series.csv"
    cfg = tmp_path / "long.cfg"
    cfg.write_text(BASE_CFG.replace("stepper.t_end = 0.02", "stepper.t_end = 0.06")
                   + f"out.series = {series}\n")
    assert main(["run", str(cfg)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert main(["check", str(series), "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    for key in ("energy_residual", "gronwall_constant", "gamma_log_constant", "max_div"):
        assert report[key] == summary[key]


NON_FINITE_ARGS = {
    "check_nu_nan": ["--nu", "nan"],
    "check_eta_inf": ["--eta", "inf"],
    "check_energy_tol_nan": ["--energy-tol", "nan"],
    "osgood_epsilon_nan": ["osgood", "power", "epsilon=nan"],
    "osgood_c_inf": ["osgood", "power_log", "c=inf"],
    "osgood_limit_nan": ["osgood", "power", "--limit", "nan"],
    "osgood_limit_inf": ["osgood", "power", "--limit", "inf"],
}


@pytest.mark.parametrize("case", ["empty_series", "header_only_series", "bad_osgood_value",
                                  *NON_FINITE_ARGS])
def test_bad_input_exits_2(case, tmp_path, capsys):
    series = tmp_path / "series.csv"
    if case == "empty_series":
        series.write_text("")
        argv = ["check", str(series)]
    elif case == "header_only_series":
        series.write_text(",".join(RECORD_FIELDS) + "\n")
        argv = ["check", str(series)]
    elif case == "bad_osgood_value":
        argv = ["osgood", "power", "epsilon=abc"]
    elif case.startswith("check"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG + f"out.series = {series}\n")
        assert main(["run", str(cfg)]) == 0
        argv = ["check", str(series), *NON_FINITE_ARGS[case]]
    else:
        argv = NON_FINITE_ARGS[case]
    assert main(argv) == 2


def test_check_energy_tolerance_failure(cfg_path, tmp_path, capsys):
    series = tmp_path / "series.csv"
    cfg = tmp_path / "with_out.cfg"
    cfg.write_text(BASE_CFG + f"out.series = {series}\n")
    main(["run", str(cfg)])
    capsys.readouterr()
    assert main(["check", str(series), "--energy-tol", "1e-30"]) == 4


@pytest.mark.parametrize("field, value, extra", [("x_norm", "inf", []), ("x_norm", "nan", []),
                                                 ("energy", "nan", ["--energy-tol", "1e-4"]),
                                                 ("div_u", "nan", [])])
def test_check_non_finite_record_fails(field, value, extra, tmp_path, capsys):
    series = tmp_path / "series.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG + f"out.series = {series}\n")
    assert main(["run", str(cfg)]) == 0
    lines = series.read_text().splitlines()
    row = lines[6].split(",")
    row[RECORD_FIELDS.index(field)] = value
    lines[6] = ",".join(row)
    series.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(series), *extra]) == 4
    assert f"non-finite record field {field} at t=" in capsys.readouterr().err


def test_sweep(cfg_path, capsys):
    code = main(["sweep", str(cfg_path), "--vary", "g1=constant_one,iterated_log"])
    out = capsys.readouterr().out
    assert code == 0
    assert "g1=constant_one" in out and "g1=iterated_log" in out


def test_sweep_requires_g1(cfg_path):
    assert main(["sweep", str(cfg_path), "--vary", "nu=1,2"]) == 2


def test_osgood_command(capsys):
    code = main(["osgood", "power", "epsilon=0.1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["classification"] == "converges"


def test_osgood_with_limit(capsys):
    code = main(["osgood", "constant_one", "--limit", "1e12"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["classification"] == "diverges"
    assert out["upper_limit_used"] == 1e12


def test_osgood_unknown_g():
    assert main(["osgood", "mystery"]) == 2


def test_osgood_bad_param():
    assert main(["osgood", "power", "epsilon"]) == 2
