"""Exercise the command-line surface and its exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lmhd
from lmhd import diagnostics, multiplier, spectral as sp
from lmhd.cli import main
from lmhd.diagnostics import RECORD_FIELDS, config_from_mapping, evaluate_checks


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
# single modes outside the 2/3 band of a 32^2 grid (|k_j| < 32/3): k = 11 would be
# zeroed by the dealias mask, and k = 40 sampled as the k = 8 mode
OUTSIDE_BAND = tuple(BASE_CFG.replace("grid.points = 16", "grid.points = 32")
                     .replace("ic.name = orszag_tang_2d", f"ic.name = single_mode\nic.k = {k}")
                     for k in ("11,0", "40,0"))


def test_run_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    missing = tmp_path / "missing"
    for text in ("grid.bogus = 1\n", "ic.sed = 3\n", "grid.points = 16\ngrid.points = 32\n",
                 BASE_CFG + f"out.series = {missing / 'series.csv'}\n",
                 BASE_CFG + f"out.snapshots = {missing / 'snap'}\nout.snapshot_times = 0.01\n",
                 *(BASE_CFG.replace(old, new) for old, new in NON_FINITE.items()), *OVERFLOWING,
                 *OUTSIDE_BAND):
        path.write_text(text)
        assert main(["run", str(path)]) == 2
    for text in OVERFLOWING:
        path.write_text(text)
        assert main(["sweep", str(path), "--vary", "g1=constant_one"]) == 2
    # a UTF-16 byte-order mark is not UTF-8
    path.write_bytes(b"\xff\xfe" + BASE_CFG.encode("utf-16-le"))
    assert main(["run", str(path)]) == 2
    assert main(["sweep", str(path), "--vary", "g1=constant_one"]) == 2


# blows up at step 1: the first nonlinear step overflows
BLOWUP_CFG = (BASE_CFG.replace("params.nu = 1.0", "params.nu = 0.0")
              .replace("ic.name = orszag_tang_2d", "ic.name = random_band\nic.amplitude = 1e150")
              .replace("stepper.dt = 0.001", "stepper.dt = 1")
              .replace("stepper.t_end = 0.02", "stepper.t_end = 50"))
STRICT_CFG = BASE_CFG + "check.energy_tol = 1e-30\n"
SWEEP = ["--vary", "g1=constant_one,iterated_log"]
# the test runs in its own temporary directory, so "." is an existing directory
SERIES_DIR_CFG = BASE_CFG + "out.series = .\n"
RANDOM_BAND_CFG = BASE_CFG.replace("ic.name = orszag_tang_2d", "ic.name = random_band")
SINGLE_MODE_CFG = BASE_CFG.replace("ic.name = orszag_tang_2d", "ic.name = single_mode")

# (command, failure mode) -> (config text or None, argv after the command, exit code);
# "{cfg}" is the config file, "{series}" a series written by BASE_CFG and "{missing}"
# a path that does not exist
EXIT_CONTRACT = {
    ("run", "ok"): (BASE_CFG, ["{cfg}"], 0),
    ("run", "no_config"): (None, [], 2),
    ("run", "config_error"): ("grid.bogus = 1\n", ["{cfg}"], 2),
    ("run", "missing_config"): (None, ["{missing}"], 2),
    ("run", "blowup"): (BLOWUP_CFG, ["{cfg}"], 3),
    ("run", "check_failed"): (STRICT_CFG, ["{cfg}"], 4),
    ("run", "series_is_directory"): (SERIES_DIR_CFG, ["{cfg}"], 2),
    **{("run", f"snapshot_time_{name}"): (
        BASE_CFG + f"out.snapshots = snap\nout.snapshot_times = {times}\n", ["{cfg}"], 2)
       for name, times in (("after_t_end", "0.0,5.0"), ("negative", "-1.0"))},
    ("run", "snapshots_without_times"): (BASE_CFG + "out.snapshots = snap\n", ["{cfg}"], 2),
    ("run", "snapshot_times_without_snapshots"): (
        BASE_CFG + "out.snapshot_times = 0.01\n", ["{cfg}"], 2),
    **{("run", f"unread_{name}"): (text, ["{cfg}"], 2) for name, text in (
        ("ic_band", BASE_CFG + "ic.band = 3\n"),
        ("ic_k", BASE_CFG + "ic.k = 5,0\n"),
        ("g1_epsilon", BASE_CFG + "params.g1.epsilon = 0.3\n"),
        ("g1_c", BASE_CFG.replace("kind = constant_one", "kind = power\nparams.g1.c = 7")))},
    **{("run", f"zero_state_{name}"): (text, ["{cfg}"], 2) for name, text in (
        ("random_band_band", RANDOM_BAND_CFG + "ic.band = 0.5\n"),
        ("random_band_amplitude", RANDOM_BAND_CFG + "ic.amplitude = 0\n"),
        ("single_mode_amplitude", SINGLE_MODE_CFG + "ic.amplitude = 0\n"))},
    ("sweep", "ok"): (BASE_CFG, ["{cfg}", *SWEEP], 0),
    ("sweep", "config_error"): ("grid.bogus = 1\n", ["{cfg}", *SWEEP], 2),
    ("sweep", "unknown_g1"): (BASE_CFG, ["{cfg}", "--vary", "g1=mystery"], 2),
    ("sweep", "not_g1"): (BASE_CFG, ["{cfg}", "--vary", "nu=1,2"], 2),
    ("sweep", "empty_values"): (BASE_CFG, ["{cfg}", "--vary", "g1="], 2),
    ("sweep", "vary_without_key"): (BASE_CFG, ["{cfg}", "--vary", "constant_one"], 2),
    ("sweep", "vary_given_twice"): (BASE_CFG, ["{cfg}", *SWEEP, "--vary", "g1=constant_one"], 2),
    ("sweep", "blowup"): (BLOWUP_CFG, ["{cfg}", *SWEEP], 3),
    ("sweep", "check_failed"): (STRICT_CFG, ["{cfg}", *SWEEP], 4),
    ("check", "ok"): (BASE_CFG, ["{series}", "--config", "{cfg}"], 0),
    ("check", "missing_series"): (None, ["{missing}"], 2),
    ("check", "bad_number"): (None, ["{series}", "--nu", "nan"], 2),
    ("check", "non_numeric_nu"): (None, ["{series}", "--nu", "abc"], 2),
    ("check", "check_failed"): (STRICT_CFG, ["{series}", "--config", "{cfg}"], 4),
    ("check", "negative_record_value"): (None, ["{series}"], 2),
    ("check", "unparsable_series_value"): (None, ["{series}"], 2),
    # a flag given twice is an error, not its last value winning
    ("check", "flag_given_twice"): (None, ["{series}", "--g1", "power", "--g1", "iterated_log"], 2),
    ("check", "unknown_flag"): (None, ["{series}", "--bogus", "1"], 2),
    ("check", "config_given_twice"): (BASE_CFG, ["{series}", "--config", "{cfg}", "--config", "{cfg}"], 2),
    ("osgood", "ok"): (None, ["iterated_log"], 0),
    ("osgood", "unknown_g"): (None, ["mystery"], 2),
    ("osgood", "unknown_g_and_param"): (None, ["mystery", "foo=1"], 2),
    ("osgood", "bad_limit"): (None, ["power", "--limit", "1"], 2),
    ("osgood", "non_numeric_limit"): (None, ["power", "--limit", "abc"], 2),
    ("osgood", "unread_param"): (None, ["constant_one", "epsilon=5"], 2),
    ("osgood", "param_named_kind"): (None, ["power", "kind=1"], 2),
    ("osgood", "param_given_twice"): (None, ["power", "epsilon=0.1", "epsilon=5"], 2),
    ("osgood", "limit_without_value"): (None, ["power", "--limit"], 2),
    ("osgood", "limit_given_twice"): (None, ["power", "--limit", "1e10", "--limit", "1e20"], 2),
}
# (command, failure mode) -> (field, value) written into a record of "{series}"
SERIES_EDITS = {("check", "negative_record_value"): ("diss_u", "-1.0"),
                ("check", "unparsable_series_value"): ("energy", "abc")}


def set_series_cell(series, field, value, row=6):
    lines = series.read_text().splitlines()
    cells = lines[row].split(",")
    cells[RECORD_FIELDS.index(field)] = value
    lines[row] = ",".join(cells)
    series.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("command, mode", list(EXIT_CONTRACT), ids="-".join)
def test_exit_code_contract(command, mode, tmp_path, capsys, monkeypatch):
    """Every failure mode of every command maps to 0, 2, 3 or 4, returned by main."""
    monkeypatch.chdir(tmp_path)
    text, args, expected = EXIT_CONTRACT[(command, mode)]
    cfg, series = tmp_path / "run.cfg", tmp_path / "series.csv"
    if "{series}" in args:
        cfg.write_text(BASE_CFG + f"out.series = {series}\n")
        assert main(["run", str(cfg)]) == 0
        if (command, mode) in SERIES_EDITS:
            set_series_cell(series, *SERIES_EDITS[(command, mode)])
    if text is not None:
        cfg.write_text(text)
    argv = [command] + [a.format(cfg=cfg, series=series, missing=tmp_path / "missing") for a in args]
    assert main(argv) == expected
    err = capsys.readouterr().err
    if expected == 2:
        assert err.startswith("config error: ")
    if command == "sweep" and mode in ("blowup", "check_failed"):
        assert all(f"g1={name}: " in err for name in ("constant_one", "iterated_log"))


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=["lmhd", "run"])
def test_help_exits_0(argv, capsys):
    """A usage error is a config error, but help still exits 0 with the usage."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lmhd")


def test_entry_point_exits_2_without_traceback(tmp_path):
    """The real entry point, in a fresh interpreter, turns an input error into exit 2."""
    (tmp_path / "run.cfg").write_text(SERIES_DIR_CFG)
    env = {**os.environ, "PYTHONPATH": str(Path(lmhd.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "lmhd.cli", "run", "run.cfg"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: ")


# a 4096^3 grid: one wavenumber mesh alone is 512 GiB, far past the address-space cap below
HUGE_GRID_CFG = "grid.n = 3\ngrid.points = 4096\nic.name = single_mode\nic.k = 1,0,0\n"
# the child caps its own address space before lmhd.cli runs, so the grid's first table fails to
# allocate at once; never run this config without the cap
CAPPED_ENTRY_POINT = ("import resource, runpy; "
                      "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)); "
                      "runpy.run_module('lmhd.cli', run_name='__main__')")


@pytest.mark.parametrize("command, args, prefix", [
    ("run", [], "config error: "),
    ("sweep", ["--vary", "g1=constant_one"], "config error: g1=constant_one: "),
], ids=["run", "sweep"])
def test_grid_too_large_to_allocate_exits_2(tmp_path, command, args, prefix):
    (tmp_path / "run.cfg").write_text(HUGE_GRID_CFG)
    env = {**os.environ, "PYTHONPATH": str(Path(lmhd.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", CAPPED_ENTRY_POINT, command, "run.cfg", *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(prefix)


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


@pytest.mark.parametrize("text", [BASE_CFG, BLOWUP_CFG], ids=["ok", "blowup"])
def test_run_summary_file_is_stdout_without_status(tmp_path, capsys, text):
    """<series>.summary.json holds what lmhd run prints, snapshot paths included, but `status`."""
    series, cfg = tmp_path / "series.csv", tmp_path / "run.cfg"
    cfg.write_text(text + f"out.series = {series}\nout.snapshots = {tmp_path / 'snap'}\n"
                   "out.snapshot_times = 0.0,0.01\n")
    code = main(["run", str(cfg)])
    out = json.loads(capsys.readouterr().out)
    assert code == (0 if text is BASE_CFG else 3)
    assert out.pop("status") == ("ok" if code == 0 else "blowup")
    assert json.loads(Path(f"{series}.summary.json").read_text()) == out
    assert out["snapshots"] and all(Path(path).exists() for path in out["snapshots"])


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


def test_snapshots_whose_times_share_six_decimals_get_two_files(tmp_path, capsys):
    """States at t = 1e-7 and 2e-7 both print as 0.000000: the second file's name takes
    a seventh decimal rather than overwriting the first."""
    series, cfg = tmp_path / "series.csv", tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG.replace("stepper.dt = 0.001", "stepper.dt = 1e-7")
                   .replace("stepper.t_end = 0.02", "stepper.t_end = 3e-7")
                   + f"out.series = {series}\nout.snapshots = {tmp_path / 'snap'}\n"
                   "out.snapshot_times = 1e-7, 2e-7\n")
    assert main(["run", str(cfg)]) == 0
    paths = json.loads(capsys.readouterr().out)["snapshots"]
    assert paths == [f"{tmp_path / 'snap'}_t0.000000.lmhd", f"{tmp_path / 'snap'}_t0.0000002.lmhd"]
    assert all(Path(path).is_file() for path in paths)
    for path, requested in zip(paths, (1e-7, 2e-7)):
        assert_snapshot_energy_is_recorded(path, requested, series)


def assert_snapshot_energy_is_recorded(path, requested, series):
    """The 2D snapshot's Parseval energy equals that of the series' first record at or
    after the requested time."""
    table = diagnostics.read_series(str(series))
    row = table[table[:, 0] >= requested - 1e-12][0]
    # Parseval: half the (2 pi)^2-weighted sum of |coeff|^2 over the four fields
    energy = 0.5 * (2.0 * np.pi) ** 2 * sum(float(np.sum(np.abs(f.coeffs) ** 2))
                                            for f in sp.read_snapshot(path))
    assert abs(energy - row[RECORD_FIELDS.index("energy")]) <= 1e-12 * energy


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
    set_series_cell(series, field, value)
    capsys.readouterr()
    assert main(["check", str(series), *extra]) == 4
    assert f"non-finite record field {field} at t=" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["t", "diss_u", "cum_diss", "div_b"])
def test_check_negative_record_value_is_an_input_error(field, tmp_path, capsys):
    series = tmp_path / "series.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG + f"out.series = {series}\n")
    assert main(["run", str(cfg)]) == 0
    set_series_cell(series, field, "-0.5", row=4)
    set_series_cell(series, field, "-1.0", row=9)
    capsys.readouterr()
    assert main(["check", str(series)]) == 2
    err = capsys.readouterr().err
    time = "-0.5" if field == "t" else "0.003"
    assert err == f"config error: negative record field {field} at t={time}\n"


@pytest.mark.parametrize("negative_row, code", [(4, 2), (9, 4)], ids=["before", "after"])
def test_check_reads_negative_cells_before_the_first_non_finite_record(negative_row, code,
                                                                       tmp_path, capsys):
    """A negative cell among the records the checks read is an input error; one after the
    first non-finite record is not read, and the series fails on that record."""
    series = tmp_path / "series.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG + f"out.series = {series}\n")
    assert main(["run", str(cfg)]) == 0
    set_series_cell(series, "x_norm", "inf")
    set_series_cell(series, "diss_u", "-1.0", row=negative_row)
    capsys.readouterr()
    assert main(["check", str(series)]) == code
    err = capsys.readouterr().err
    assert err == ("config error: negative record field diss_u at t=0.003\n" if code == 2
                   else "non-finite record field x_norm at t=0.005\n")


# 16^2 Orszag-Tang at nu = 0 and dt = 5 overflows y_norm at t = 10: run to t = 10 it finishes
# with that record, run to t = 20 it blows up at t = 15
OVERFLOW_CFG = (BASE_CFG.replace("params.nu = 1.0", "params.nu = 0.0")
                .replace("stepper.dt = 0.001", "stepper.dt = 5"))
CHECK_KEYS = ("max_x_norm", "sup_gamma_norm", "cum_diss_grad", "energy_residual",
              "gronwall_constant", "gronwall_warning", "gamma_log_constant", "max_div")


@pytest.mark.parametrize("text, run_code", [
    (BASE_CFG.replace("stepper.t_end = 0.02", "stepper.t_end = 0.06"), 0),
    (OVERFLOW_CFG.replace("stepper.t_end = 0.02", "stepper.t_end = 10"), 4),
    (OVERFLOW_CFG.replace("stepper.t_end = 0.02", "stepper.t_end = 20"), 3),
], ids=["ok", "non_finite_record", "blowup"])
def test_check_of_a_run_series_reports_what_the_run_reported(text, run_code, tmp_path, capsys):
    """lmhd check of the series lmhd run wrote prints the run's report keys bit for bit, exits
    with the run's code (4 for a blown-up run's series) and gives the run's message less its
    blow-up text."""
    series, cfg = tmp_path / "series.csv", tmp_path / "run.cfg"
    cfg.write_text(text + f"out.series = {series}\n")
    assert main(["run", str(cfg)]) == run_code
    run_out, run_err = capsys.readouterr()
    summary = json.loads(run_out)
    failures = run_err.splitlines()[0].split("; ") if run_err else []
    if run_code == 3:
        assert failures.pop(0).startswith(f"non-finite coefficients at t={summary['blowup_time']}")
    assert main(["check", str(series), "--config", str(cfg)]) == (4 if run_code == 3 else run_code)
    out, err = capsys.readouterr()
    assert {"max_x_norm", "sup_gamma_norm", "cum_diss_grad", "gronwall_constant"} <= summary.keys()
    assert ("gamma_log_constant" in summary) == (run_code == 0)
    assert out == json.dumps({key: summary[key] for key in CHECK_KEYS if key in summary},
                             indent=2) + "\n"
    assert err == ("; ".join(failures) + "\n" if failures else "")


# the series values of OVERFLOW_CFG's records before the one whose y_norm overflowed
OVERFLOW_SERIES_VALUES = {"max_x_norm": 2.675997118426415e+20,
                          "sup_gamma_norm": 3.5148458734244548e+22,
                          "cum_diss_grad": 1.6084636540149758e+23}


@pytest.mark.parametrize("t_end, run_code", [(10, 4), (20, 3)], ids=["finished", "blowup"])
def test_run_reports_the_series_values_of_its_finite_records(t_end, run_code, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(OVERFLOW_CFG.replace("stepper.t_end = 0.02", f"stepper.t_end = {t_end}"))
    assert main(["run", str(cfg)]) == run_code
    summary = json.loads(capsys.readouterr().out)
    assert {key: summary[key] for key in OVERFLOW_SERIES_VALUES} == OVERFLOW_SERIES_VALUES
    assert main(["sweep", str(cfg), "--vary", "g1=constant_one"]) == run_code
    assert capsys.readouterr().out == ("g1=constant_one: status=" + summary["status"] +
                                       " max_X=2.676e+20 gronwall_C=3.5687e-22\n")


def write_synthetic_series(path, t, **columns):
    """A series file of the given times and columns, with 0 in every other field."""
    zero = dict.fromkeys(RECORD_FIELDS, 0.0)
    diagnostics.write_series(str(path), [
        diagnostics.DiagnosticRecord(**{**zero, "t": ti, **{k: v[i] for k, v in columns.items()}})
        for i, ti in enumerate(t)])


# record times a subnormal apart make a check's quotient overflow
SUBNORMAL_STEPS = {
    "gronwall": ([0.0, 5e-324, 1.0], {"x_norm": [1.0, 1e6, 1e6]},
                 "gronwall_constant", "gronwall constant is not finite"),
    "gamma": ([0.0, 5e-324, 1e-323] + [1e-3 * i for i in range(1, 58)],
              {"gamma_norm": [1.0 + i for i in range(60)], "diss_u": [1.0] * 60,
               "diss_grad_u": [1.0] * 60},
              "gamma_log_constant", "gamma log-derivative constant is not finite"),
}


@pytest.mark.parametrize("case", list(SUBNORMAL_STEPS))
def test_check_quotient_that_overflows_reads_inf_without_a_warning(case, tmp_path, capsys):
    t, columns, key, failure = SUBNORMAL_STEPS[case]
    series = tmp_path / "series.csv"
    write_synthetic_series(series, t, **columns)
    assert main(["check", str(series)]) == 4
    out, err = capsys.readouterr()
    assert json.loads(out)[key] == float("inf")
    assert f'"{key}": Infinity' in out
    assert err == failure + "\n"


# valid finite inputs whose arithmetic overflows to the right limit, inf
def _energy_overflow_series(tmp_path):
    series = tmp_path / "series.csv"
    write_synthetic_series(series, [0.0, 1.0, 2.0], energy=[1.0, 1.5e308, 1.0],
                           cum_diss=[0.0, 1.5e308, 1.6e308])
    return ["check", str(series), "--nu", "1.2"]


def _decay_overflow_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG.replace("params.alpha = 2.0", "params.alpha = 400"))
    return ["run", str(cfg)]


@pytest.mark.parametrize("command, code, key, value, err", [
    (_energy_overflow_series, 0, "energy_residual", float("inf"), ""),
    (_decay_overflow_run, 4, "status", "check_failed", "non-finite record field diss_u at t=0.0\n"),
    (lambda tmp_path: ["osgood", "power_log", "c=1e308"], 0, "partial_integral", 1.042422198353274e-309,
     ""),
], ids=["energy_residual", "decay_rates", "power_log_integrand"])
def test_overflow_on_valid_input_reads_inf_without_a_warning(command, code, key, value, err, tmp_path,
                                                             capsys):
    assert main(command(tmp_path)) == code
    out, captured_err = capsys.readouterr()
    assert json.loads(out)[key] == value
    assert captured_err == err


@pytest.mark.parametrize("edits, field", [
    ({"params.alpha = 2.0": "params.alpha = 2.0\nparams.beta = 400"}, "diss_b"),
    ({"params.nu = 1.0": "params.nu = 0.0", "params.alpha = 2.0": "params.alpha = 400"}, "diss_u"),
], ids=["eta_zero_beta_400", "nu_zero_alpha_400"])
def test_zero_coefficient_decays_at_rate_zero_where_its_symbol_overflows(edits, field, tmp_path,
                                                                         capsys):
    """The rate of a field with coefficient 0 is 0, not 0 * inf = nan: the run takes its five
    steps and fails only on that field's dissipation norm, which overflows in the record."""
    text = BASE_CFG.replace("stepper.t_end = 0.02", "stepper.t_end = 0.005")
    for old, new in edits.items():
        text = text.replace(old, new)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg)]) == 4
    out, err = capsys.readouterr()
    summary = json.loads(out)
    assert (summary["status"], summary["steps"], summary["t_final"]) == ("check_failed", 5, 0.005)
    assert err == f"non-finite record field {field} at t=0.0\n"


def test_power_log_with_c_near_the_float_maximum_runs(tmp_path, capsys):
    series, cfg = tmp_path / "series.csv", tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG.replace("kind = constant_one", "kind = power_log\nparams.g1.c = 1e308")
                   + f"out.series = {series}\n")
    assert main(["run", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    split_low = diagnostics.read_series(str(series))[:, RECORD_FIELDS.index("split_low")]
    assert np.all(np.isfinite(split_low))


def test_spiky_with_a_height_past_the_square_root_of_the_float_maximum(tmp_path, capsys):
    """The first jump of spiky height=1e300 lies past every finite radius, so it is g = 1."""
    assert main(["osgood", "spiky", "height=1e300"]) == 0
    spiky = json.loads(capsys.readouterr().out)
    assert main(["osgood", "constant_one"]) == 0
    assert {**spiky, "g": "constant_one"} == json.loads(capsys.readouterr().out)
    cfg = tmp_path / "run.cfg"
    for name, g1 in (("spiky", "spiky\nparams.g1.height = 1e300"), ("constant_one", "constant_one")):
        cfg.write_text(BASE_CFG.replace("kind = constant_one", f"kind = {g1}")
                       + f"out.series = {tmp_path / name}.csv\n")
        assert main(["run", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "spiky.csv").read_bytes() == (tmp_path / "constant_one.csv").read_bytes()


def test_spiky_with_a_subnormal_period_runs_and_classifies_without_a_warning(tmp_path, capsys):
    """At these periods g reaches 2^511 by sigma = 1, so its Osgood integrand 1/g^2 falls
    below the smallest normal float past the first windows, which reads as converging.
    g stays finite at every radius of the run, whose records are finite."""
    cfg = tmp_path / "run.cfg"
    for period in ("1e-308", "5e-324"):
        assert main(["osgood", "spiky", f"period={period}"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["classification"] == "converges" and err == ""
        cfg.write_text(BASE_CFG.replace("kind = constant_one", f"kind = spiky\nparams.g1.period = {period}"))
        assert main(["run", str(cfg)]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["osgood_g1"] == "converges" and err == ""


def test_sweep(cfg_path, capsys):
    code = main(["sweep", str(cfg_path), "--vary", "g1=constant_one,iterated_log"])
    out = capsys.readouterr().out
    assert code == 0
    assert "g1=constant_one" in out and "g1=iterated_log" in out


def test_sweep_reports_config_error_once(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(OVERFLOWING[1])
    assert main(["sweep", str(path), "--vary", "g1=constant_one,iterated_log"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: g1=constant_one: int too large to convert to float\n"


def test_sweep_requires_g1(cfg_path):
    assert main(["sweep", str(cfg_path), "--vary", "nu=1,2"]) == 2


def test_sweep_keeps_the_base_g1_parameters(tmp_path, capsys):
    """Sweeping g1 sets params.g1.kind only, so params.g1.c = 3 stays and the
    swept run reports what lmhd run of the base reports."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG.replace("params.nu = 1.0", "params.nu = 0.01")
                   .replace("kind = constant_one", "kind = power_log\nparams.g1.c = 3.0"))
    assert main(["run", str(cfg)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["gronwall_constant"] > 0.0
    assert main(["sweep", str(cfg), "--vary", "g1=power_log"]) == 0
    assert capsys.readouterr().out == (f"g1=power_log: status=ok max_X={summary['max_x_norm']:.6g} "
                                       f"gronwall_C={summary['gronwall_constant']:.6g}\n")


def test_sweep_validates_every_value_before_the_first_run(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG + f"out.series = {tmp_path / 'series.csv'}\n")
    assert main(["sweep", str(cfg), "--vary", "g1=constant_one,mystery"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert not list(tmp_path.glob("series*"))


# (--vary value, extra config lines): the first value runs, the second is rejected by
# run_experiment's set-up checks, which the sweep makes on every value before the first run
LATE_REJECTED = {
    "grid_points": ("grid.points=16,12", ""),
    "nu": ("params.nu=1,-1", ""),
    "cfl": ("stepper.cfl=0.5,2", ""),
    "max_steps": ("stepper.max_steps=5,0", ""),
    "cadence": ("diag.cadence=1,0", ""),
    "ic_name": ("ic.name=orszag_tang_2d,nope", ""),
    "snapshot_after_t_end": ("stepper.t_end=0.05,0.02",
                             "out.snapshots = {dir}/snap\nout.snapshot_times = 0.04\n"),
}


@pytest.mark.parametrize("vary, extra", list(LATE_REJECTED.values()), ids=list(LATE_REJECTED))
def test_sweep_rejects_every_value_before_the_first_run(tmp_path, capsys, vary, extra):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG + f"out.series = {tmp_path / 'series.csv'}\n" + extra.format(dir=tmp_path))
    assert main(["sweep", str(cfg), "--vary", vary]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    key, values = vary.split("=")
    assert captured.err.startswith(f"config error: {key}={values.split(',')[1]}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("vary, repeated", [("params.alpha=2.0,2.0", "params.alpha=2.0"),
                                            ("g1=constant_one,power, constant_one", "g1=constant_one")])
def test_sweep_rejects_a_repeated_value_before_the_first_run(tmp_path, capsys, vary, repeated):
    """Two runs of one value would write the same files, so the sweep exits 2 with nothing run."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG + f"out.series = {tmp_path / 'series.csv'}\n")
    assert main(["sweep", str(cfg), "--vary", vary]) == 2
    assert capsys.readouterr() == ("", f"config error: --vary lists {repeated} twice\n")
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_sweep_runs_values_that_differ_as_strings(tmp_path, capsys):
    """2.0 and 2 are one alpha but two values, each with its own files."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG + f"out.series = {tmp_path / 'series.csv'}\n")
    assert main(["sweep", str(cfg), "--vary", "params.alpha=2.0,2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["params.alpha=2.0", "params.alpha=2"]
    first, second = (tmp_path / f"series_{alpha}.csv" for alpha in ("2.0", "2"))
    assert first.read_text() == second.read_text()


def test_sweep_builds_each_set_up_once(cfg_path, capsys, monkeypatch):
    calls = []
    original = diagnostics.initial_condition
    monkeypatch.setattr(diagnostics, "initial_condition",
                        lambda *args: calls.append(args[0]) or original(*args))
    assert main(["sweep", str(cfg_path), "--vary", "g1=constant_one,iterated_log,power"]) == 0
    assert calls == ["orszag_tang_2d"] * 3


def test_sweep_varies_any_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG + f"out.series = {tmp_path / 'series.csv'}\n")
    assert main(["sweep", str(cfg), "--vary", "params.alpha=1.5,2.0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["params.alpha=1.5", "params.alpha=2.0"]
    low, high = (tmp_path / f"series_{alpha}.csv" for alpha in ("1.5", "2.0"))
    assert low.is_file() and high.is_file()
    assert low.read_text() != high.read_text()


def test_sweep_writes_each_value_its_own_snapshots(tmp_path, capsys):
    """Each value's snapshots take the prefix `<prefix>_<value>`, as its series takes
    `<stem>_<value><suffix>`, so no run overwrites another's file."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG + f"out.series = {tmp_path / 'series.csv'}\n"
                   f"out.snapshots = {tmp_path / 'snap'}\nout.snapshot_times = 0.002\n")
    assert main(["sweep", str(cfg), "--vary", "params.nu=0.05,5.0"]) == 0
    for nu in ("0.05", "5.0"):
        series = tmp_path / f"series_{nu}.csv"
        paths = json.loads(Path(f"{series}.summary.json").read_text())["snapshots"]
        assert paths == [f"{tmp_path / 'snap'}_{nu}_t0.002000.lmhd"]
        assert_snapshot_energy_is_recorded(paths[0], 0.002, series)


def test_check_flags_override_config_keys(tmp_path, capsys):
    """--nu 50 on --config gives what a config with params.nu = 50 gives."""
    series, cfg, copy = tmp_path / "series.csv", tmp_path / "run.cfg", tmp_path / "nu50.cfg"
    cfg.write_text(BASE_CFG + f"out.series = {series}\n")
    copy.write_text(cfg.read_text().replace("params.nu = 1.0", "params.nu = 50"))
    assert main(["run", str(cfg)]) == 0
    reports = []
    for argv in (["--config", str(cfg)], ["--config", str(cfg), "--nu", "50"], ["--config", str(copy)]):
        capsys.readouterr()
        assert main(["check", str(series), *argv]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    plain, flagged, copied = reports
    assert flagged == copied
    assert flagged["energy_residual"] != plain["energy_residual"]


# every catalog kind; each reads only parameters that have defaults
G1_CATALOG = tuple(multiplier._PARAMETERS)


@pytest.mark.parametrize("kind", G1_CATALOG)
def test_every_catalog_kind_is_reachable_from_a_command(kind, tmp_path, capsys):
    """No catalog entry that no command can use: osgood classifies it, and a run takes it as g1."""
    assert main(["osgood", kind]) == 0
    assert json.loads(capsys.readouterr().out)["g"] == kind
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG.replace("kind = constant_one", f"kind = {kind}")
                   .replace("stepper.t_end = 0.02", "stepper.t_end = 0.002"))
    assert main(["run", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] == 2


@pytest.fixture(scope="module")
def series_64(tmp_path_factory):
    """A written 64^2 series of 151 records, enough for every check, and the run's records."""
    series = tmp_path_factory.mktemp("series64") / "series.csv"
    cfg = series.with_name("run.cfg")
    cfg.write_text(BASE_CFG.replace("grid.points = 16", "grid.points = 64")
                   .replace("stepper.t_end = 0.02", "stepper.t_end = 0.15")
                   + f"out.series = {series}\n")
    result = diagnostics.run_experiment(diagnostics.parse_config(str(cfg)))
    assert result.status == "ok" and len(result.records) == 151
    return series, result.records


@pytest.mark.parametrize("g1", G1_CATALOG)
def test_check_prints_the_checks_of_the_records(g1, series_64, capsys, monkeypatch):
    """lmhd check parses its series by one read_series call and prints, byte for byte,
    the report evaluate_checks gives on the run's list of records."""
    series, records = series_64
    original, calls = diagnostics.read_series, []

    def counted(path):
        calls.append(path)
        return original(path)

    # patched under every name an lmhd module holds it by
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "lmhd" or name.startswith("lmhd.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    assert main(["check", str(series), "--g1", g1, "--energy-tol", "1e-4"]) == 0
    assert calls == [str(series)]
    config = config_from_mapping({"params.g1.kind": g1, "check.energy_tol": "1e-4"})
    report, failures = evaluate_checks(records, config, None)
    assert not failures and "gamma_log_constant" in report
    assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"


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


@pytest.mark.parametrize("args, message", [
    (["power_log", "c=0.5"], "power_log requires c >= 1 so that g >= 1"),
    (["power", "epsilon=0"], "power requires epsilon > 0"),
    (["spiky", "period=0"], "spiky requires period > 0 and height >= 1"),
    (["spiky", "height=0.5"], "spiky requires period > 0 and height >= 1"),
])
def test_osgood_parameter_outside_its_range_exits_2(args, message, capsys):
    assert main(["osgood", *args]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")


@pytest.mark.parametrize("text, message", [
    (BASE_CFG.replace("grid.n = 2", "grid.n = 3").replace("orszag_tang_2d", "taylor_green_2d"),
     "taylor_green_2d requires a 2D grid"),
    (SINGLE_MODE_CFG + "ic.k = 0,0\n", "single_mode requires a nonzero 2-vector k"),
], ids=["taylor_green_3d", "single_mode_zero_k"])
def test_run_initial_condition_outside_its_domain_exits_2(text, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")


def test_osgood_spiky_of_height_one_is_constant_one(capsys):
    """height = 1 never jumps, so the integral is constant_one's bit for bit."""
    assert main(["osgood", "spiky", "height=1"]) == 0
    spiky = json.loads(capsys.readouterr().out)
    assert main(["osgood", "constant_one"]) == 0
    constant = json.loads(capsys.readouterr().out)
    assert spiky["partial_integral"] == constant["partial_integral"] == 5.4392026312362045
    assert spiky["classification"] == constant["classification"] == "diverges"


def test_osgood_power_whose_tail_underflows_converges(capsys):
    """At epsilon = 50 the last window integrals underflow, which reads as convergence."""
    assert main(["osgood", "power", "epsilon=50"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["classification"] == "converges"
    assert 0.0 < out["partial_integral"] < 1e-70
