import json
import subprocess
import sys

import numpy as np
import pytest

from irssec import cli, model
from irssec.channel import generate_channels, load_scenario, scenario_to_dict, two_user_scenario
from irssec.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_SOLVER, main


def write_scenario(tmp_path, name="scenario.json", **kwargs):
    defaults = dict(d1=20.0, n_y=2, n_z=1, seed=3)
    defaults.update(kwargs)
    config = two_user_scenario(**defaults)
    path = tmp_path / name
    path.write_text(json.dumps(scenario_to_dict(config)))
    return str(path)


def infeasible_scenario(tmp_path):
    # confidential user pushed far out; eavesdropper's direct path dominates
    # any achievable aligned gain for user 1
    config = two_user_scenario(d1=20.0, n_y=2, n_z=1, seed=3, rician_kappa=1e12)
    data = scenario_to_dict(config)
    data["distance_overrides"]["ap_user_m"] = [5000.0, 2.0]
    data["distance_overrides"]["irs_user"][0]["distance_m"] = 5000.0
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_region_no_irs_deterministic(tmp_path):
    scn = write_scenario(tmp_path)
    out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    base = ["region", "--scenario", scn, "--scheme", "no-irs", "--grid", "5", "--seed", "7"]
    assert main(base + ["--out", out_a]) == EXIT_OK
    assert main(base + ["--out", out_b]) == EXIT_OK
    assert open(out_a, "rb").read() == open(out_b, "rb").read()
    lines = open(out_a).read().strip().splitlines()
    assert lines[0] == "r_m_target,r_c_achieved,alpha_w,beta_w,upper_bound,feasible,scheme,seed"
    assert len(lines) == 6
    targets = [float(l.split(",")[0]) for l in lines[1:]]
    assert targets == sorted(targets)


def test_region_cct_byte_identical_across_reruns(tmp_path, monkeypatch):
    scn = write_scenario(tmp_path)
    base = ["region", "--scenario", scn, "--scheme", "cct", "--grid", "4",
            "--t-alpha", "8", "--t-g", "60", "--seed", "5"]
    out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    monkeypatch.setenv("IRSSEC_THREADS", "1")
    assert main(base + ["--out", out_a]) == EXIT_OK
    monkeypatch.setenv("IRSSEC_THREADS", "3")
    assert main(base + ["--out", out_b]) == EXIT_OK
    assert open(out_a, "rb").read() == open(out_b, "rb").read()
    assert (open(out_a + ".phases.json", "rb").read()
            == open(out_b + ".phases.json", "rb").read())


def test_region_wscm_byte_identical_across_reruns(tmp_path, monkeypatch):
    scn = write_scenario(tmp_path)
    base = ["region", "--scenario", scn, "--scheme", "wscm", "--grid", "4",
            "--t-lambda", "8", "--t-g", "60", "--seed", "5"]
    out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    monkeypatch.setenv("IRSSEC_THREADS", "1")
    assert main(base + ["--out", out_a]) == EXIT_OK
    monkeypatch.setenv("IRSSEC_THREADS", "3")
    assert main(base + ["--out", out_b]) == EXIT_OK
    assert open(out_a, "rb").read() == open(out_b, "rb").read()
    assert (open(out_a + ".phases.json", "rb").read()
            == open(out_b + ".phases.json", "rb").read())


def test_region_ignores_a_non_numeric_thread_setting(tmp_path, monkeypatch):
    scn = write_scenario(tmp_path)
    base = ["region", "--scenario", scn, "--scheme", "no-irs", "--grid", "5", "--seed", "7"]
    out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    monkeypatch.delenv("IRSSEC_THREADS", raising=False)
    assert main(base + ["--out", out_a]) == EXIT_OK
    monkeypatch.setenv("IRSSEC_THREADS", "two")
    assert main(base + ["--out", out_b]) == EXIT_OK
    assert open(out_a, "rb").read() == open(out_b, "rb").read()


def test_region_closed_loop_qoms_recheck(tmp_path):
    scn = write_scenario(tmp_path)
    out = str(tmp_path / "r.csv")
    assert main(["region", "--scenario", scn, "--scheme", "cct", "--grid", "5",
                 "--t-alpha", "10", "--t-g", "80", "--seed", "2", "--out", out]) == EXIT_OK
    config = load_scenario(scn)
    ch = generate_channels(config)
    p = config.total_power_w
    rows = [l.split(",") for l in open(out).read().strip().splitlines()[1:]]
    phases = json.load(open(out + ".phases.json"))["points"]
    for row, rec in zip(rows, phases):
        if row[5] != "true":
            continue
        r_m, alpha = float(row[0]), float(row[2])
        assert rec["phases_rad"] is not None
        v = np.exp(1j * np.array(rec["phases_rad"]))
        got = model.multicast_rate(ch, v, model.PowerSplit(alpha, p - alpha))
        assert got >= r_m - 1e-6


def test_region_exit_2_for_infeasible_scenario(tmp_path, capsys):
    scn = infeasible_scenario(tmp_path)
    code = main(["region", "--scenario", scn, "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "user 2" in err


def test_region_exit_1_for_bad_config(tmp_path, capsys):
    assert main(["region", "--scenario", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    scn = write_scenario(tmp_path)
    assert main(["region", "--scenario", scn, "--grid", "1",
                 "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    assert main(["region", "--scenario", scn, "--scheme", "bogus",
                 "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    capsys.readouterr()
    for bad in (["--t-alpha", "1"], ["--t-g", "0"], ["--scheme", "wscm", "--t-lambda", "1"]):
        assert main(["region", "--scenario", scn, "--out", str(tmp_path / "x.csv")]
                    + bad) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: --t-")
    assert main(["analyze", "--scenario", scn, "--t-alpha", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: --t-alpha")


def test_region_exit_1_for_malformed_scenario_values(tmp_path, capsys):
    data = scenario_to_dict(two_user_scenario(d1=20.0, n_y=2, n_z=1, seed=3))
    bad_power = dict(data, total_power_w="abc")
    half_angle = json.loads(json.dumps(data))
    del half_angle["distance_overrides"]["irs_user"][0]["elevation_rad"]
    # an infinite coordinate is a scenario error, not a solver failure (exit 3)
    far_ap = dict(data, ap_position=[0.0, 0.0, float("inf")], distance_overrides=None)
    for i, bad in enumerate((bad_power, half_angle, far_ap)):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(bad))
        assert main(["region", "--scenario", str(path),
                     "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("scenario error: ")


def test_region_exit_1_for_nan_powers_and_non_numeric_overrides(tmp_path, capsys):
    data = scenario_to_dict(two_user_scenario(d1=20.0, n_y=2, n_z=1, seed=3))
    nan_power = dict(data, total_power_w="nan")
    nan_noise = dict(data, noise_powers_w=[data["noise_powers_w"][0], "nan"])
    bad_distance = json.loads(json.dumps(data))
    bad_distance["distance_overrides"]["irs_user"][1]["distance_m"] = "abc"
    expect = ("total power", "noise powers", "irs_user[1].distance_m")
    for i, (bad, text) in enumerate(zip((nan_power, nan_noise, bad_distance), expect)):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(bad))
        assert main(["region", "--scenario", str(path),
                     "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and text in err


def test_region_exit_1_for_unusable_scenario_scalars(tmp_path, capsys):
    data = scenario_to_dict(two_user_scenario(d1=20.0, n_y=2, n_z=1, seed=3))
    cases = (("rician_kappa", float("nan")), ("pathloss_exponent_irs", float("nan")),
             ("element_spacing_over_wavelength", float("nan")),
             ("reference_distance_m", -1.0), ("reference_distance_m", 0.0))
    for i, (name, value) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(dict(data, **{name: value})))
        assert main(["region", "--scenario", str(path),
                     "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and name in err


def region_exit(tmp_path, data, name="bad.json", scheme="no-irs"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    out = tmp_path / (name + ".csv")
    return main(["region", "--scenario", str(path), "--scheme", scheme, "--grid", "3",
                 "--out", str(out)]), out


def test_region_exit_1_for_non_integer_seed(tmp_path, capsys):
    data = scenario_to_dict(two_user_scenario(d1=20.0, n_y=2, n_z=1, seed=3))
    for value in ("x", 1.5, -5):
        code, _ = region_exit(tmp_path, dict(data, seed=value))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and "seed" in err


@pytest.mark.parametrize("command, extra", [("region", []),
                                            ("analyze", ["--v-source", "random-irs"]),
                                            ("sweep-power", ["--powers", "1"])])
def test_negative_seed_flag_exits_1(tmp_path, capsys, command, extra):
    scn = write_scenario(tmp_path)
    out = tmp_path / "out.csv"
    assert main([command, "--scenario", scn, "--seed", "-1", "--out", str(out)]
                + extra) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: --seed must be at least 0\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, least", [("--grid", 2), ("--t-alpha", 2), ("--t-lambda", 2),
                                         ("--t-g", 1)])
def test_count_flag_below_its_least_value_exits_1(tmp_path, capsys, flag, least):
    scn = write_scenario(tmp_path)
    out = tmp_path / "out.csv"
    assert main(["region", "--scenario", scn, flag, str(least - 1), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {flag} must be at least {least}\n"
    assert not out.exists()


def test_oracle_scheme_rejects_a_large_surface_before_any_solve(tmp_path, capsys, monkeypatch):
    scn = write_scenario(tmp_path, n_y=5, n_z=2)
    out = tmp_path / "out.csv"
    solved = []
    monkeypatch.setattr(cli.algorithms, "solve_batch", lambda *args: solved.append(args))
    for command, extra in (("region", []), ("sweep-power", ["--powers", "1"])):
        assert main([command, "--scenario", scn, "--scheme", "oracle", "--out", str(out)]
                    + extra) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: oracle grid too large: 64^10 x 201")
    assert solved == [] and not out.exists()


def test_region_exit_1_for_fractional_surface_size(tmp_path, capsys):
    data = scenario_to_dict(two_user_scenario(d1=20.0, n_y=2, n_z=1, seed=3))
    for name in ("n_y", "n_z"):
        code, _ = region_exit(tmp_path, dict(data, **{name: 2.5}))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and name in err


def test_region_exit_1_naming_a_scenario_list_that_is_no_list(tmp_path, capsys):
    data = scenario_to_dict(two_user_scenario(d1=20.0, n_y=2, n_z=1, seed=3))
    for name in ("user_positions", "noise_powers_w"):
        code, _ = region_exit(tmp_path, dict(data, **{name: 5}))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and name in err


def test_region_reads_numeric_string_scalars(tmp_path, capsys):
    data = scenario_to_dict(two_user_scenario(d1=20.0, n_y=2, n_z=1, seed=3))
    code, ref = region_exit(tmp_path, dict(data, rician_kappa=5.0), "num.json")
    assert code == EXIT_OK
    code, got = region_exit(tmp_path, dict(data, rician_kappa="5"), "text.json")
    assert code == EXIT_OK
    assert got.read_bytes() == ref.read_bytes()
    capsys.readouterr()
    for name in ("rician_kappa", "pathloss_exponent_irs", "reference_distance_m"):
        code, _ = region_exit(tmp_path, dict(data, **{name: "abc"}))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and name in err


def test_oracle_scheme_dominates_cct_run(tmp_path):
    scn = write_scenario(tmp_path)
    out_o, out_c = str(tmp_path / "o.csv"), str(tmp_path / "c.csv")
    common = ["--scenario", scn, "--grid", "6", "--seed", "4"]
    assert main(["region"] + common + ["--scheme", "oracle", "--out", out_o]) == EXIT_OK
    assert main(["region"] + common + ["--scheme", "cct", "--t-alpha", "40",
                 "--t-g", "300", "--out", out_c]) == EXIT_OK
    oracle = [l.split(",") for l in open(out_o).read().strip().splitlines()[1:]]
    cct = [l.split(",") for l in open(out_c).read().strip().splitlines()[1:]]
    # the exhaustive reference upper-bounds the sweep within its own grid slack
    for (ro, rc) in zip(oracle, cct):
        assert float(ro[0]) == pytest.approx(float(rc[0]))
        if ro[5] == "true" and rc[5] == "true":
            assert float(ro[1]) >= float(rc[1]) - 0.05


def test_analyze_report_keys(tmp_path):
    scn = write_scenario(tmp_path)
    out = str(tmp_path / "report.json")
    assert main(["analyze", "--scenario", scn, "--v-source", "random-irs",
                 "--t-g", "40", "--out", out]) == EXIT_OK
    rep = json.load(open(out))
    assert set(rep) == {"feasibility", "classification", "e_factors", "eta",
                        "gap_bounds", "complexity"}
    assert rep["feasibility"]["verdict"] in ("Feasible", "Undetermined")
    assert rep["eta"] > 0
    assert rep["complexity"]["cct_flops"] > rep["complexity"]["wscm_flops"] > 0


def test_analyze_infeasible_scenario_reports_witness(tmp_path):
    scn = infeasible_scenario(tmp_path)
    out = str(tmp_path / "report.json")
    assert main(["analyze", "--scenario", scn, "--out", out]) == EXIT_OK
    rep = json.load(open(out))
    assert rep["feasibility"]["verdict"] == "Infeasible"
    assert rep["feasibility"]["witness_user"] == 2
    assert rep["classification"] is None


def test_analyze_accepts_phase_file(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    vfile = tmp_path / "phases.json"
    vfile.write_text(json.dumps([0.1, 0.2]))
    out = str(tmp_path / "report.json")
    assert main(["analyze", "--scenario", scn, "--v-source", str(vfile),
                 "--out", out]) == EXIT_OK
    assert main(["analyze", "--scenario", scn, "--v-source",
                 str(tmp_path / "nope.json"), "--out", out]) == EXIT_CONFIG
    vfile.write_text(json.dumps([0.1, 0.2, 0.3]))
    assert main(["analyze", "--scenario", scn, "--v-source", str(vfile),
                 "--out", out]) == EXIT_CONFIG
    # a report of a non-finite pattern would not be valid JSON
    for text in ("[0.1, NaN]", "[Infinity, 0.2]"):
        vfile.write_text(text)
        assert main(["analyze", "--scenario", scn, "--v-source", str(vfile),
                     "--out", out + ".bad"]) == EXIT_CONFIG
        assert "non-finite radians" in capsys.readouterr().err
    assert not (tmp_path / "report.json.bad").exists()
    # a JSON object is no phase list
    vfile.write_text(json.dumps({"a": 1}))
    assert main(["analyze", "--scenario", scn, "--v-source", str(vfile),
                 "--out", out]) == EXIT_CONFIG
    assert "error: cannot read phase file" in capsys.readouterr().err


def test_sweep_power_nested_regions(tmp_path):
    scn = write_scenario(tmp_path)
    out = str(tmp_path / "p.csv")
    assert main(["sweep-power", "--scenario", scn, "--powers", "0.1,1",
                 "--scheme", "no-irs", "--grid", "6", "--out", out]) == EXIT_OK
    lines = open(out).read().strip().splitlines()
    assert lines[0].endswith(",power_w")
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 12
    lo = [r for r in rows if float(r[-1]) == 0.1]
    hi = [r for r in rows if float(r[-1]) == 1.0]

    def staircase(rows_, rm):
        vals = [float(r[1]) for r in rows_ if float(r[0]) >= rm - 1e-12 and r[5] == "true"]
        return max(vals) if vals else 0.0

    for r in lo:
        if r[5] == "true":
            assert staircase(hi, float(r[0])) >= float(r[1]) - 0.02


def test_sweep_power_rejects_empty_and_negative(tmp_path):
    scn = write_scenario(tmp_path)
    out = str(tmp_path / "p.csv")
    assert main(["sweep-power", "--scenario", scn, "--powers", "",
                 "--out", out]) == EXIT_CONFIG
    assert main(["sweep-power", "--scenario", scn, "--powers", "-1",
                 "--out", out]) == EXIT_CONFIG


@pytest.mark.parametrize("powers", ["nan", "inf", "1,nan", "1,-inf"])
def test_sweep_power_rejects_non_finite_powers_before_sweeping(tmp_path, capsys, monkeypatch,
                                                               powers):
    scn = write_scenario(tmp_path)
    out = tmp_path / "p.csv"
    swept = []
    monkeypatch.setattr(cli.algorithms, "sweep_region",
                        lambda *args, **kwargs: swept.append(args))
    assert main(["sweep-power", "--scenario", scn, "--powers", powers,
                 "--out", str(out)]) == EXIT_CONFIG
    assert "error: powers must be finite and positive" in capsys.readouterr().err
    assert swept == [] and not out.exists()


def test_sweep_power_solves_powers_far_above_the_scenario_power(tmp_path):
    # the max-min SNR rows are scaled to order one at any power, so the
    # multicast bound and the eavesdropper program solve at 1e20 W, and the
    # floor-0 secrecy rate, saturated by then, stays the 1e6 W one
    scn = write_scenario(tmp_path)
    out = tmp_path / "p.csv"
    assert main(["sweep-power", "--scenario", scn, "--powers", "1e6,1e7,1e10,1e20",
                 "--scheme", "cct", "--grid", "3", "--t-alpha", "4", "--t-g", "20",
                 "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    floor0 = {float(r[-1]): float(r[1]) for r in rows if float(r[0]) == 0.0}
    assert sorted(floor0) == [1e6, 1e7, 1e10, 1e20]
    for r_c in floor0.values():
        assert r_c == pytest.approx(floor0[1e6], abs=1e-6)


@pytest.mark.filterwarnings("error")
def test_sweep_power_exits_3_when_the_power_overflows_the_solver(tmp_path, capsys):
    # at 1e300 W the lifted rows overflow while they are equilibrated: the
    # solve is a breakdown, never an optimum with multipliers that are not
    # finite, and the run ends with an error line instead of a traceback or
    # an overflow warning
    scn = write_scenario(tmp_path)
    out = tmp_path / "p.csv"
    assert main(["sweep-power", "--scenario", scn, "--powers", "1e300", "--scheme", "cct",
                 "--grid", "3", "--t-alpha", "4", "--t-g", "20", "--out", str(out)]) == EXIT_SOLVER
    assert "solver failure:" in capsys.readouterr().err


def test_analyze_has_no_multicast_floor_option(tmp_path, capsys):
    # the report holds no power-split entries, so a floor has nothing to set
    scn = write_scenario(tmp_path)
    out = tmp_path / "report.json"
    assert main(["analyze", "--scenario", scn, "--v-source", "random-irs", "--t-g", "40",
                 "--r-m", "-1", "--out", str(out)]) == EXIT_CONFIG
    assert "unrecognized arguments: --r-m" in capsys.readouterr().err
    assert not out.exists()


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "irssec.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "region" in proc.stdout
