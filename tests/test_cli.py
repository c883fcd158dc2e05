"""Command-line surface: determinism, round trips, exit codes, config."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import depthrec.criticals as criticals_mod
from depthrec.cli import _build_parser, _load_config, main
from depthrec.modulus import ClosedFormModulus
from depthrec.reports import read_solution_csv, read_u_csv


FIXTURES = {
    "unit": (["--u", "1", "--domain", "0", "1.5707963267948966"], "1"),
    "parabola": (["--u", "pi^2/16 - pi^2/128*theta^2", "--domain", "0", "2"],
                 "pi^2/16 - pi^2/128*theta^2"),
    "line": (["--u", "25/cos(theta)^4", "--domain", "0", "1.3"],
             "25/cos(theta)^4"),
}


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    assert code == 0, f"command failed: {argv}"
    return out.read_bytes()


def test_forward_identity(tmp_path):
    out = tmp_path / "u.csv"
    code = main(["forward", "--rho", "cos(theta)", "--domain", "0", "1.5",
                 "--out", str(out)])
    assert code == 0
    u = read_u_csv(str(out))
    np.testing.assert_allclose(u.values, 1.0, atol=1e-12)


def test_maximal_constant_json(tmp_path):
    out = tmp_path / "max.json"
    code = main(["maximal", "--u", "1", "--domain", "0", "1.5", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    rhos = report["maximal"]["pieces"][0]["nodes"]["rho"]
    np.testing.assert_allclose(rhos, 1.0, atol=1e-12)
    assert report["criticals"]["dense"] is True


def test_solve_matches_closed_form(tmp_path):
    out = tmp_path / "sol.csv"
    code = main(["solve", "--u", "1", "--ic", "0", "0.5", "--sign", "+",
                 "--domain", "0", "1.5", "--out", str(out)])
    assert code == 0
    cols = read_solution_csv(str(out))
    truth = np.sin(cols["theta"] + math.pi / 6)
    assert np.max(np.abs(cols["rho"] - truth)) < 1e-8


def test_solution_csv_roundtrip_residual(tmp_path):
    out = tmp_path / "sol.csv"
    main(["solve", "--u", "25/cos(theta)^4", "--ic", "0.3", str(5 / math.cos(0.3)),
          "--sign", "-", "--direction", "backward", "--domain", "0", "1.3",
          "--out", str(out)])
    cols = read_solution_csv(str(out))
    u = ClosedFormModulus("25/cos(theta)^4", (0.0, 1.3))
    residuals = np.abs(cols["drho"] ** 2 + cols["rho"] ** 2
                       - np.array([u.value(float(t)) for t in cols["theta"]]))
    assert residuals.max() < 1e-8 * (1 + u.scale)
    # the x,y columns are the plane points of the polar parametrization
    np.testing.assert_allclose(cols["x"], cols["rho"] * np.cos(cols["theta"]),
                               atol=1e-14)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_byte_identical_reruns(tmp_path, fixture):
    base, _expr = FIXTURES[fixture]
    commands = [
        ["validate"] + base,
        ["critical"] + base,
        ["maximal"] + base,
        ["plot"] + base,
    ]
    if fixture == "unit":
        commands += [
            ["solve", "--ic", "0", "0.5", "--sign", "+"] + base,
            ["enumerate", "--ic", "0", "0.5", "--max-switches", "1"] + base,
            ["branch", "--theta0", "0"] + base,
            ["cone", "--apex", "0", "--sample", "0.8", str(math.cos(0.5))] + base,
            ["forward", "--rho", "cos(theta)", "--domain", "0", "1.5"],
        ]
    if fixture == "parabola":
        commands += [
            ["branch", "--theta0", "0"] + base,
            ["cone", "--apex", "0"] + base,
        ]
    if fixture == "line":
        commands += [
            ["solve", "--ic", "0.3", str(5 / math.cos(0.3)), "--sign", "-",
             "--direction", "backward"] + base,
            ["branch", "--theta0", "0"] + base,
            ["forward", "--rho", "5/cos(theta)", "--domain", "0", "1.3"],
        ]
    for i, argv in enumerate(commands):
        first = run_to_file(tmp_path, f"{fixture}_{i}_a", argv)
        second = run_to_file(tmp_path, f"{fixture}_{i}_b", argv)
        assert first == second, f"non-deterministic output for {argv}"
        assert first  # non-empty


def test_exit_code_usage_error(capsys):
    assert main(["solve", "--u", "1", "--domain", "0", "1"]) == 2  # missing --ic/--sign
    assert main(["bogus"]) == 2
    assert main([]) == 2
    assert main(["solve", "--ic", "0", "0.5", "--sign", "+", "--domain", "0", "1"]) == 2  # no --u


def test_exit_code_solver_error(capsys):
    # critical IC is not regular: solver error, exit 1
    code = main(["solve", "--u", "1", "--ic", "0", "1", "--sign", "+",
                 "--domain", "0", "1.5"])
    assert code == 1
    assert "not regular" in capsys.readouterr().err


@pytest.mark.parametrize("command,extra", [
    ("solve", ["--sign", "+"]), ("enumerate", []), ("plot", [])])
def test_a_non_finite_ic_is_a_solver_error(tmp_path, capsys, command, extra):
    # a NaN depth was taken as regular, and the solve crashed in math.ceil
    out = tmp_path / "out"
    code = main([command, "--u", "2+0.1*sin(3*theta)", "--domain", "0.2", "2.9",
                 "--ic", "1", "nan", *extra, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "depthrec: IC (1.0, nan) is not finite\n"
    assert not out.exists()


def test_critical_rejects_an_infinite_domain_end(capsys, recwarn):
    # numpy warned of an invalid multiply, and the scan then failed on a NaN angle
    assert main(["critical", "--u", "2", "--domain", "0.2", "inf"]) == 1
    assert capsys.readouterr().err == (
        "depthrec: domain [0.2, inf] has an end that is not finite\n")
    assert not recwarn.list


def test_exit_code_invalid_profile(capsys):
    code = main(["maximal", "--u", "theta - 1", "--domain", "0", "2"])
    assert code == 1


@pytest.mark.parametrize("text,angle", [("1/(theta-1)", "0.2"), ("2-theta", "2.00087890625")])
def test_maximal_names_the_angle_where_the_profile_is_negative(capsys, text, angle):
    code = main(["maximal", "--u", text, "--domain", "0.2", "2.9"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"depthrec: profile is negative at theta={angle}: ")
    assert "critical points" not in err


def test_critical_rejects_a_profile_whose_derivative_overflows(tmp_path, capsys):
    # U' is infinite past 0.8988 on the scan grid: exit 1 with the first
    # such grid angle, where the scan used to find no points and say nothing
    out = tmp_path / "crit.json"
    code = main(["critical", "--u", "2 + (1e154*theta)*(1e154*theta)*1e-308",
                 "--domain", "0.2", "2.9", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "depthrec: profile derivative is not finite at theta=0.9000488281249999: inf\n")
    assert not out.exists()


def test_maximal_rejects_a_non_finite_profile(tmp_path, capsys):
    # exit 1 with the angle, and no report of NaN nodes
    out = tmp_path / "sol.csv"
    code = main(["maximal", "--u", "2 + (1e200*theta)*(1e200*theta)*(theta - 1.5)*0",
                 "--domain", "0.2", "2.9", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "depthrec: profile is not finite at theta=0.2: nan\n"
    assert not out.exists()


def test_config_file_and_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# fixture configuration\n"
        "domain_lo = 0\n"
        "domain_hi = 1.5\n"
        "u = 1\n"
        "max_switches = 1\n")
    out1 = tmp_path / "a.json"
    code = main(["enumerate", "--config", str(cfg), "--ic", "0", "0.5",
                 "--out", str(out1)])
    assert code == 0
    report = json.loads(out1.read_text())
    assert len(report["solutions"]) == 3  # max_switches=1 from config

    # explicit flag beats the config value
    out2 = tmp_path / "b.json"
    code = main(["enumerate", "--config", str(cfg), "--ic", "0", "0.5",
                 "--max-switches", "0", "--out", str(out2)])
    assert code == 0
    report2 = json.loads(out2.read_text())
    assert len(report2["solutions"]) == 2  # no switching allowed


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nope = 1\n")
    assert main(["maximal", "--config", str(cfg), "--u", "1",
                 "--domain", "0", "1"]) == 2


def test_config_rejects_tol_bvp(tmp_path, capsys):
    # rtol and atol are the only tolerances a caller sets; the solver's
    # other tolerances are constants, so their keys must not be accepted
    # silently
    for key, value in (("tol_bvp", "1e-9"), ("tol_contact", "1e-9"), ("tol_floor", "1e-9"),
                       ("series_radius", "0.1"), ("taylor_order", "12")):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key} = {value}\n")
        with pytest.raises(SystemExit, match=f"unknown key '{key}'"):
            _load_config(str(cfg))
        capsys.readouterr()
        assert main(["maximal", "--config", str(cfg), "--u", "1",
                     "--domain", "0", "1"]) == 2
        err = capsys.readouterr().err
        assert f"config {cfg}:1: unknown key '{key}'" in err


@pytest.mark.parametrize("argv", [
    ["maximal", "--series-radius", "0.1"],
    ["maximal", "--taylor-order", "12"],
    ["maximal", "--tol-contact", "1e-9"],
    ["maximal", "--tol-floor", "1e-9"],
    ["critical", "--grid", "512"],
    ["branch", "--theta0", "0", "--order", "8"],
])
def test_removed_tuning_flags_exit_2(argv, capsys):
    assert main(argv + ["--u", "1", "--domain", "0", "1"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


SOLVE_ARGV = ["solve", "--u", "2+0.1*sin(theta)", "--domain", "0.2", "2.9",
              "--ic", "1", "1", "--sign", "+"]


@pytest.mark.parametrize("tolerances,field", [
    (["--rtol", "nan"], "rtol"), (["--rtol", "-1"], "rtol"),
    (["--rtol", "-1", "--atol", "-1"], "rtol"), (["--atol", "inf"], "atol"),
    (["--rtol", "0", "--atol", "0"], "rtol and atol"),
])
def test_unusable_tolerances_exit_1(tmp_path, capsys, tolerances, field):
    # each used to run: a NaN or negative tolerance accepted every step and
    # moved the contact, and two zeros ended in a ZeroDivisionError traceback
    out = tmp_path / "sol.csv"
    assert main(SOLVE_ARGV + tolerances + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"depthrec: {field} must") and err.count("\n") == 1
    assert not out.exists()
    # the same values from a config file
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("".join(f"{flag[2:]} = {value}\n"
                           for flag, value in zip(tolerances[::2], tolerances[1::2])))
    assert main(SOLVE_ARGV + ["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"depthrec: {field} must") and err.count("\n") == 1


@pytest.mark.parametrize("argv,flag,least", [
    (["forward", "--rho", "2 + sin(theta)/4", "--domain", "0.2", "1.2", "--samples", "-5"],
     "--samples", 4),
    (["forward", "--rho", "2 + sin(theta)/4", "--domain", "0.2", "1.2", "--samples", "3"],
     "--samples", 4),
    (["enumerate", "--u", "1", "--domain", "0", "1.5", "--ic", "0.5", "0.5",
      "--max-switches", "-1"], "--max-switches", 0),
    (["plot", "--u", "1", "--domain", "0", "1.5", "--ic", "0.5", "0.5",
      "--max-switches", "-1"], "--max-switches", 0),
    (["enumerate", "--u", "1", "--domain", "0", "1.5", "--fan-size", "-1"], "--fan-size", 1),
    (["enumerate", "--u", "1", "--domain", "0", "1.5", "--fan-size", "0"], "--fan-size", 1),
    (["enumerate", "--u", "1", "--domain", "0", "1.5", "--seed", "-1"], "--seed", 0),
])
def test_counts_below_their_least_exit_2(tmp_path, capsys, argv, flag, least):
    # -5 samples crashed in numpy, 0 to 3 wrote a u.csv that --u-csv rejects,
    # and -1 switches, or a fan of fewer than one IC without --ic, printed no
    # solutions and exited 0; a negative fan seed crashed in numpy
    out = tmp_path / "out"
    value = argv[-1]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{flag} must be at least {least}, got {value}\n"
    assert not out.exists()
    # the same value from a config file is checked as well
    cfg = tmp_path / "count.cfg"
    cfg.write_text(f"{flag[2:].replace('-', '_')} = {value}\n")
    assert main(argv[:-2] + ["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{flag} must be at least {least}, got {value}\n"


def test_counts_at_their_least_run(tmp_path):
    ucsv = tmp_path / "u.csv"
    assert main(["forward", "--rho", "2 + sin(theta)/4", "--domain", "0.2", "1.2",
                 "--samples", "4", "--out", str(ucsv)]) == 0
    assert read_u_csv(str(ucsv)).thetas.size == 4
    out = tmp_path / "e.json"
    assert main(["enumerate", "--u", "1", "--domain", "0", "1.5", "--ic", "0.5", "0.5",
                 "--max-switches", "0", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["solutions"]) == 2
    assert main(["enumerate", "--u", "1", "--domain", "0", "1.5", "--fan-size", "1",
                 "--seed", "0", "--max-switches", "0", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["solutions"]) == 2


def test_flag_prefix_is_a_usage_error_not_a_config_override(tmp_path, capsys):
    # a prefix of --max-switches would be missed by the scan for explicit
    # flags, so the config value would win over it: prefixes are refused
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_switches = 0\n")
    argv = ["enumerate", "--u", "1", "--domain", "0", "1.5", "--ic", "0", "0.5",
            "--config", str(cfg)]
    assert main(argv + ["--max-sw", "2"]) == 2
    assert "unrecognized arguments: --max-sw" in capsys.readouterr().err
    out = tmp_path / "full.json"
    assert main(argv + ["--max-switches", "2", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["solutions"]) == 3


def test_plot_svg_structure(tmp_path):
    out = tmp_path / "plot.svg"
    code = main(["plot", "--u", "pi^2/16 - pi^2/128*theta^2", "--domain", "0", "2",
                 "--ic", "0.5", "0.6", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert 'viewBox="0 0 800 600"' in text
    assert "<path" in text and "<circle" in text


@pytest.mark.parametrize("max_switches,most_pieces", [("0", 1), ("1", 2)])
def test_fan_keeps_the_switch_budget(tmp_path, max_switches, most_pieces):
    # without --ic each sampled IC is enumerated with the caller's budget
    out = tmp_path / "fan.json"
    assert main(["enumerate", "--u", "1", "--domain", "0", "1.5",
                 "--max-switches", max_switches, "--out", str(out)]) == 0
    sols = json.loads(out.read_text())["solutions"]
    assert max(len(sol["pieces"]) for sol in sols) == most_pieces


def test_enumerate_csv_dir(tmp_path):
    csv_dir = tmp_path / "sols"
    code = main(["enumerate", "--u", "1", "--domain", "0", "1.5707963267948966",
                 "--ic", "0", "0.5", "--max-switches", "1",
                 "--csv-dir", str(csv_dir), "--out", str(tmp_path / "e.json")])
    assert code == 0
    files = sorted(csv_dir.glob("solution_*.csv"))
    assert len(files) == 3
    cols = read_solution_csv(str(files[0]))
    assert set(cols) == {"theta", "rho", "drho", "x", "y", "residual"}


def test_branch_json_jets(tmp_path):
    # a closed form's branches run to the IC's order, 20
    out = tmp_path / "branch.json"
    code = main(["branch", "--theta0", "0", "--u", "1",
                 "--domain", "0", "1.5707963267948966", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["branches"]) == 2
    falling = min(report["branches"], key=lambda b: b["beta"])
    np.testing.assert_allclose(falling["derivatives"],
                               [(1, 0, -1, 0)[k % 4] for k in range(21)], atol=1e-12)
    constant = max(report["branches"], key=lambda b: b["beta"])
    assert constant["status"] == "constant_circle"


def test_validate_sampled_csv(tmp_path):
    ucsv = tmp_path / "u.csv"
    main(["forward", "--rho", "2 + sin(theta)/4", "--domain", "0.2", "1.2",
          "--out", str(ucsv)])
    out = tmp_path / "v.json"
    code = main(["validate", "--u-csv", str(ucsv), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["clean"] is True


# -- one parser per process ------------------------------------------------------

def _sampled_profile(tmp_path) -> str:
    path = str(tmp_path / "u.csv")
    assert main(["forward", "--rho", "2 + 0.15*sin(2*theta + 0.5)",
                 "--domain", "0.2", "2.9", "--samples", "201", "--out", path]) == 0
    return path


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_cone_sample_does_not_carry_over(tmp_path):
    ucsv = _sampled_profile(tmp_path)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["cone", "--u-csv", ucsv, "--sample", "1.0", "2.0",
                 "--out", str(first)]) == 0
    assert len(json.loads(first.read_text())["solutions"]) == 1
    assert main(["cone", "--u-csv", ucsv, "--out", str(second)]) == 0
    assert json.loads(second.read_text())["solutions"] == []


@pytest.mark.parametrize("extra", [[], ["--sample", "1.0", "2.0"],
                                   ["--apex", "0.5353981729511362"]])
def test_cone_scans_the_profile_once(tmp_path, monkeypatch, extra):
    # the subcommand's scan is the critical set of its cone and its samples
    ucsv = _sampled_profile(tmp_path)
    scan, scans = criticals_mod.find_critical_points, []

    def counting(*args, **kwargs):
        scans.append(args)
        return scan(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("depthrec") and \
                getattr(module, "find_critical_points", None) is scan:
            monkeypatch.setattr(module, "find_critical_points", counting)
    assert main(["cone", "--u-csv", ucsv, *extra, "--out", str(tmp_path / "c.json")]) == 0
    assert len(scans) == 1


def test_cone_at_a_focus_exits_1_naming_it(tmp_path, capsys):
    # the only critical point of 2 - (theta - 1)^2 is a maximum with
    # depth^2 + 2U'' = 2 - 4 < 0: a focus, which no solution touches
    out = tmp_path / "cone.json"
    assert main(["cone", "--u", "2 - (theta - 1)^2", "--domain", "0.5", "1.5",
                 "--out", str(out)]) == 1
    assert not out.exists()
    assert "is a focus: no solution touches it" in capsys.readouterr().err


def test_branch_on_sampled_profile_at_default_order(tmp_path):
    # a spline jet stops at order 2, so the branches stop there too
    ucsv = _sampled_profile(tmp_path)
    out = tmp_path / "branch.json"
    assert main(["branch", "--u-csv", ucsv, "--theta0", "0.5353981729511362",
                 "--out", str(out)]) == 0
    branches = json.loads(out.read_text())["branches"]
    assert [b["status"] for b in branches] == ["complete", "complete"]
    assert all(len(b["derivatives"]) == 3 for b in branches)
    # a maximum: both curvature roots negative, summing to -rho0
    assert all(b["beta"] < 0.0 for b in branches)
    assert sum(b["beta"] for b in branches) == pytest.approx(-branches[0]["rho0"], abs=1e-12)


def test_usage_error_then_valid_call_matches_fresh_process(tmp_path, capsys):
    argv = ["enumerate", "--u", "1", "--domain", "0", "1.5", "--ic", "0", "0.5",
            "--max-switches", "1"]
    fresh = tmp_path / "fresh.json"
    subprocess.run([sys.executable, "-m", "depthrec.cli", *argv, "--out", str(fresh)],
                   check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert main(["enumerate", "--u", "1", "--domain", "0", "1.5", "--max-switches",
                 "many"]) == 2
    assert main(["solve", "--u", "1", "--domain", "0", "1.5"]) == 2
    capsys.readouterr()
    assert run_to_file(tmp_path, "after.json", argv) == fresh.read_bytes()


def test_config_values_do_not_leak_into_next_call(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_switches = 0\nfan_size = 2\nrtol = 1e-6\n")
    argv = ["enumerate", "--u", "1", "--domain", "0", "1.5", "--ic", "0", "0.5"]
    plain = run_to_file(tmp_path, "plain.json", argv)
    configured = run_to_file(tmp_path, "configured.json", argv + ["--config", str(cfg)])
    assert configured != plain
    assert run_to_file(tmp_path, "again.json", argv) == plain


# -- file-system and input errors --------------------------------------------------

def test_missing_u_csv_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.csv"
    assert main(["critical", "--u-csv", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("depthrec: ") and err.count("\n") == 1
    assert str(missing) in err


def test_missing_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    assert main(["maximal", "--config", str(missing), "--u", "1",
                 "--domain", "0", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("depthrec: ") and err.count("\n") == 1
    assert str(missing) in err


def test_out_in_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "v.json"
    assert main(["validate", "--u", "1", "--domain", "0", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("depthrec: ") and err.count("\n") == 1
    assert not out.parent.exists()


def test_malformed_number_in_u_csv_exits_1(tmp_path, capsys):
    ucsv = tmp_path / "u.csv"
    ucsv.write_text("theta,u\n0.1,1.0\n0.2,abc\n0.3,1.0\n0.4,1.0\n")
    assert main(["critical", "--u-csv", str(ucsv)]) == 1
    err = capsys.readouterr().err
    assert err == f"depthrec: bad number 'abc' in {ucsv}, line 3\n"


def test_u_csv_with_a_byte_order_mark_is_read(tmp_path):
    # exit 1 with "bad number '\ufefftheta' ... line 1" before
    ucsv = _sampled_profile(tmp_path)
    bom = tmp_path / "bom.csv"
    with open(ucsv, "rb") as handle:
        bom.write_bytes(b"\xef\xbb\xbf" + handle.read())
    assert run_to_file(tmp_path, "bom.json", ["critical", "--u-csv", str(bom)]) == \
        run_to_file(tmp_path, "plain.json", ["critical", "--u-csv", ucsv])


def test_overflowing_u_csv_prints_one_error_line(tmp_path):
    # the spline's slopes overflow: one typed error, and none of numpy's
    # overflow warnings before it (a fresh process shows every warning once)
    ucsv = tmp_path / "u.csv"
    ucsv.write_text("1,0\n2,0\n3,0\n4,1.7976931348623157e+308\n")
    done = subprocess.run([sys.executable, "-m", "depthrec.cli", "critical", "--u-csv", str(ucsv)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 1
    assert done.stderr.startswith("depthrec: ") and done.stderr.count("\n") == 1
    assert "no finite cubic spline" in done.stderr
