"""Command-line surface: determinism, round trips, exit codes, flags."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import depthrec.cli as cli_mod
import depthrec.criticals as criticals_mod
import depthrec.reports as reports_mod
from depthrec.cli import _build_parser, _solution_curve, main
from depthrec.modulus import ClosedFormModulus, SampledModulus
from depthrec.reports import read_solution_csv, read_u_csv
from depthrec.solutions import maximal_solution


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


@pytest.mark.parametrize("argv", [
    ["maximal", "--series-radius", "0.1"],
    ["maximal", "--taylor-order", "12"],
    ["maximal", "--tol-contact", "1e-9"],
    ["maximal", "--tol-floor", "1e-9"],
    ["critical", "--grid", "512"],
    ["branch", "--theta0", "0", "--order", "8"],
    ["maximal", "--config", "run.cfg"],   # a flag is the one way to set a value
])
def test_removed_tuning_flags_exit_2(argv, capsys):
    assert main(argv + ["--u", "1", "--domain", "0", "1"]) == 2
    assert capsys.readouterr().err.endswith(f"unrecognized arguments: {' '.join(argv[-2:])}\n")


@pytest.mark.parametrize("argv", [
    ["forward", "--rho", "2", "--domain", "0.2", "1.2", "--u", "1"],
    ["forward", "--rho", "2", "--domain", "0.2", "1.2", "--u", "junk("],
    ["forward", "--rho", "2", "--domain", "0.2", "1.2", "--u-csv", "u.csv"],
    ["forward", "--rho", "2", "--domain", "0.2", "1.2", "--rtol", "1e-6"],
    ["forward", "--rho", "2", "--domain", "0.2", "1.2", "--atol", "1e-6"],
    ["validate", "--u", "1", "--domain", "0", "1", "--rtol", "1e-6"],
    ["validate", "--u", "1", "--domain", "0", "1", "--atol", "1e-6"],
    ["critical", "--u", "1", "--domain", "0", "1", "--rtol", "1e-6"],
    ["critical", "--u", "1", "--domain", "0", "1", "--atol", "1e-6"],
    ["branch", "--u", "1", "--domain", "0", "1", "--theta0", "0.5", "--rtol", "1e-6"],
    ["branch", "--u", "1", "--domain", "0", "1", "--theta0", "0.5", "--atol", "1e-6"],
])
def test_a_flag_the_subcommand_never_reads_exits_2(tmp_path, capsys, argv):
    # each ran and exited 0, the flag ignored, even an expression that
    # does not parse
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(f"unrecognized arguments: {' '.join(argv[-2:])}\n")
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ["--u", "1", "--domain", "0.2", "1.2"], ["--domain", "0.2", "1.2"], ["--u", "1"],
])
@pytest.mark.parametrize("command", ["validate", "critical", "maximal"])
def test_u_csv_with_u_or_domain_exits_2(tmp_path, capsys, command, extra):
    # --u won over --u-csv, and --domain beside --u-csv was ignored
    ucsv = tmp_path / "u.csv"
    assert main(["forward", "--rho", "2 + sin(theta)/4", "--domain", "0.2", "1.2",
                 "--samples", "9", "--out", str(ucsv)]) == 0
    out = tmp_path / "out.json"
    assert main([command, "--u-csv", str(ucsv), *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("--u-csv takes neither --u nor --domain: "
                                       "the file holds the profile and its domain\n")
    assert not out.exists()


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
    # prefixes are refused, so a flag added later never changes what an
    # existing command line means; the spelled-out flag runs, and its bytes
    # are those of a fresh process
    argv = ["enumerate", "--u", "1", "--domain", "0", "1.5", "--ic", "0", "0.5"]
    assert main(argv + ["--max-sw", "2"]) == 2
    assert "unrecognized arguments: --max-sw" in capsys.readouterr().err
    fresh = tmp_path / "fresh.json"
    subprocess.run([sys.executable, "-m", "depthrec.cli", *argv, "--max-switches", "2",
                    "--out", str(fresh)],
                   check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    out = run_to_file(tmp_path, "full.json", argv + ["--max-switches", "2"])
    assert out == fresh.read_bytes()
    assert len(json.loads(out)["solutions"]) == 3


def test_help_exits_0_and_an_unknown_flag_exits_2(capsys):
    assert main(["--help"]) == 0
    assert main(["maximal", "--help"]) == 0
    assert "usage: depthrec" in capsys.readouterr().out
    assert main(["maximal", "--u", "1", "--domain", "0", "1", "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_forward_accepts_a_domain_end_at_a_rounded_pi(tmp_path):
    # the subcommand took 3.14159265358980 for an angular end and the depth
    # refused it as past pi, while 3.1416, farther past pi, ran
    ucsv = tmp_path / "u.csv"
    assert main(["forward", "--rho", "2", "--domain", "0.1", "3.14159265358980",
                 "--samples", "5", "--out", str(ucsv)]) == 0
    assert main(["validate", "--u-csv", str(ucsv), "--out", str(tmp_path / "v.json")]) == 0
    np.testing.assert_array_equal(read_u_csv(str(ucsv)).values, 4.0)


@pytest.mark.parametrize("domain", [["-1", "4"], ["0.1", "3.1416"]])
def test_forward_refuses_a_domain_outside_the_viewing_angles(tmp_path, capsys, domain):
    # each wrote a u.csv, which every other subcommand reads as a polar profile
    ucsv = tmp_path / "u.csv"
    assert main(["forward", "--rho", "2", "--domain", *domain, "--samples", "5",
                 "--out", str(ucsv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("depthrec: angular domain [") and err.count("\n") == 1
    assert not ucsv.exists()


def test_plot_svg_structure(tmp_path):
    out = tmp_path / "plot.svg"
    code = main(["plot", "--u", "pi^2/16 - pi^2/128*theta^2", "--domain", "0", "2",
                 "--ic", "0.5", "0.6", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert 'viewBox="0 0 800 600"' in text
    assert "<path" in text and "<circle" in text


def test_plotted_maximal_path_stays_on_the_solution_curve(tmp_path):
    # the plot joins the solution's nodes, one per accepted step, by
    # straight segments; on this cli-workload depth (seed 1, the worst of
    # its maximal plots) they stay within 0.04 px of ``sol.interp`` in the
    # plot's screen coordinates, so the path needs no extra points
    u_path, svg_path = str(tmp_path / "u.csv"), str(tmp_path / "plot.svg")
    rho = "2.092082290985381 + 0.12270159297949003*sin(2*theta + 4.984331806702966)"
    assert main(["forward", "--rho", rho, "--domain", "0.2", "2.9", "--samples", "801",
                 "--out", u_path]) == 0
    assert main(["plot", "--u-csv", u_path, "--out", svg_path]) == 0
    u = read_u_csv(u_path)
    sol = maximal_solution(u, critical_set=criticals_mod.find_critical_points(u))
    curve = _solution_curve(sol, "#2ca02c")
    [path] = re.findall(r'<path d="M ([^"]*)" fill="none" stroke="#2ca02c"',
                        open(svg_path).read())
    screen = np.array([point.split(",") for point in path.split(" L ")], dtype=float)
    assert len(screen) == len(sol.thetas)
    # render_svg's map: sx = a + s*x, sy = b - s*y, fitted to the path's points
    n = len(screen)
    design = np.zeros((2 * n, 3))
    design[:n, 0], design[n:, 1] = 1.0, 1.0
    design[:n, 2], design[n:, 2] = curve.xs, -curve.ys
    (a, b, s), *_ = np.linalg.lstsq(design, screen.T.ravel(), rcond=None)
    worst = 0.0
    for i in np.flatnonzero(np.diff(sol.thetas) > 0):
        theta = sol.thetas[i] + (sol.thetas[i + 1] - sol.thetas[i]) * np.linspace(0, 1, 17)[1:-1]
        r = sol.interp(theta)
        on_curve = np.stack([a + s * r * np.cos(theta), b - s * r * np.sin(theta)], axis=1)
        p0, d = screen[i], screen[i + 1] - screen[i]
        t = np.clip((on_curve - p0) @ d / (d @ d), 0.0, 1.0)
        worst = max(worst, np.max(np.hypot(*(on_curve - p0 - t[:, None] * d).T)))
    assert worst <= 0.1


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

def _sampled_profile(tmp_path, samples: int = 201) -> str:
    path = str(tmp_path / "u.csv")
    assert main(["forward", "--rho", "2 + 0.15*sin(2*theta + 0.5)",
                 "--domain", "0.2", "2.9", "--samples", str(samples), "--out", path]) == 0
    return path


def _count_scans(monkeypatch) -> list:
    """The profiles of the critical scans run from here on, appended as each
    scan starts."""
    scan, scans = criticals_mod.find_critical_points, []

    def counting(u):
        scans.append(u)
        return scan(u)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("depthrec") and \
                getattr(module, "find_critical_points", None) is scan:
            monkeypatch.setattr(module, "find_critical_points", counting)
    return scans


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


_SESSION_RHO = "2.092082290985381 + 0.12270159297949003*sin(2*theta + 4.984331806702966)"


def _cli_session(directory, rho, before_each):
    """``forward`` on ``rho``, then ``critical``, ``maximal``, ``cone`` and
    ``plot`` on its u.csv, each after ``before_each()``: the outputs' bytes."""
    directory.mkdir()
    u_csv = str(directory / "u.csv")
    argvs = [["forward", "--rho", rho, "--domain", "0.2", "2.9", "--samples", "801",
              "--out", u_csv]]
    argvs += [[command, "--u-csv", u_csv, "--out", str(directory / name)]
              for command, name in [("critical", "critical.json"), ("maximal", "maximal.json"),
                                    ("cone", "cone.json"), ("plot", "plot.svg")]]
    for argv in argvs:
        before_each()
        assert main(argv) == 0
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_session_builds_one_profile_per_csv_text(tmp_path, monkeypatch):
    # the four reads of one u.csv share the profile the first builds, with
    # the outputs of a session that builds one per read
    init, built = SampledModulus.__init__, []

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    def forget():
        monkeypatch.setattr(reports_mod, "_last_u_csv", None)

    monkeypatch.setattr(SampledModulus, "__init__", counting)
    forget()
    shared = _cli_session(tmp_path / "shared", _SESSION_RHO, lambda: None)
    assert len(built) == 1
    assert _cli_session(tmp_path / "fresh", _SESSION_RHO, forget) == shared
    assert len(built) == 5
    # a forward run rewrites u.csv: the next read builds the new profile
    u_csv, other = str(tmp_path / "shared" / "u.csv"), tmp_path / "other.json"
    assert main(["forward", "--rho", "2.1 + 0.17*sin(3*theta + 1.3)", "--domain", "0.2", "2.9",
                 "--samples", "801", "--out", u_csv]) == 0
    assert main(["critical", "--u-csv", u_csv, "--out", str(other)]) == 0
    assert len(built) == 6
    # the depth's extrema, where 3*theta + 1.3 = pi/2 + k*pi
    thetas = [point["theta"] for point in json.loads(other.read_text())["criticals"]["points"]]
    want = [(math.pi / 2 + k * math.pi - 1.3) / 3 for k in (1, 2)]
    np.testing.assert_allclose(thetas, want, atol=1e-4)
    forget()
    assert run_to_file(tmp_path, "fresh_other.json", ["critical", "--u-csv", u_csv]) == \
        other.read_bytes()


def test_cone_sample_does_not_carry_over(tmp_path):
    ucsv = _sampled_profile(tmp_path)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["cone", "--u-csv", ucsv, "--sample", "1.0", "2.0",
                 "--out", str(first)]) == 0
    assert len(json.loads(first.read_text())["solutions"]) == 1
    assert main(["cone", "--u-csv", ucsv, "--out", str(second)]) == 0
    assert json.loads(second.read_text())["solutions"] == []


# each case writes a sample count of its own, so no earlier call kept its
# profile text, and with it the profile's scan
@pytest.mark.parametrize("extra, samples", [([], 211), (["--sample", "1.0", "2.0"], 212),
                                            (["--apex", "0.5353981729511362"], 213)],
                         ids=["extra0", "extra1", "extra2"])
def test_cone_scans_the_profile_once(tmp_path, monkeypatch, extra, samples):
    # the subcommand's scan is the critical set of its cone and its samples
    ucsv = _sampled_profile(tmp_path, samples)
    scans = _count_scans(monkeypatch)
    assert main(["cone", "--u-csv", ucsv, *extra, "--out", str(tmp_path / "c.json")]) == 0
    assert len(scans) == 1


def _session_argvs(u_csv: str) -> list[list[str]]:
    """The subcommands of a session on ``u_csv`` that read its critical set."""
    return [["critical", "--u-csv", u_csv], ["maximal", "--u-csv", u_csv],
            ["enumerate", "--u-csv", u_csv, "--ic", "1.2", "2.0", "--max-switches", "1"],
            ["cone", "--u-csv", u_csv], ["plot", "--u-csv", u_csv]]


def test_session_scans_its_profile_once(tmp_path, monkeypatch):
    # every subcommand reading one u.csv text shares the scan of its profile
    u_csv = str(tmp_path / "u.csv")
    scans = _count_scans(monkeypatch)
    assert main(["forward", "--rho", _SESSION_RHO, "--domain", "0.2", "2.9",
                 "--samples", "301", "--out", u_csv]) == 0
    for argv in _session_argvs(u_csv):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert len(scans) == 1
    # another depth written over the file: the next subcommand scans its profile
    assert main(["forward", "--rho", "2.1 + 0.17*sin(3*theta + 1.3)", "--domain", "0.2", "2.9",
                 "--samples", "301", "--out", u_csv]) == 0
    assert main(["critical", "--u-csv", u_csv, "--out", str(tmp_path / "out")]) == 0
    assert len(scans) == 2 and scans[1] is not scans[0]
    assert scans[1] is read_u_csv(u_csv)


def _forget_profiles(monkeypatch):
    """Drops the kept profile, and so the kept scan: the next call on a text
    is its first."""
    monkeypatch.setattr(reports_mod, "_last_u_csv", None)
    monkeypatch.setattr(cli_mod, "_last_scan", None)


def _outputs(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_shared_scan_changes_no_output(tmp_path, monkeypatch, capsys):
    # each subcommand of a session prints what it prints as the first call
    # on the text: its exit code and its stdout bytes
    u_csv = str(tmp_path / "u.csv")
    assert main(["forward", "--rho", _SESSION_RHO, "--domain", "0.2", "2.9",
                 "--samples", "301", "--out", u_csv]) == 0
    _forget_profiles(monkeypatch)
    shared = [_outputs(capsys, argv) for argv in _session_argvs(u_csv)]
    assert [code for code, _, _ in shared] == [0] * 5
    for argv, outputs in zip(_session_argvs(u_csv), shared):
        _forget_profiles(monkeypatch)
        assert _outputs(capsys, argv) == outputs


def test_a_failed_scan_is_kept_with_its_error(tmp_path, monkeypatch, capsys):
    # U = (theta - 1.5)^2 - 0.1 is negative at its minimum, a critical point:
    # the scan that finds it fails, and the subcommands that report the
    # points exit 1 naming it, each time; enumerate's lookups see no points
    u_csv = tmp_path / "u.csv"
    thetas = np.linspace(0.2, 2.9, 101).tolist()
    u_csv.write_text("theta,u\n" + "".join(f"{t!r},{(t - 1.5) ** 2 - 0.1!r}\n" for t in thetas))
    scans = _count_scans(monkeypatch)
    negative = "depthrec: profile is negative at theta=1.5: -0.1\n"
    # plot reads the bound on its grid before it looks a point up
    grid = "depthrec: profile is negative at theta=1.1880626223091975: -0.0026950723993856085\n"
    for argv, want_code, want_err in [(["critical"], 1, negative), (["maximal"], 1, negative),
                                      (["enumerate", "--ic", "2.5", "0.5"], 0, ""),
                                      (["cone"], 1, negative), (["plot"], 1, grid),
                                      (["critical"], 1, negative)]:
        code, out, err = _outputs(capsys, [*argv, "--u-csv", str(u_csv)])
        assert (code, err) == (want_code, want_err)
        assert bool(out) == (code == 0)
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
    # the values one call's flags set are not the next call's defaults
    argv = ["enumerate", "--u", "1", "--domain", "0", "1.5", "--ic", "0", "0.5"]
    plain = run_to_file(tmp_path, "plain.json", argv)
    flagged = run_to_file(tmp_path, "flagged.json", argv + ["--max-switches", "0",
                                                             "--rtol", "1e-6"])
    assert flagged != plain
    assert run_to_file(tmp_path, "again.json", argv) == plain


# -- file-system and input errors --------------------------------------------------

def test_missing_u_csv_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.csv"
    assert main(["critical", "--u-csv", str(missing)]) == 2
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


@pytest.mark.parametrize("rows,message", [
    ("0.2,1.0\n0.1,1.0\n0.35,1.0\n0.5,1.0\n", "sample grid must be strictly increasing"),
    ("0.1,1.0\n0.2,1.0\n", "sampled profile needs matching 1-d arrays with >= 4 points"),
], ids=["not_increasing", "two_rows"])
def test_rejected_u_csv_samples_exit_1_naming_the_file(rows, message, tmp_path, capsys):
    ucsv = tmp_path / "bad_grid.csv"
    ucsv.write_text("theta,u\n" + rows)
    assert main(["critical", "--u-csv", str(ucsv)]) == 1
    assert capsys.readouterr().err == f"depthrec: {message} in {ucsv}\n"


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
