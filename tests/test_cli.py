"""CLI: commands, formats, determinism, exit codes."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import res112
from res112.cli import cli, main
from res112.errors import ValidationError


def _cli_env(**extra):
    """Environment for a ``python -m res112.cli`` child process.

    Starts from the caller's environment, drops every inherited ``RES112_*``
    variable so that only ``extra`` is set, and puts the directory holding the
    imported ``res112`` first on ``PYTHONPATH``, so that the child runs the
    same code as this process whether or not the package is installed.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("RES112_")}
    pkg_root = str(Path(res112.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env


@pytest.fixture()
def runner():
    return CliRunner()


def test_fiber_command_text(runner):
    res = runner.invoke(cli, ["fiber", "--delta", "0", "--mu", "0",
                              "--ell", "0", "--h", "0"])
    assert res.exit_code == 0
    assert "CuspPinchedT3 x1" in res.output


def test_fiber_command_inside_island(runner):
    res = runner.invoke(cli, ["fiber", "--delta", "-1", "--mu", "0.1",
                              "--ell", "0", "--h", "-0.0965"])
    assert res.exit_code == 0
    assert "Torus3 x2" in res.output


def test_fiber_command_empty_and_iota(runner):
    res = runner.invoke(cli, ["fiber", "--delta", "0", "--mu", "0",
                              "--ell", "0", "--h", "-1"])
    assert res.exit_code == 0
    assert "Empty" in res.output
    res2 = runner.invoke(cli, ["fiber", "--delta", "0", "--mu", "0",
                               "--iota", "0", "--h", "-1"])
    assert res2.output == res.output


def test_fiber_command_json(runner):
    res = runner.invoke(cli, ["fiber", "--delta", "0", "--mu", "0",
                              "--ell", "-1", "--h", "0", "--format", "json"])
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["components"] == {"PinchedTorusTimesT1": 1}
    assert obj["is_critical"] is True


def test_scale_command(runner):
    res = runner.invoke(cli, ["scale", "--kappa", "2", "--lam", "2",
                              "--mu", "4", "--ell", "8"])
    assert res.exit_code == 0
    lines = dict(l.split(" = ") for l in res.output.strip().splitlines())
    assert float(lines["lam"]) == 1.0
    assert float(lines["mu"]) == 1.0
    assert float(lines["ell"]) == 2.0


def test_monodromy_command(runner):
    res = runner.invoke(cli, ["monodromy", "--delta", "0", "--loop", "gamma2",
                              "--points", "24", "--format", "json"])
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert (obj["m_N"], obj["m_J"]) == (0, 1)
    assert obj["matrix"][0] == [1, 0, 0]
    assert obj["matrix"][1] == [0, 1, 1]
    res2 = runner.invoke(cli, ["monodromy", "--delta", "0", "--loop", "gamma1",
                               "--points", "24"])
    assert res2.exit_code == 0
    assert "(1, -1)" in res2.output


def test_bifdiag_outputs(tmp_path, runner):
    out = tmp_path / "bd"
    res = runner.invoke(cli, ["bifdiag", "--ell", "0", "--grid", "41",
                              "--lambda-window", "-1,1.2", "--out", str(out)],
                        catch_exceptions=False)
    assert res.exit_code == 0
    slices = (tmp_path / "bd_slices.csv").read_text().splitlines()
    assert slices[0] == "provenance,ell_slice,lambda,mu,ell,a,h"
    assert len(slices) > 10
    # every data row parses and sits on the requested slice
    fams = set()
    for line in slices[1:]:
        fields = line.split(",")
        fams.add(fields[0])
        assert abs(float(fields[4]) - 0.0) < 1e-6
    assert "numeric-oracle" in fams
    assert any(f.startswith("CS") for f in fams)
    surface = (tmp_path / "bd_surface.csv").read_text().splitlines()
    assert surface[0] == "family,lambda,a,mu,ell,h"
    assert len(surface) > 100


def test_bifdiag_empty_window(tmp_path, runner):
    out = tmp_path / "bd"
    res = runner.invoke(cli, ["bifdiag", "--ell", "0.125",
                              "--lambda-window", "1.4,1.45", "--grid", "5",
                              "--no-surface", "--out", str(out)],
                        catch_exceptions=False)
    assert res.exit_code == 0
    lines = (tmp_path / "bd_slices.csv").read_text().splitlines()
    assert lines[0].startswith("provenance")  # header only, no events here
    assert len(lines) == 1


def test_bifdiag_fig5_slice_content(tmp_path, runner):
    # the ell = 0 slice passes through the resonant equilibrium: the
    # subcritical Hopf curves cross lambda = 0 there
    out = tmp_path / "bd"
    runner.invoke(cli, ["bifdiag", "--ell", "0", "--grid", "81",
                        "--lambda-window", "-1,1", "--no-surface",
                        "--out", str(out)], catch_exceptions=False)
    rows = [l.split(",") for l in
            (tmp_path / "bd_slices.csv").read_text().splitlines()[1:]]
    cs = [r for r in rows if r[0].startswith("CS")]
    assert cs
    # mu -> 0 as lambda -> 0 along the slice (the cusp of the ell=0 panel)
    near0 = [abs(float(r[3])) for r in cs if abs(float(r[2])) < 0.06]
    assert near0 and min(near0) < 2e-3


def _count_calls(monkeypatch, name):
    """Wrap res112.bifurcations.<name> wherever res112 has bound it; returns
    the list that collects the first argument of every call."""
    original = getattr(res112.bifurcations, name)
    calls = []

    def counted(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "res112" or mod_name.startswith("res112.")) \
                and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_bifdiag_a0_root_once_per_lambda_and_family(tmp_path, runner,
                                                   monkeypatch):
    # the catalog's family ranges and the oracle's grid depend on lam alone,
    # so each takes a0_root once per lam whatever the number of planes (at
    # kappa = 1 only one family, CS3 or CS4, needs it at a lam); the surface
    # pass takes it once more per lam of its own grid
    calls = _count_calls(monkeypatch, "a0_root")
    out = tmp_path / "bd"
    res = runner.invoke(cli, ["bifdiag", "--ell", "0.125,-0.5,0.3", "--grid", "21",
                              "--out", str(out)], catch_exceptions=False)
    assert res.exit_code == 0
    slice_lams = [float(x) for x in np.linspace(-1.5, 1.5, 21)]
    surface_lams = [float(x) for x in np.linspace(-1.5, 1.5, 33)]
    assert calls
    for lam in set(calls):
        allowed = 2 * slice_lams.count(lam) + surface_lams.count(lam)
        assert calls.count(lam) <= allowed, (lam, calls.count(lam))


def test_bifdiag_solves_each_special_lambda_once(tmp_path, runner, monkeypatch):
    # at lam = 0 and lam = 1/(2 kappa) the oracle takes the solver's events,
    # which do not depend on the plane: three planes share one solve
    calls = _count_calls(monkeypatch, "solve_bifurcations_numeric")
    res = runner.invoke(cli, ["bifdiag", "--ell", "0.125,-0.5,0", "--grid", "13",
                              "--no-surface", "--out", str(tmp_path / "bd")],
                        catch_exceptions=False)
    assert res.exit_code == 0
    assert sorted(calls) == [0.0, 0.5]


def test_bifdiag_no_oracle_runs_no_solver(tmp_path, runner, monkeypatch):
    solves = _count_calls(monkeypatch, "solve_bifurcations_numeric")
    branches = _count_calls(monkeypatch, "_m_branches_numeric")
    res = runner.invoke(cli, ["bifdiag", "--ell", "0.125,-0.5,0", "--grid", "13",
                              "--no-oracle", "--out", str(tmp_path / "bd")],
                        catch_exceptions=False)
    assert res.exit_code == 0
    assert "numeric-oracle" not in (tmp_path / "bd_slices.csv").read_text()
    assert solves == branches == []


def test_bifdiag_solves_all_slice_quartics_of_a_lambda_at_once(tmp_path, runner,
                                                              monkeypatch):
    # the slice quartics of every plane at one lam go to one stacked
    # eigenvalue call, and the catalog makes no other
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: calls.append(np.shape(a)) or eigvals(a))
    res = runner.invoke(cli, ["bifdiag", "--ell", "0.125,-0.5,0.3,-1.25", "--grid",
                              "9", "--no-surface", "--out", str(tmp_path / "bd")],
                        catch_exceptions=False)
    assert res.exit_code == 0
    assert calls == [(4, 4, 4)] * 9


def test_bifdiag_rejects_negative_kappa(tmp_path, runner):
    res = runner.invoke(cli, ["bifdiag", "--kappa", "-1", "--ell", "0",
                              "--grid", "5", "--no-surface",
                              "--out", str(tmp_path / "bd")])
    assert isinstance(res.exception, ValidationError)


@pytest.mark.parametrize("module", sorted(
    p.stem for p in Path(res112.__file__).parent.glob("*.py")))
def test_module_imports_no_private_names(module):
    # no private name crosses a module boundary inside the package: each
    # module works on top of the others' public API
    path = Path(res112.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text())
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0
                    or (node.module or "").split(".")[0] == "res112")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("cls", [res112.ModelParams, res112.ReducedParams,
                                 res112.CasimirValues],
                         ids=lambda cls: cls.__name__)
def test_every_parameter_field_is_read(cls):
    # a field that no module reads is a setting that silently changes
    # nothing: each field is read as an attribute somewhere in the package,
    # outside the class's own body (which only validates it)
    read = set()
    for path in Path(res112.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        own = {id(node) for top in ast.walk(tree)
               if isinstance(top, ast.ClassDef) and top.name == cls.__name__
               for node in ast.walk(top)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load) and id(node) not in own}
    unread = [f.name for f in dataclasses.fields(cls) if f.name not in read]
    assert unread == []


def test_cli_imports_no_private_or_catalog_names():
    # the CLI is I/O over the public API: no private helpers, and no catalog
    # lookups that restate what thread_segments and crease_span give
    tree = ast.parse(Path(res112.cli.__file__).read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").split(".")[0] == "res112")
             for alias in node.names]
    assert [n for n in names if n.startswith("_")
            or n in ("catalog_point", "families_at")] == []


def test_importing_the_cli_loads_no_scipy(tmp_path):
    # scipy is a test dependency only: with every scipy import blocked, the
    # CLI imports and runs bifdiag with its numeric oracle, critvals, fiber,
    # monodromy and the full selfcheck
    commands = [
        ["bifdiag", "--ell", "-0.125,0.125", "--lambda-window=-1,0.8",
         "--grid", "4", "--out", "b"],
        ["critvals", "--delta", "-1", "--grid", "3", "--out", "c"],
        ["fiber", "--delta", "0", "--mu", "0", "--ell", "0", "--h", "0"],
        ["monodromy", "--delta", "0", "--loop", "gamma1", "--points", "16"],
        ["selfcheck"]]
    res = subprocess.run(
        [sys.executable, "-c", "import sys\nsys.modules['scipy'] = None\n"
         "from res112.cli import cli\n"
         f"for args in {commands!r}:\n"
         "    cli.main(args, standalone_mode=False)\n"],
        env=_cli_env(), cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert res.returncode == 0, res.stderr
    assert "monodromy vector" in res.stdout
    assert res.stdout.splitlines()[-1] == "all 9 criteria passed"


def test_critvals_outputs(tmp_path, runner):
    out = tmp_path / "cv"
    res = runner.invoke(cli, ["critvals", "--delta", "-1", "--grid", "9",
                              "--mu-window", "-0.5,0.5",
                              "--ell-window", "-1.2,0.4", "--out", str(out)],
                        catch_exceptions=False)
    assert res.exit_code == 0
    surf = (tmp_path / "cv_surface.csv").read_text().splitlines()
    assert surf[0] == "mu,ell,h_min,tag,error"
    assert len(surf) == 1 + 81
    faces = (tmp_path / "cv_faces.csv").read_text().splitlines()
    tags = {line.split(",")[3] for line in faces[1:]}
    assert {"B", "Fe", "Fh"} <= tags
    threads = (tmp_path / "cv_threads.csv").read_text().splitlines()
    assert threads[0] == "curve,mu,ell,h_c,unstable,above_min"
    assert len(threads) > 1


def test_critvals_delta_15_single_thread(tmp_path, runner):
    out = tmp_path / "cv"
    runner.invoke(cli, ["critvals", "--delta", "1.5", "--grid", "7",
                        "--mu-window", "-0.5,0.5", "--ell-window", "-4,-0.5",
                        "--out", str(out)], catch_exceptions=False)
    faces = (tmp_path / "cv_faces.csv").read_text().splitlines()[1:]
    assert not any(l.split(",")[3] == "Fh" for l in faces)
    threads = [l.split(",") for l in
               (tmp_path / "cv_threads.csv").read_text().splitlines()[1:]]
    c12 = [t for t in threads if t[0] == "C12"]
    unstable = {float(t[2]) for t in c12 if t[4] == "1"}
    stable = {float(t[2]) for t in c12 if t[4] == "0"}
    assert unstable and stable
    assert all(e < -2.25 for e in unstable)
    assert all(e >= -2.25 for e in stable)  # the boundary is the Hopf point


def test_cli_determinism_quick(tmp_path, runner):
    args = ["bifdiag", "--ell", "-0.125,0.3125", "--grid", "31",
            "--no-surface"]
    outs = []
    for tag in ("x", "y"):
        out = tmp_path / f"d_{tag}"
        runner.invoke(cli, args + ["--out", str(out)], catch_exceptions=False)
        outs.append((tmp_path / f"d_{tag}_slices.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_exit_codes(monkeypatch, capsys, tmp_path):
    def run(*args):
        return subprocess.run([sys.executable, "-m", "res112.cli", *args],
                              env=_cli_env(), capture_output=True, text=True)

    ok = run("fiber", "--delta", "0", "--mu", "0", "--ell", "0", "--h", "0")
    assert ok.returncode == 0
    bad_combo = run("fiber", "--delta", "0", "--mu", "0", "--ell", "0",
                    "--iota", "0", "--h", "0")
    assert bad_combo.returncode == 1
    bad_flag = run("fiber", "--delta", "0")
    assert bad_flag.returncode == 1
    bad_kappa = run("fiber", "--delta", "0", "--mu", "0", "--ell", "0",
                    "--h", "0", "--kappa", "0")
    assert bad_kappa.returncode == 1
    io_err = run("bifdiag", "--ell", "0", "--grid", "5", "--no-surface",
                 "--no-oracle", "--out", "/nonexistent-dir/xx")
    assert io_err.returncode == 3

    # malformed or non-finite input is a validation error, not a traceback
    # or a numerical failure; main() runs in this process, where an uncaught
    # exception fails the test instead of printing a traceback
    for key in [k for k in os.environ if k.startswith("RES112_")]:
        monkeypatch.delenv(key)
    nowhere = ["--out", "/nonexistent-dir/xx"]
    here = ["--out", str(tmp_path / "o")]
    gamma1 = ["monodromy", "--delta", "0", "--loop", "gamma1"]
    for args in (["critvals", "--delta", "0", "--mu-window", "1", *nowhere],
                 ["critvals", "--delta", "0", "--ell-window", "1,2,3", *nowhere],
                 ["bifdiag", "--ell", "0", "--lambda-window", "1", *nowhere],
                 ["critvals", "--delta", "0", "--grid", "-3", *nowhere],
                 ["critvals", "--delta", "0", "--grid", "0", *nowhere],
                 ["bifdiag", "--ell", "nan", *nowhere],
                 ["bifdiag", "--ell", "0", "--kappa", "nan", *nowhere],
                 ["bifdiag", "--ell", "0", "--kappa", "inf", *nowhere],
                 ["bifdiag", "--ell", "0", "--lambda-window=-1,nan", *nowhere],
                 ["bifdiag", "--ell", "0", "--lambda-window=-1,inf", *nowhere],
                 ["bifdiag", "--ell", "0", "--grid", "3", "--no-surface",
                  "--lambda-window=-1e308,1e308", *nowhere],
                 ["fiber", "--delta", "0", "--mu", "0", "--ell", "0", "--h", "nan"],
                 ["fiber", "--delta", "0", "--mu", "0", "--ell", "0", "--h", "1e200"],
                 [*gamma1, "--tol", "0"], [*gamma1, "--tol", "-1"],
                 [*gamma1, "--tol", "nan"], [*gamma1, "--radius", "0"],
                 [*gamma1, "--radius", "nan"], [*gamma1, "--points", "-5"],
                 # closed forms that overflow: lam^2 in the C12 spans, and
                 # kappa^2 in the Hopf boundaries
                 ["critvals", "--delta", "1e200", "--grid", "2", *here],
                 ["critvals", "--delta", "-1e300", "--grid", "2", *here],
                 ["critvals", "--delta", "0", "--kappa", "1e200", "--grid", "2",
                  *here],
                 ["bifdiag", "--kappa", "1e200", "--ell", "0.1", "--grid", "3",
                  *here],
                 [*gamma1, "--kappa", "1e200"],
                 # kappa^2 that underflows, which the closed forms divide by
                 ["critvals", "--delta", "0", "--kappa", "1e-200", "--grid", "2",
                  *here],
                 ["bifdiag", "--kappa", "1e-200", "--ell", "0.1", "--grid", "3",
                  *here],
                 [*gamma1, "--kappa", "1e-200"],
                 ["bifdiag", "--kappa", "1e-160", "--ell", "0.1,-0.1", "--grid",
                  "3", *here]):
        monkeypatch.setattr(sys, "argv", ["res112", *args])
        with pytest.raises(SystemExit) as exited:
            main()
        err = capsys.readouterr().err
        assert exited.value.code == 1, (args, err)
        assert "validation error" in err, args


def test_cli_overflowing_or_oversized_input_exit_1(monkeypatch, capsys):
    # inputs that overflow a kernel, or a loop too long to finish, are
    # validation errors (exit 1), not tracebacks, numerical failures or
    # quietly non-finite output
    import res112.monodromy as mono
    for key in [k for k in os.environ if k.startswith("RES112_")]:
        monkeypatch.delenv(key)
    gamma1 = ["monodromy", "--delta", "0", "--loop", "gamma1"]
    for args in (["scale", "--kappa", "1e-300", "--h", "1"],
                 ["scale", "--kappa", "nan", "--lam", "1"],
                 ["scale", "--kappa", "inf", "--lam", "1"],
                 ["scale", "--kappa", "2", "--lam", "nan"],
                 [*gamma1, "--plane", "1e300"],
                 [*gamma1, "--points", "12000", "--format", "json"]):
        monkeypatch.setattr(sys, "argv", ["res112", *args])
        with pytest.raises(SystemExit) as exited:
            main()
        captured = capsys.readouterr()
        assert exited.value.code == 1, (args, captured.err)
        assert captured.err.startswith("validation error:"), args
        assert captured.out == "", args
    # the loop budget is checked before any fiber is evaluated
    monkeypatch.setattr(mono, "classify_fibers", None)
    monkeypatch.setattr(sys, "argv", ["res112", *gamma1, "--points", "12000"])
    with pytest.raises(SystemExit) as exited:
        main()
    assert exited.value.code == 1
    assert "between 3 and 9999 points" in capsys.readouterr().err


def test_critvals_overflowing_quintic_is_a_validation_error(tmp_path, runner):
    # every node fails, and the run then stops at the overflowing C12 spans
    res = runner.invoke(cli, ["critvals", "--delta", "1e300", "--grid", "2",
                              "--out", str(tmp_path / "cv")])
    assert res.exit_code == 1
    assert isinstance(res.exception, ValidationError)
    rows = (tmp_path / "cv_surface.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    for row in rows:
        assert row.split(",")[3] == "error"
        assert ",ValidationError: the tangency quintic overflows" in row


def test_cli_env_var_defaults():
    # environment variables (RES112_ prefix) are honored below flags
    res = subprocess.run(
        [sys.executable, "-m", "res112.cli", "fiber", "--mu", "0",
         "--ell", "-1", "--h", "0"],
        env=_cli_env(RES112_FIBER_DELTA="0"),
        capture_output=True, text=True)
    assert res.returncode == 0
    assert "PinchedTorusTimesT1" in res.stdout
    # the flag wins over the variable (delta = 5 alone gives "Circle x1")
    res = subprocess.run(
        [sys.executable, "-m", "res112.cli", "fiber", "--delta", "0",
         "--mu", "0", "--ell", "-1", "--h", "0"],
        env=_cli_env(RES112_FIBER_DELTA="5"),
        capture_output=True, text=True)
    assert res.returncode == 0
    assert "PinchedTorusTimesT1" in res.stdout


def test_critvals_loci_file(tmp_path, runner):
    out = tmp_path / "cv"
    runner.invoke(cli, ["critvals", "--delta", "0.52", "--grid", "9",
                        "--mu-window", "-0.4,0.4", "--ell-window", "-0.3,0.3",
                        "--out", str(out)], catch_exceptions=False)
    loci = (tmp_path / "cv_loci.csv").read_text().splitlines()
    assert loci[0] == "name,mu,ell,h"
    names = [l.split(",")[0] for l in loci[1:]]
    assert names[0] == "ell_star"
    assert "L+" in names and "L-" in names
    ell_star = float(loci[1].split(",")[2])
    assert -0.52 ** 2 < ell_star < 0.0


def test_critvals_builds_threads_once(tmp_path, runner, monkeypatch):
    # one thread_segments call per run, whichever binding it goes through
    cv = res112.critical_values
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return wrapper

    for mod in (cv, res112.cli):
        monkeypatch.setattr(mod, "thread_segments", counted(mod.thread_segments))
    out = tmp_path / "cv"
    res = runner.invoke(cli, ["critvals", "--delta", "0.6", "--grid", "5",
                              "--out", str(out)], catch_exceptions=False)
    assert res.exit_code == 0
    assert len(calls) == 1
    loci = (tmp_path / "cv_loci.csv").read_text().splitlines()
    assert loci[1].split(",")[:2] == ["ell_star", "0"]
    assert loci[1].split(",")[2] == "%.17g" % (1 - 2 * 0.6)


def test_critvals_loci_complete_at_delta_09(tmp_path, runner):
    # the crease L+ lies at mu < 0.12 here; every interior grid ell gets a
    # row, and each row is a crossing of the two lowest equilibrium energies
    out = tmp_path / "cv"
    runner.invoke(cli, ["critvals", "--delta", "0.9", "--grid", "7",
                        "--out", str(out)], catch_exceptions=False)
    rows = [l.split(",") for l in
            (tmp_path / "cv_loci.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows].count("L+") == 7
    assert [r[0] for r in rows].count("L-") == 7
    rp = res112.ReducedParams(lam=0.9, kappa=1.0)
    for name, mu, ell, h in rows[1:]:
        mu, ell, h = float(mu), float(ell), float(h)
        hs = sorted(e.h for e in res112.equilibria(res112.CasimirValues(mu, ell), rp))
        assert abs(hs[0] - h) <= 1e-12 and abs(hs[1] - h) <= 1e-12, (name, mu, ell)


@pytest.mark.parametrize("args, n_rows", [
    (["--delta", "0.2", "--grid", "21", "--mu-window=-0.5,0.5",
      "--ell-window=-0.5,0.5"], 30),
    # the ell window reaches far below -delta^2 on C12
    (["--delta", "-1", "--grid", "9", "--mu-window=-8,8",
      "--ell-window=-8,8"], 12),
], ids=["delta0.2", "delta-1"])
def test_critvals_threads_in_kappa_frame(tmp_path, runner, args, n_rows):
    # threads.csv is written for kappa != 1 too, and its unstable column
    # agrees with the per-node thread tags of faces.csv
    out = tmp_path / "cv"
    res = runner.invoke(cli, ["critvals", "--kappa", "2", *args,
                              "--out", str(out)], catch_exceptions=False)
    assert res.exit_code == 0
    faces = [l.split(",") for l in
             (tmp_path / "cv_faces.csv").read_text().splitlines()[1:]]
    threads = [l.split(",") for l in
               (tmp_path / "cv_threads.csv").read_text().splitlines()[1:]]
    assert len(threads) == n_rows
    assert {t[4] for t in threads} == {"0", "1"}
    for curve, mu, ell, _, unstable, _ in threads:
        mu, ell = float(mu), float(ell)
        tags = [f[3] for f in faces
                if abs(float(f[0]) - mu) <= 1e-9 and abs(float(f[1]) - ell) <= 1e-9]
        assert tags, (curve, mu, ell)
        assert ("thread" in tags) == (unstable == "1"), (curve, mu, ell, tags)


def test_critvals_thread_rows_match_faces_bitwise(tmp_path, runner):
    # at kappa 0.7, where (kappa/2) r r and (kappa/2) r^2 round differently,
    # each thread row's h_c is the tip height faces.csv writes for its node,
    # and C12 rows write mu as 0, not -0
    out = tmp_path / "cv"
    res = runner.invoke(cli, ["critvals", "--kappa", "0.7", "--delta", "-0.3",
                              "--grid", "15", "--out", str(out)],
                        catch_exceptions=False)
    assert res.exit_code == 0
    faces = {}
    for line in (tmp_path / "cv_faces.csv").read_text().splitlines()[1:]:
        mu, ell, h, _ = line.split(",", 3)
        faces.setdefault((mu, ell), []).append(h)
    threads = [l.split(",") for l in
               (tmp_path / "cv_threads.csv").read_text().splitlines()[1:]]
    assert [t[1] for t in threads if t[0] == "C12"] == ["0"] * 7
    # C13's mu = -ell is a grid mu only where linspace is symmetric
    on_grid = [t for t in threads if (t[1], t[2]) in faces]
    assert sum(t[0] != "C13" for t in on_grid) == 14
    for curve, mu, ell, h_c, _, _ in on_grid:
        assert h_c in faces[(mu, ell)], (curve, mu, ell, h_c)


def test_critvals_detuned_says_why_no_threads(tmp_path, runner):
    out = tmp_path / "cv"
    res = runner.invoke(cli, ["critvals", "--delta", "0.3", "--lambda2", "0.1",
                              "--grid", "3", "--out", str(out)],
                        catch_exceptions=False)
    assert res.exit_code == 0
    assert res.stdout == ("wrote 9 surface rows, %d face rows, 0 thread rows "
                          "to %s_*.csv\n" % (len((tmp_path / "cv_faces.csv")
                                                .read_text().splitlines()) - 1, out))
    assert len(res.stderr.splitlines()) == 1
    assert "lambda" in res.stderr and "threads" in res.stderr
    assert not (tmp_path / "cv_threads.csv").exists()
    assert not (tmp_path / "cv_loci.csv").exists()


def test_cli_numerical_failure_exit_code():
    # requesting a generator loop around a thread that does not exist at
    # this detuning is a numerical/loop failure, not a usage error
    res = subprocess.run(
        [sys.executable, "-m", "res112.cli", "monodromy", "--delta", "1.5",
         "--loop", "gamma2", "--points", "8"],
        env=_cli_env(), capture_output=True, text=True)
    assert res.returncode == 2
    assert "numerical error" in res.stderr
