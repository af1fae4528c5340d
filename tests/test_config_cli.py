import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import yflow.cli
import yflow.config
from yflow.cli import main
from yflow.config import ConfigError, load_scenario, parse_kv, parse_scenario

SPHERE_CFG = """\
# stock fixed-point scenario
profile.name = sphere
manifold.n = 3
grid.M = 64
grid.gamma = 2.0
flow.T = 0.05
flow.dt_init = 1e-3
flow.dt_max = 1e-3
flow.snapshot_every = 10
monitors.p = 2,inf
"""

CONE_CFG = """\
profile.name = cone
profile.a = 0.8
grid.M = 48
grid.gamma = 1.0
flow.T = 0.01
flow.dt_init = 2e-5
flow.dt_max = 2e-5
flow.snapshot_every = 25
monitors.p = 2,inf
"""


def _write(tmp_path, text, name="scenario.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# --- parser ------------------------------------------------------------------


def test_parse_happy_path():
    kv = parse_kv(SPHERE_CFG)
    assert kv["profile.name"] == "sphere"
    assert kv["grid.M"] == 64
    assert kv["flow.T"] == 0.05


def test_parse_reports_line_and_column():
    with pytest.raises(ConfigError) as err:
        parse_kv("profile.name = sphere\nbogus line here\n")
    assert err.value.line == 2


def test_parse_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_kv("profile.nam = sphere\n")


def test_parse_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv("grid.M = 64\ngrid.M = 32\n")


def test_parse_bad_value_type():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_kv("grid.M = sixtyfour\n")


def test_load_scenario_defaults(tmp_path):
    cfg = load_scenario(_write(tmp_path, SPHERE_CFG))
    assert cfg.profile.name == "sphere"
    assert cfg.grid.M == 64
    assert cfg.p_values == (2.0, math.inf)
    assert cfg.flow.T_final == 0.05


def test_load_scenario_monitor_subset(tmp_path):
    text = SPHERE_CFG + "monitors.enable = scal_lower,u_upper\n"
    cfg = load_scenario(_write(tmp_path, text))
    assert cfg.monitors == ("scal_lower", "u_upper")
    with pytest.raises(ConfigError, match="unknown monitor"):
        load_scenario(_write(tmp_path, SPHERE_CFG + "monitors.enable = bogus\n",
                             name="bad.cfg"))


@pytest.mark.parametrize("field, least", [
    ("seed", 0), ("sobolev_samples", 2),
])
def test_scenario_config_rejects_counts_below_their_range(field, least):
    # the scenario reader checks these ranges too; a config built in Python must not skip them
    cfg = parse_scenario(SPHERE_CFG)
    assert getattr(dataclasses.replace(cfg, **{field: least}), field) == least
    with pytest.raises(ValueError, match=f"^{field} must be >= {least} \\(got {least - 1}\\)$"):
        dataclasses.replace(cfg, **{field: least - 1})


def test_readme_lists_every_scenario_key_with_its_default():
    # README's "Scenario keys" table: the keys of config._KNOWN_KEYS in order,
    # each with its reader's name, the default that parse_scenario or the
    # profile functions resolve, and the keyword or field it goes to
    import inspect
    from pathlib import Path

    from yflow import config, geometry

    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index("| Key | Type | Default | Goes to |") + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    assert [key.strip("`") for key, *_ in rows] == list(config._KNOWN_KEYS)

    cfg = config.parse_scenario("profile.name = sphere\n")
    owners = {"grid": ("RadialGrid({})", cfg.grid), "flow": ("FlowConfig({})", cfg.flow),
              "scenario": ("ScenarioConfig.{}", cfg)}
    for key, kind, default, goes_to in rows:
        reader, part, keyword = config._KNOWN_KEYS[key.strip("`")]
        assert kind == reader.__name__.strip("_").replace("_", " ")
        if part == "profile":
            functions = ({"make_profile": geometry.make_profile} if keyword == "name"
                         else geometry._PROFILES)
            takers = {f"{name}({keyword})": inspect.signature(f).parameters[keyword].default
                      for name, f in functions.items()
                      if keyword in inspect.signature(f).parameters}
        else:
            target, owner = owners[part]
            takers = {target.format(keyword): getattr(owner, keyword)}
        assert goes_to.split(", ") == [f"`{t}`" for t in takers]
        (value,) = set(takers.values())
        if value is inspect.Parameter.empty:
            assert default == "required"
        elif value is None:
            assert default == "—"
        else:
            assert reader(default) == value


# --- CLI ---------------------------------------------------------------------


def test_run_sphere_exit_zero(tmp_path, capsys):
    cfg = _write(tmp_path, SPHERE_CFG)
    out = str(tmp_path / "out")
    code = main(["run", "--config", cfg, "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "timeseries.csv"))
    assert os.path.exists(os.path.join(out, "monitors.csv"))
    assert os.path.exists(os.path.join(out, "ledger.txt"))
    header = Path(out, "timeseries.csv").read_text().splitlines()[0]
    assert header == ("t,dt,rho,vol,min_u,max_u,min_S,max_S,"
                      "s_minus_l2,s_minus_linf,energy_S_rho")
    # rho column constant for the round sphere
    rows = Path(out, "timeseries.csv").read_text().splitlines()[1:]
    rhos = [float(r.split(",")[2]) for r in rows]
    assert max(rhos) - min(rhos) <= 1e-8 * rhos[0]


ONE_STEP_RUN = """
import sys
from yflow.cli import main
code = main(["run", "--config", sys.argv[1], "--out", sys.argv[2], "--quiet"])
print(code, "yflow.auxfn" in sys.modules)
"""


def test_run_does_not_import_auxfn(tmp_path):
    # only `yflow auxcheck` needs the inequality catalogue
    cfg = _write(tmp_path, SPHERE_CFG.replace("flow.T = 0.05", "flow.T = 1e-3"))
    env = dict(os.environ, PYTHONPATH=str(Path(yflow.cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", ONE_STEP_RUN, cfg, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
    assert len((tmp_path / "out" / "timeseries.csv").read_text().splitlines()) == 3


AUXCHECK_ONE_SAMPLE = """
import contextlib, io, sys
import yflow.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = yflow.cli.main(["auxcheck", "--samples", "1"])
print(code, *sorted(name for name in sys.modules if name.startswith("yflow")))
"""

LAZY_NAMES = """
import sys
import yflow.cli
trajectory = yflow.flow.Trajectory      # the submodule loads on first access
from yflow import FlowConfig, estimate_yamabe_constant, perturbed_sphere, run
import yflow.flow, yflow.geometry, yflow.yamabe
print(trajectory is yflow.flow.Trajectory, run is yflow.flow.run,
      FlowConfig is yflow.flow.FlowConfig, perturbed_sphere is yflow.geometry.perturbed_sphere,
      estimate_yamabe_constant is yflow.yamabe.estimate_yamabe_constant)
"""


def _fresh_interpreter(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(yflow.cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_auxcheck_imports_only_the_catalogue():
    # no config, geometry, flow, yamabe or bounds: the package resolves its names lazily
    assert _fresh_interpreter(AUXCHECK_ONE_SAMPLE).split() == [
        "0", "yflow", "yflow.auxfn", "yflow.cli"]


def test_package_names_resolve_on_first_use():
    assert _fresh_interpreter(LAZY_NAMES).split() == ["True"] * 5


def test_run_emits_byte_identical_csv(tmp_path, capsys):
    cfg = _write(tmp_path, SPHERE_CFG)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfg, "--out", out1, "--quiet"]) == 0
    assert main(["run", "--config", cfg, "--out", out2, "--quiet"]) == 0
    blob1 = Path(out1, "timeseries.csv").read_bytes()
    blob2 = Path(out2, "timeseries.csv").read_bytes()
    assert blob1 == blob2


def test_run_cone_warns_but_exits_zero(tmp_path, capsys):
    cfg = _write(tmp_path, CONE_CFG)
    out = str(tmp_path / "out")
    code = main(["run", "--config", cfg, "--out", out])
    captured = capsys.readouterr()
    assert code == 0
    assert "FAIL" in captured.err and "s0_lq_finite" in captured.err


def test_run_malformed_config_exit_two(tmp_path, capsys):
    cfg = _write(tmp_path, "profile.name = sphere\ngrid.M = oops\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "line 2" in capsys.readouterr().err


def _write_profile(path, xs, phis):
    path.write_text("".join(f"{x:.17g} {p:.17g}\n" for x, p in zip(xs, phis)))


def _write_tabulated_configs(tmp_path):
    """good.cfg and bad.cfg: a tabulated phi, and one that dips below zero."""
    xs = np.linspace(0.0, np.pi, 33)
    _write_profile(tmp_path / "good.txt", xs, np.sin(xs))
    _write_profile(tmp_path / "bad.txt", xs,
                   np.sin(xs) * (1.0 - 1.5 * np.exp(-(((xs - 1.5) / 0.3) ** 2))))
    for name in ("good", "bad"):
        (tmp_path / f"{name}.cfg").write_text(
            f"profile.name = tabulated\nprofile.path = {name}.txt\n"
            "grid.M = 32\nflow.T = 0.01\n"
        )


def _assert_one_negative_phi_error(err):
    assert err.count("config error:") == 1
    assert "phi must be positive" in err and "Traceback" not in err


# `yflow` on a process pool of the start method argv[1] names
CLI_WITH_START_METHOD = """
import multiprocessing
import sys
multiprocessing.set_start_method(sys.argv[1])
from yflow.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("method", ["fork", "forkserver"])
def test_negative_tabulated_phi_in_a_sweep_worker_exits_two(method, tmp_path):
    # the worker builds the manifold; its one config error line reaches the run's stderr
    _write_tabulated_configs(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(yflow.cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", CLI_WITH_START_METHOD, method, "run", "--config", "good.cfg",
         "--out", "o", "--quiet", "--sweep", "profile.path=bad.txt"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    _assert_one_negative_phi_error(proc.stderr)


@pytest.mark.parametrize("method", ["fork", "forkserver"])
def test_sweep_worker_without_its_directory_exits_two(method, tmp_path):
    # a file where one worker's directory goes: that job is a config error, not a crash
    (tmp_path / "s.cfg").write_text(SPHERE_CFG)
    (tmp_path / "o").mkdir()
    (tmp_path / "o" / "grid.M=32").write_text("")
    env = dict(os.environ, PYTHONPATH=str(Path(yflow.cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", CLI_WITH_START_METHOD, method, "run", "--config", "s.cfg",
         "--out", "o", "--quiet", "--sweep", "grid.M=32,48"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("config error: cannot create output directory o/grid.M=32: ")
    assert (tmp_path / "o" / "grid.M=48" / "timeseries.csv").is_file()


def test_run_decides_each_hypothesis_once(tmp_path, monkeypatch, capsys):
    # the audit, the monitors, the Yamabe gate, the Sobolev constants and the
    # ledger all read the verdicts; each HYPOTHESES predicate must still run once per run
    from yflow import geometry

    calls = dict.fromkeys(geometry.HYPOTHESES, 0)

    def counted(name, predicate):
        def wrapper(*args):
            calls[name] += 1
            return predicate(*args)
        return wrapper

    for name, predicate in list(geometry.HYPOTHESES.items()):
        monkeypatch.setitem(geometry.HYPOTHESES, name, counted(name, predicate))
    text = SPHERE_CFG.replace("= sphere", "= perturbed_sphere\nprofile.eps = 0.1")
    cfg = _write(tmp_path, text + "monitors.enable = all\nmonitors.samples = 3\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert "[pass] parabolic_sobolev" in capsys.readouterr().out.splitlines()
    assert calls == dict.fromkeys(geometry.HYPOTHESES, 1)


def test_audit_command(tmp_path, capsys):
    cfg = _write(tmp_path, CONE_CFG)
    assert main(["audit", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "s0_lq_finite" in out and "diverges" in out


def test_audit_lists_the_monitors_each_hypothesis_gates(tmp_path, capsys):
    cfg = _write(tmp_path, CONE_CFG)
    assert main(["audit", "--config", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    # S0 ~ +1/x^2 at a cone tip of slope 0.8: unbounded, with (S0)_- = 0
    assert out[1:5] == [
        "  [pass] finite_volume: total volume normalized to 1",
        "  [FAIL] s0_lq_finite: quadrature value 511.477 (divergent at tip)",
        "  [pass] s0_minus_bounded: max (S0)_- over nodes = 0",
        "  [FAIL] s0_bounded: max |S0| over nodes = 5428.29 (unbounded: cone slope != 1)",
    ]
    assert out[-5:] == [
        "monitors that require each hypothesis",
        "  finite_volume: -",
        "  s0_lq_finite: -",
        "  s0_minus_bounded: s_minus_decay_pinf, u_upper, u_lower/supersolution, "
        "energy_decay/h1_ceiling",
        "  s0_bounded: parabolic_sobolev",
    ]


def test_run_says_why_a_monitor_is_not_applicable(tmp_path, capsys):
    # a cone of slope 1.5: S0 ~ -1/x^2 at the tip, so (S0)_- is unbounded
    cfg = _write(tmp_path, CONE_CFG.replace("profile.a = 0.8", "profile.a = 1.5"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    na = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[n/a ]")]
    minus = "s0_minus_bounded fails: max (S0)_- over nodes = "
    assert [line.split(": ", 1)[0] for line in na] == [
        "[n/a ] s_minus_decay_pinf", "[n/a ] u_upper", "[n/a ] parabolic_sobolev"]
    assert all(minus in line and line.endswith("(unbounded: cone slope > 1)") for line in na[:2])
    assert na[2].startswith("[n/a ] parabolic_sobolev: s0_bounded fails: max |S0| over nodes")


def test_yamabe_command(tmp_path, capsys):
    cfg = _write(tmp_path, SPHERE_CFG)
    assert main(["yamabe", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "Y_est" in out and "iterations" in out
    val = float(out.split("Y_est =")[1].split()[0])
    assert val == pytest.approx(43.82, abs=0.3)


def test_auxcheck_command(capsys):
    assert main(["auxcheck", "--ineq", "I3", "--samples", "5000"]) == 0
    out = capsys.readouterr().out
    assert "I3" in out and "violations" in out.splitlines()[0]


def test_auxcheck_unknown_inequality(capsys):
    assert main(["auxcheck", "--ineq", "I99"]) == 2


# stdout of `yflow auxcheck --samples 40000 --sharpness`, byte for byte
AUXCHECK_40K_SHARPNESS = """\
inequality   samples  violations   worst margin
I1             40000           0      0.000e+00
I2             40000           0     -4.441e-16
I3             40000           0    -3.122e-321
I4             40000           0    -4.941e-323
I5             40000           0      0.000e+00
I6             40000           0      4.368e-42
I7             40000           0     -3.902e-16
I8             40000           0    -4.447e-323
I9             40000           0    -2.174e-322
I10            40000           0      0.000e+00
I11            40000           0    -6.930e-316
I12            40000           0     -9.709e-17
I13            40000           0      0.000e+00
LIMITS         40000           0      0.000e+00

out-of-region sharpness probes:
  I2: violated at beta=1.50432 L=1.54401 n=4 x=801553 (lhs 3.76303e-12 > rhs 0)
  I4: violated at beta=1.20423 L=0.00238888 n=3 x=792.393 (lhs 0.00201549 > rhs 7.29145e-08)
"""


def test_auxcheck_golden_output(capsys):
    assert main(["auxcheck", "--samples", "40000", "--sharpness"]) == 0
    assert capsys.readouterr().out == AUXCHECK_40K_SHARPNESS


def test_auxcheck_golden_output_serial(monkeypatch, capsys):
    # on one CPU the catalogue is scanned in this process, not on a pool
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert main(["auxcheck", "--samples", "40000", "--sharpness"]) == 0
    assert capsys.readouterr().out == AUXCHECK_40K_SHARPNESS


CUT_AUXCHECK = """
import sys
from yflow.cli import main
code = main(["auxcheck", "--samples", "1"])
print(code, "concurrent.futures.process" in sys.modules, file=sys.stderr)
"""


def test_cut_auxcheck_starts_no_process_pool():
    # `auxcheck --samples 1` is the benchmark's set-up job: a pool would only add start-up
    env = dict(os.environ, PYTHONPATH=str(Path(yflow.cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", CUT_AUXCHECK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["0", "False"]
    assert len(proc.stdout.splitlines()) == 15


# tabulated profiles: with a token that is not a finite number, or a phi that dips below zero
TABULATED = Path(__file__).resolve().parent / "data" / "tabulated"

PLOT_HEADER = ",".join(col for col, _, _ in yflow.cli.TIMESERIES_COLUMNS)
PLOT_ROW = ",".join(["0.5"] * len(yflow.cli.TIMESERIES_COLUMNS))


# exit-code table: argv, exit code, a fragment of the one stderr line; "{name}"
# in argv is the path of the file CONFIGS[name]
CONFIGS = {
    "sphere": SPHERE_CFG,
    "timeseries": f"{PLOT_HEADER}\n{PLOT_ROW}\n",
    "beta_1": SPHERE_CFG + "moser.beta = 1.0\n",
    "kmax_9": SPHERE_CFG + "moser.k_max = 9\n",
    "p_nan": SPHERE_CFG.replace("monitors.p = 2,inf", "monitors.p = 2,nan"),
    "T_inf": SPHERE_CFG.replace("flow.T = 0.05", "flow.T = inf"),
    "multistart": SPHERE_CFG + "yamabe.multistart = 3\n",
    "beta_inf": SPHERE_CFG + "moser.beta = inf\n",
    "no_eps": SPHERE_CFG.replace("= sphere", "= perturbed_sphere"),
    "cone_eps": CONE_CFG + "profile.eps = 0.1\n",
    "x_max_nan": SPHERE_CFG.replace("= sphere", "= perturbed_sphere\nprofile.eps = 0.1")
    + "profile.x_max = nan\n",
    "p_abc": SPHERE_CFG.replace("monitors.p = 2,inf", "monitors.p = 2,abc"),
    "no_phi_file": "profile.name = tabulated\nprofile.path = no-such-dir/phi.txt\n",
    "M_padded": SPHERE_CFG.replace("grid.M = 64", "grid.M =    abc"),
    "audit_q": SPHERE_CFG + "audit.q = 4.5\n",
    "phi_word": f"profile.name = tabulated\nprofile.path = {TABULATED / 'word_token.txt'}\n",
    "phi_nan_x": f"profile.name = tabulated\nprofile.path = {TABULATED / 'nan_abscissa.txt'}\n",
    "negative_phi": f"profile.name = tabulated\nprofile.path = {TABULATED / 'negative_phi.txt'}\n"
    "grid.M = 32\nflow.T = 0.01\n",
    "vol_tol": SPHERE_CFG + "flow.vol_tol = 1e-10\n",
    "cfl": SPHERE_CFG + "flow.cfl = 0.5\n",
    "floor_inf": SPHERE_CFG + "flow.positivity_floor = inf\n",
    "floor_huge": SPHERE_CFG + "flow.positivity_floor = 1e300\n",
    "seed_negative": SPHERE_CFG + "seed = -3000\n",
    "checkpoint_negative": SPHERE_CFG + "flow.checkpoint_every = -2\n",
    "samples_1": SPHERE_CFG + "monitors.samples = 1\n",
    "max_iter_negative": SPHERE_CFG + "yamabe.max_iter = -1\n",
    "p_repeated": SPHERE_CFG.replace("monitors.p = 2,inf", "monitors.p = 2,inf,2.0"),
    "enable_repeated": SPHERE_CFG + "monitors.enable = u_upper,scal_lower,u_upper\n",
    "n_344": SPHERE_CFG.replace("manifold.n = 3", "manifold.n = 344"),
    # phi^199 underflows at the nodes nearest the poles: 8 zero node weights
    "zero_weight": SPHERE_CFG.replace("= sphere", "= perturbed_sphere\nprofile.eps = 0.2")
    .replace("manifold.n = 3", "manifold.n = 200").replace("grid.M = 64", "grid.M = 32"),
    # the last nodes round to x_max: 8 faces of zero width
    "zero_face": SPHERE_CFG.replace("grid.M = 64", "grid.M = 32")
    .replace("grid.gamma = 2.0", "grid.gamma = 40"),
    # phi^2 underflows to 0 at node 0 as well, which S0 would divide by
    "steep_200": SPHERE_CFG.replace("grid.M = 64", "grid.M = 32")
    .replace("grid.gamma = 2.0", "grid.gamma = 200"),
    # s^gamma and (1-s)^gamma both underflow: the grading map would be 0/0
    "steep_inf": SPHERE_CFG.replace("grid.M = 64", "grid.M = 32")
    .replace("grid.gamma = 2.0", "grid.gamma = inf"),
}


@pytest.mark.parametrize("argv, code, message", [
    (["auxcheck", "--samples", "0"], 2, "--samples must be an integer >= 1 (got 0)"),
    (["auxcheck", "--samples", "-3"], 2, "--samples must be an integer >= 1 (got -3)"),
    (["auxcheck", "--samples", "0", "--sharpness"], 2, "--samples must be"),
    (["auxcheck", "--seed", "-1"], 2, "--seed must be an integer >= 0 (got -1)"),
    (["auxcheck", "--ineq", ","], 2, "--ineq names no inequality (got ',')"),
    (["auxcheck", "--ineq", ""], 2, "--ineq names no inequality (got '')"),
    (["auxcheck", "--ineq", " , ", "--sharpness"], 2, "--ineq names no inequality"),
    # each id names its own row
    (["auxcheck", "--ineq", "I1,I1,I3"], 2, "yflow auxcheck: --ineq lists I1 twice"),
    # the moser flags are moser.beta and moser.k_max overrides
    (["moser", "--config", "{sphere}", "--kmax", "0"], 2,
     "config error: k_max must lie in [1, 8] (got 0)"),
    (["moser", "--config", "{sphere}", "--kmax", "9"], 2,
     "config error: k_max must lie in [1, 8] (got 9)"),
    (["moser", "--config", "{sphere}", "--beta", "0.5"], 2,
     "config error: chain exponent beta must exceed 1 (got 0.5)"),
    (["moser", "--config", "{beta_1}"], 2,
     "config error: chain exponent beta must exceed 1 (got 1)"),
    (["moser", "--config", "{kmax_9}"], 2, "config error: k_max must lie in [1, 8] (got 9)"),
    (["run", "--config", "{beta_1}"], 2, "config error: chain exponent beta must exceed 1"),
    (["audit", "--config", "{kmax_9}"], 2, "config error: k_max must lie in [1, 8]"),
    (["yamabe", "--config", "{beta_1}"], 2, "config error: chain exponent beta must exceed 1"),
    (["run", "--config", "{p_nan}"], 2, "config error: monitor exponent p = nan must be >= 2"),
    # audit and yamabe never run the flow, so a T that is accepted cannot hang them
    (["audit", "--config", "{T_inf}"], 2, "config error: T_final must be positive and finite"),
    (["yamabe", "--config", "{T_inf}"], 2, "config error: T_final must be positive and finite"),
    (["yamabe", "--config", "{multistart}"], 2, "unknown key 'yamabe.multistart'"),
    (["moser", "--config", "{sphere}", "--beta", "inf"], 2,
     "config error: chain exponent beta must be finite (got inf)"),
    (["run", "--config", "{beta_inf}"], 2,
     "config error: chain exponent beta must be finite (got inf)"),
    (["audit", "--config", "{beta_inf}"], 2, "config error: chain exponent beta must be finite"),
    (["run", "--config", "{no_eps}"], 2,
     "config error: profile 'perturbed_sphere' needs parameter 'eps'"),
    (["run", "--config", "{cone_eps}"], 2,
     "config error: profile 'cone' takes no parameter 'eps' (it takes a, n, x_max)"),
    (["run", "--config", "{x_max_nan}"], 2,
     "config error: profile 'perturbed_sphere' takes no parameter 'x_max'"),
    # a sweep value is read before any worker starts; its error cites no line
    (["run", "--quiet", "--config", "{sphere}", "--sweep", "grid.M=abc"], 2,
     "config error: cannot parse value 'abc' for 'grid.M' as int"),
    (["run", "--quiet", "--config", "{sphere}", "--sweep", "bogus.key=1"], 2,
     "config error: unknown key 'bogus.key'"),
    (["run", "--config", "{p_abc}"], 2,
     "config error: line 10, column 14: cannot parse value '2,abc' for 'monitors.p' "
     "as exponent list"),
    (["audit", "--config", "{no_phi_file}"], 2,
     "No such file or directory: 'no-such-dir/phi.txt'"),
    (["run", "--config", "{M_padded}"], 2,
     "config error: line 4, column 13: cannot parse value 'abc' for 'grid.M' as int"),
    (["run", "--config", "{audit_q}"], 2, "config error: line 11, column 1: unknown key 'audit.q'"),
    (["audit", "--config", "{audit_q}"], 2, "config error: line 11, column 1: unknown key 'audit.q'"),
    (["audit", "--config", "{phi_word}"], 2,
     f"config error: {TABULATED / 'word_token.txt'}:3: expected two finite numbers, "
     "got '0.5 zero'"),
    (["audit", "--config", "{phi_nan_x}"], 2,
     f"config error: {TABULATED / 'nan_abscissa.txt'}:3: expected two finite numbers, "
     "got 'nan 0.48'"),
    # both workers would write grid.M=32/
    (["run", "--quiet", "--config", "{sphere}", "--sweep", "grid.M=32,32"], 2,
     "sweep error: sweep needs PARAM=a,b,c with distinct values"),
    (["run", "--quiet", "--config", "{sphere}", "--sweep", "flow.T=0.01, 0.01"], 2,
     "sweep error: sweep needs PARAM=a,b,c with distinct values"),
    # integer keys out of range are read as errors, before the flow runs
    (["run", "--config", "{seed_negative}"], 2,
     "config error: line 11, column 8: cannot parse value '-3000' for 'seed' as int >= 0"),
    (["run", "--config", "{sphere}", "--seed", "-3000"], 2,
     "config error: cannot parse value '-3000' for 'seed' as int >= 0"),
    (["run", "--config", "{checkpoint_negative}"], 2,
     "cannot parse value '-2' for 'flow.checkpoint_every' as int >= 0"),
    (["run", "--config", "{samples_1}"], 2,
     "cannot parse value '1' for 'monitors.samples' as int >= 2"),
    (["yamabe", "--config", "{max_iter_negative}"], 2,
     "config error: line 11, column 1: unknown key 'yamabe.max_iter'"),
    # each entry names its own monitor results, so a repeated one is an error
    (["run", "--config", "{p_repeated}"], 2, "config error: monitors.p lists 2.0 twice"),
    (["run", "--config", "{enable_repeated}"], 2,
     "config error: monitors.enable lists u_upper twice"),
    # an output directory that is an existing file, or lies below one
    (["run", "--quiet", "--config", "{sphere}", "--out", "{sphere}"], 2,
     "config error: cannot create output directory"),
    (["run", "--quiet", "--config", "{sphere}", "--out", "{sphere}/sub"], 2,
     "config error: cannot create output directory"),
    (["run", "--quiet", "--config", "{sphere}", "--out", "{sphere}", "--sweep", "grid.M=32,48"],
     2, "config error: cannot create output directory"),
    (["plot", "{timeseries}", "--out", "{sphere}"], 2,
     "config error: cannot create output directory"),
    # Gamma(n/2) overflows a float from n = 344 on
    (["audit", "--config", "{n_344}"], 2, "config error: dimension n = 344 is too large"),
    (["run", "--config", "{n_344}"], 2, "config error: dimension n = 344 is too large"),
    (["yamabe", "--config", "{n_344}"], 2, "config error: dimension n = 344 is too large"),
    (["moser", "--config", "{n_344}"], 2, "config error: dimension n = 344 is too large"),
    # a degenerate grid is a config error, not a solver abort at its first step
    (["run", "--config", "{zero_weight}"], 2, "config error: zero weight at node 0 "),
    (["run", "--config", "{zero_face}"], 2,
     "config error: zero width of the face after node 24 "),
    (["audit", "--config", "{zero_face}"], 2,
     "config error: zero width of the face after node 24 "),
    (["audit", "--config", "{steep_200}"], 2,
     "config error: zero width of the face after node 18 "),
    (["run", "--config", "{steep_200}"], 2,
     "config error: zero width of the face after node 18 "),
    (["audit", "--config", "{steep_inf}"], 2,
     "config error: grading exponent gamma = inf is too steep for M = 32"),
    (["run", "--config", "{steep_inf}"], 2,
     "config error: grading exponent gamma = inf is too steep for M = 32"),
    # a tabulated phi that dips below zero parses but cannot be built
    (["run", "--config", "{negative_phi}"], 2, "config error: phi must be positive"),
    (["audit", "--config", "{negative_phi}"], 2, "config error: phi must be positive"),
    (["yamabe", "--config", "{negative_phi}"], 2, "config error: phi must be positive"),
    (["moser", "--config", "{negative_phi}"], 2, "config error: phi must be positive"),
    # the unit-volume tolerance, the reaction cap's factor and the positivity floor are
    # fixed, not keys
    (["run", "--config", "{vol_tol}"], 2,
     "config error: line 11, column 1: unknown key 'flow.vol_tol'"),
    (["run", "--config", "{cfl}"], 2, "config error: line 11, column 1: unknown key 'flow.cfl'"),
    (["run", "--config", "{floor_inf}"], 2,
     "config error: line 11, column 1: unknown key 'flow.positivity_floor'"),
    (["run", "--config", "{floor_huge}"], 2,
     "config error: line 11, column 1: unknown key 'flow.positivity_floor'"),
], ids=["auxcheck-samples-0", "auxcheck-samples-negative",
        "auxcheck-samples-0-sharpness", "auxcheck-seed-negative",
        "auxcheck-ineq-comma", "auxcheck-ineq-empty", "auxcheck-ineq-blank-sharpness",
        "auxcheck-ineq-repeated",
        "moser-kmax-0", "moser-kmax-9", "moser-beta-half", "moser-config-beta-1",
        "moser-config-kmax-9", "run-config-beta-1", "audit-config-kmax-9",
        "yamabe-config-beta-1", "run-config-p-nan", "audit-config-T-inf",
        "yamabe-config-T-inf", "yamabe-config-multistart", "moser-beta-inf",
        "run-config-beta-inf", "audit-config-beta-inf", "run-config-no-eps",
        "run-config-cone-eps", "run-config-x-max-nan", "run-sweep-unreadable-value",
        "run-sweep-unknown-key", "run-config-p-abc", "audit-config-no-phi-file",
        "run-config-M-padded", "run-config-audit-q", "audit-config-audit-q",
        "audit-config-phi-word", "audit-config-phi-nan-x", "run-sweep-repeated-value",
        "run-sweep-repeated-padded-value",
        "run-config-seed-negative", "run-seed-negative", "run-config-checkpoint-negative",
        "run-config-samples-1", "yamabe-config-max-iter-negative", "run-config-p-repeated",
        "run-config-enable-repeated", "run-out-file", "run-out-below-file", "run-sweep-out-file",
        "plot-out-file", "audit-config-n-344", "run-config-n-344", "yamabe-config-n-344",
        "moser-config-n-344", "run-config-zero-weight", "run-config-zero-face",
        "audit-config-zero-face", "audit-config-steep-200", "run-config-steep-200",
        "audit-config-steep-inf", "run-config-steep-inf", "run-config-negative-phi",
        "audit-config-negative-phi", "yamabe-config-negative-phi", "moser-config-negative-phi",
        "run-config-vol-tol", "run-config-cfl", "run-config-floor-inf",
        "run-config-floor-huge"])
def test_exit_codes(argv, code, message, tmp_path, capsys):
    paths = {name: _write(tmp_path, text, name=f"{name}.cfg") for name, text in CONFIGS.items()}
    assert main([arg.format(**paths) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and message in err


HORIZON_CFG = """\
profile.name = {profile}
grid.M = 32
flow.T = {T}
flow.dt_init = 0.5
flow.dt_max = 0.5
"""


@pytest.mark.parametrize("profile", ["sphere", "perturbed_sphere\nprofile.eps = 0.1"],
                         ids=["sphere", "perturbed_sphere"])
def test_long_horizons_saturate_the_growth_factors(profile, tmp_path, capsys):
    # rho0 is about 43.8 here, so exp leaves the float range in scal_lower's floor at
    # t > 16.2, in s_minus_decay_p2's bound at t > 21.6 and in u_upper's at t > 64.8;
    # each bound is then its t -> inf limit, and the rows before stay as they were
    rows = {}
    for T in (16, 17, 25, 70):
        cfg = _write(tmp_path, HORIZON_CFG.format(profile=profile, T=T), name=f"T{T}.cfg")
        out = tmp_path / f"T{T}"
        assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = [line.split(",") for line in (out / "monitors.csv").read_text().splitlines()[1:]]
        assert not [line for line in lines if "nan" in line]
        rows[T] = lines
    assert capsys.readouterr().err == ""
    shared = [[line for line in rows[T] if float(line[1]) < 16] for T in rows]
    assert len(shared[0]) > 100 and all(part == shared[0] for part in shared)
    # (S0)_- = 0: the s_minus_decay bound is its absolute floor at every t
    assert len({line[3] for line in rows[70] if line[0] == "s_minus_decay_p2"}) == 1
    late = [line for line in rows[70] if float(line[1]) > 65]
    assert {line[3] for line in late if line[0] == "u_upper"} == {"inf"}


# perturbed_sphere(0.2) with a snapshot every step: each change below breaks the run
REPRO_CFG = """\
profile.name = perturbed_sphere
profile.eps = 0.2
manifold.n = 3
grid.M = 32
grid.gamma = 2.0
flow.T = 0.05
flow.dt_init = 1e-3
flow.dt_max = 1e-3
flow.snapshot_every = 1
monitors.p = 2,inf
"""


def _repro(changes):
    """REPRO_CFG with the values of ``changes``, key by key."""
    lines = [line for line in REPRO_CFG.splitlines() if line.split(" = ")[0] not in changes]
    return "\n".join(lines + [f"{key} = {value}" for key, value in changes.items()]) + "\n"


@pytest.mark.parametrize("changes, message, checkpoint", [
    # max|S - rho| explodes: t + dt == t once the cap reaches 5.5e-32, at T = 2e-4 and
    # before any horizon
    ({"manifold.n": "100", "flow.T": "2e-4", "flow.dt_init": "2e-4"},
     "reaction cap dt=5.539e-32 below dt_min=1.000e-09 at t=0.000184405", "abort_step11.ckpt"),
    ({"manifold.n": "100", "flow.dt_init": "2e-4"},
     "reaction cap dt=5.539e-32 below dt_min=1.000e-09 at t=0.000184405", "abort_step11.ckpt"),
], ids=["n-100-short", "n-100"])
def test_solver_failures_exit_three(changes, message, checkpoint, tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--quiet", "--config", _write(tmp_path, _repro(changes)),
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3 and f"solver abort: {message}" in err
    assert sorted(p.name for p in out.iterdir()) == ([checkpoint] if checkpoint else [])


# one-key perturbations of REPRO_CFG: each key at each edge value, and each key that is
# gone (an unknown key, whatever its value).  Left out, since they run for hours until a
# step limit (`flow.max_steps`) exists: flow.T = 1e300 here, and outside these values
# profile.eps = -0.99
EDGE_VALUES = ("0", "-1", "nan", "inf", "5e-324", "1e300", "abc")
REMOVED_KEYS = ("yamabe.multistart", "flow.vol_tol", "flow.cfl", "flow.positivity_floor",
                "flow.dt_min", "yamabe.max_iter")
EDGE_CASES = [(key, value) for key in (*yflow.config._KNOWN_KEYS, *REMOVED_KEYS)
              for value in EDGE_VALUES if (key, value) != ("flow.T", "1e300")]
# the stderr lines `run --quiet` prints, in order, for each exit code
STDERR_LINES = {0: (), 1: ("monitor failures: ",), 2: ("config error: ",),
                3: ("solver abort: ", "last valid checkpoint: ")}


@pytest.mark.parametrize("key, value", EDGE_CASES, ids=[f"{k}={v}" for k, v in EDGE_CASES])
def test_one_key_edge_values_end_cleanly(key, value, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--quiet", "--config", _write(tmp_path, _repro({key: value})),
                     "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert code in STDERR_LINES and out == "" and (code == 0) == (lines == [])
    assert len(lines) <= len(STDERR_LINES[code])
    assert all(line.startswith(p) for line, p in zip(lines, STDERR_LINES[code])), err
    if key in REMOVED_KEYS:
        assert code == 2 and f"unknown key {key!r}" in err


def test_a_run_that_fails_its_own_validation_exits_three(tmp_path, capsys, monkeypatch):
    # a finished trajectory that breaks an invariant is a solver abort, with no checkpoint
    def broken(traj):
        raise ValueError("final rho disagrees with the Dirichlet form")

    monkeypatch.setattr(yflow.flow.Trajectory, "validate", broken)
    out = tmp_path / "out"
    code = main(["run", "--quiet", "--config", _write(tmp_path, REPRO_CFG), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr() == (
        "", "solver abort: final rho disagrees with the Dirichlet form\n")
    assert list(out.iterdir()) == []


def test_overflowing_norms_give_finite_rows(tmp_path, capsys):
    # |S_-|^400 overflows; each such norm is taken again scaled by max S_-
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--quiet", "--config",
                     _write(tmp_path, _repro({"monitors.p": "400"})), "--out", str(out)])
    assert code == 0 and capsys.readouterr().err == ""
    rows = [line.split(",") for line in (out / "monitors.csv").read_text().splitlines()[1:]]
    assert not [row for row in rows if "nan" in row]
    decay = [row for row in rows if row[0] == "s_minus_decay_p400"]
    assert len(decay) == 51 and all(math.isfinite(float(v)) for row in decay for v in row[2:5])
    passing = [row for row in rows if row[5] == "pass"]
    assert all(math.isfinite(float(row[2])) for row in passing)
    # an infinite rhs passes only as s_upper's ceiling on its finite late sup and integral
    assert [row[0] for row in passing if not math.isfinite(float(row[3]))] == ["s_upper"] * 2


def test_an_infinite_lhs_under_an_infinite_ceiling_has_a_nan_margin(tmp_path, capsys):
    # on the round S^200 the |S|^q time integral of s_upper leaves the float range
    out = tmp_path / "out"
    cfg = "profile.name = sphere\nmanifold.n = 200\ngrid.M = 32\nflow.T = 0.01\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--quiet", "--config", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 1 and capsys.readouterr().err.splitlines()[-1] == "monitor failures: s_upper"
    rows = (out / "monitors.csv").read_text().splitlines()
    assert [row for row in rows if "nan" in row] == ["s_upper,0.01,inf,inf,nan,FAIL"]


def test_moser_command(tmp_path, capsys):
    cfg = _write(tmp_path, SPHERE_CFG)
    assert main(["moser", "--config", cfg, "--beta", "2.0", "--kmax", "4"]) == 0
    out = capsys.readouterr().out
    assert "iteration chain" in out and "ratio" in out


def test_moser_flags_win_over_the_file_values(tmp_path, capsys):
    # as run --seed does: the flags replace the file's values before they are checked
    cfg = _write(tmp_path, SPHERE_CFG + "moser.beta = 1.0\nmoser.k_max = 9\n")
    assert main(["moser", "--config", cfg, "--beta", "3", "--kmax", "2"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("iteration chain: beta = 3, ")
    assert [line.split()[0] for line in out.splitlines()[2:]] == ["1", "2"]


def test_plot_command(tmp_path, capsys):
    cfg = _write(tmp_path, SPHERE_CFG)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg, "--out", out, "--quiet"])
    plots = str(tmp_path / "plots")
    code = main(["plot", os.path.join(out, "timeseries.csv"), "--out", plots])
    assert code == 0
    made = sorted(os.listdir(plots))
    assert "rho.svg" in made and "energy_S_rho.svg" in made
    blob = Path(plots, "rho.svg").read_bytes()
    assert blob.startswith(b"<svg")
    # deterministic bytes
    code = main(["plot", os.path.join(out, "timeseries.csv"),
                 "--out", str(tmp_path / "plots2")])
    assert code == 0
    blob2 = (tmp_path / "plots2" / "rho.svg").read_bytes()
    assert blob == blob2


def test_plot_empty_csv_exit_two(tmp_path, capsys):
    p = tmp_path / "empty.csv"
    p.write_text("")
    assert main(["plot", str(p)]) == 2


@pytest.mark.parametrize("bad_row, message", [
    (PLOT_ROW.replace("0.5", "abc", 1), "line 3: could not convert string to float"),
    (PLOT_ROW.rsplit(",", 1)[0], "line 3: need 11 finite values"),
    (PLOT_ROW.replace("0.5", "inf", 3), "line 3: need 11 finite values"),
], ids=["non-numeric-token", "short-row", "infinite-value"])
def test_plot_malformed_row_exit_two(tmp_path, capsys, bad_row, message):
    p = tmp_path / "bad.csv"
    p.write_text(f"{PLOT_HEADER}\n{PLOT_ROW}\n{bad_row}\n")
    assert main(["plot", str(p), "--out", str(tmp_path / "plots")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{p}: {message}")
    assert len(err.strip().splitlines()) == 1


def test_plot_missing_columns_exit_two(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("t,rho\n0.0,1.0\n")
    assert main(["plot", str(p)]) == 2
    assert "missing columns" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [
    ("0", "5e-324"), ("-1.7e308", "1.7e308"), ("1.7976931348623157e308",),
], ids=["one-subnormal-ulp", "overflowing-span", "one-row-at-the-largest-float"])
def test_plot_extreme_finite_spans_exit_zero(tmp_path, capsys, rows):
    # every column, t included, spans the rows' values: a span whose tick spacing
    # underflows, one that overflows, and a single row where t + 1 == t
    p = tmp_path / "extreme.csv"
    width = len(yflow.cli.TIMESERIES_COLUMNS)
    p.write_text("\n".join([PLOT_HEADER, *(",".join([v] * width) for v in rows)]) + "\n")
    plots = tmp_path / "plots"
    assert main(["plot", str(p), "--out", str(plots)]) == 0
    assert capsys.readouterr().err == ""
    svgs = sorted(plots.iterdir())
    assert len(svgs) == 7
    for svg in svgs:
        text = svg.read_text()
        assert text.startswith("<svg") and "nan" not in text and "inf" not in text


def test_sweep_runs_each_value(tmp_path, capsys):
    cfg = _write(tmp_path, SPHERE_CFG)
    out = str(tmp_path / "sweep")
    code = main(["run", "--config", cfg, "--out", out,
                 "--sweep", "grid.M=48,64", "--quiet"])
    assert code == 0
    assert os.path.exists(os.path.join(out, "grid.M=48", "timeseries.csv"))
    assert os.path.exists(os.path.join(out, "grid.M=64", "timeseries.csv"))


def test_sweep_names_each_directory_by_its_stripped_value(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["run", "--config", _write(tmp_path, SPHERE_CFG), "--out", str(out),
                 "--sweep", "flow.T=0.01, 0.02", "--quiet"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["flow.T=0.01", "flow.T=0.02"]


@pytest.mark.parametrize("cpus, values, workers", [
    (64, "48,64", 2), (2, "32,48,64", 2), (1, "48,64", 1), (None, "48", 1),
])
def test_sweep_pool_has_one_worker_per_value_up_to_the_cpu_count(
        cpus, values, workers, tmp_path, capsys, monkeypatch):
    import concurrent.futures as cf

    sizes = []

    class RecordingPool:    # records its size and runs no job
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = cf.Future()
            done.set_result(0)
            return done

    monkeypatch.setattr(cf, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = _write(tmp_path, SPHERE_CFG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "sweep"),
                 "--sweep", f"grid.M={values}"]) == 0
    assert sizes == [workers]
    assert capsys.readouterr().out.count(": exit 0") == len(values.split(","))


def test_yflow_out_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("YFLOW_OUT", str(tmp_path / "envroot"))
    cfg = _write(tmp_path, SPHERE_CFG)
    code = main(["run", "--config", cfg, "--quiet"])
    assert code == 0
    assert os.path.exists(os.path.join(str(tmp_path / "envroot"), "out",
                                       "timeseries.csv"))



PERTURBED_CFG = """\
profile.name = perturbed_sphere
profile.eps = 0.2
manifold.n = 3
grid.M = 64
grid.gamma = 2.0
flow.T = 0.05
flow.dt_init = 1e-3
flow.dt_max = 1e-3
flow.snapshot_every = 10
monitors.p = 2,inf
"""


def test_sweep_passes_seed_to_workers(tmp_path, capsys):
    # the seed draws the Sobolev test fields, so it shows in monitors.csv
    cfg = _write(tmp_path, PERTURBED_CFG)
    runs = {
        "single": ["--seed", "5"],
        "sweep": ["--seed", "5", "--sweep", "grid.M=64"],
        "seedless": ["--sweep", "grid.M=64"],
    }
    for name, extra in runs.items():
        assert main(["run", "--config", cfg, "--out", str(tmp_path / name), "--quiet",
                     *extra]) == 0
    single = (tmp_path / "single" / "monitors.csv").read_bytes()
    assert (tmp_path / "sweep" / "grid.M=64" / "monitors.csv").read_bytes() == single
    assert (tmp_path / "seedless" / "grid.M=64" / "monitors.csv").read_bytes() != single


def test_sweep_seed_wins_over_the_seed_flag(tmp_path, capsys):
    cfg = _write(tmp_path, PERTURBED_CFG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "single"), "--quiet",
                 "--seed", "7"]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "sweep"), "--quiet",
                 "--seed", "5", "--sweep", "seed=7"]) == 0
    assert ((tmp_path / "sweep" / "seed=7" / "monitors.csv").read_bytes()
            == (tmp_path / "single" / "monitors.csv").read_bytes())


@pytest.mark.parametrize("method", ["fork", "forkserver"])
def test_crashing_sweep_worker_exits_three(method, tmp_path, capsys, monkeypatch):
    import concurrent.futures as cf
    import multiprocessing

    class CrashingPool(cf.ProcessPoolExecutor):
        """A pool of the given start method whose job for grid.M=48 raises in the worker."""

        def __init__(self, max_workers=None):
            super().__init__(max_workers, mp_context=multiprocessing.get_context(method))

        def submit(self, fn, *args):
            if args[-1].endswith("grid.M=48"):      # the job's output directory
                fn, args = exec, ("raise RuntimeError('injected crash')",)
            return super().submit(fn, *args)

    monkeypatch.setattr(cf, "ProcessPoolExecutor", CrashingPool)
    cfg = _write(tmp_path, SPHERE_CFG)
    out = tmp_path / "sweep"
    code = main(["run", "--config", cfg, "--out", str(out), "--sweep", "grid.M=48,64"])
    captured = capsys.readouterr()
    assert code == 3
    assert (f"sweep {out / 'grid.M=48'}: worker failed: RuntimeError: injected crash"
            in captured.err.splitlines())
    assert f"sweep {out / 'grid.M=64'}: exit 0" in captured.out.splitlines()
    assert (out / "grid.M=64" / "monitors.csv").is_file()


SPECIAL_VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
                  np.float64(1.0 / 3.0), 1e300, 43.82285291353398]


def test_csv_writers_format_like_fstrings(tmp_path):
    # one %-format per row must print every value as f"{v:.17g}" does
    from types import SimpleNamespace

    from yflow.bounds import MonitorResult

    cols = {f: np.roll(np.array(SPECIAL_VALUES, dtype=float), i)
            for i, (_, f, _) in enumerate(yflow.cli.TIMESERIES_COLUMNS)}
    path = tmp_path / "timeseries.csv"
    yflow.cli.write_timeseries(SimpleNamespace(**cols), str(path))
    rows = path.read_text().splitlines()[1:]
    assert rows == [",".join(f"{cols[f][r]:.17g}" for _, f, _ in yflow.cli.TIMESERIES_COLUMNS)
                    for r in range(len(SPECIAL_VALUES))]

    res = MonitorResult("probe")
    for v in SPECIAL_VALUES:
        res.add(v, v, 1.0, v == v)
    path = tmp_path / "monitors.csv"
    yflow.cli.write_monitors([res], str(path))
    assert path.read_text().splitlines()[1:] == [
        f"probe,{t:.17g},{lhs:.17g},{rhs:.17g},{margin:.17g},{'pass' if ok else 'FAIL'}"
        for t, lhs, rhs, margin, ok in zip(res.t.tolist(), res.lhs.tolist(), res.rhs.tolist(),
                                           res.margin.tolist(), res.verdict.tolist())]
