import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import yflow.cli
from yflow.cli import main
from yflow.config import ConfigError, load_scenario, parse_kv

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


@pytest.mark.parametrize("argv", [
    ["run", "--config", "bad.cfg", "--out", "o"],
    ["run", "--config", "good.cfg", "--out", "o", "--sweep", "profile.path=bad.txt"],
    ["audit", "--config", "bad.cfg"],
    ["yamabe", "--config", "bad.cfg"],
    ["moser", "--config", "bad.cfg"],
], ids=["run", "run-sweep-worker", "audit", "yamabe", "moser"])
def test_negative_tabulated_phi_exits_two(argv, tmp_path, monkeypatch, capfd):
    # a tabulated phi that dips below zero parses but cannot be built
    monkeypatch.chdir(tmp_path)
    xs = np.linspace(0.0, np.pi, 33)
    _write_profile(tmp_path / "good.txt", xs, np.sin(xs))
    _write_profile(tmp_path / "bad.txt", xs,
                   np.sin(xs) * (1.0 - 1.5 * np.exp(-(((xs - 1.5) / 0.3) ** 2))))
    for name in ("good", "bad"):
        (tmp_path / f"{name}.cfg").write_text(
            f"profile.name = tabulated\nprofile.path = {name}.txt\n"
            "grid.M = 32\nflow.T = 0.01\n"
        )
    assert main(argv) == 2
    err = capfd.readouterr().err
    assert err.count("config error:") == 1
    assert "phi must be positive" in err and "Traceback" not in err


def test_run_decides_each_hypothesis_once(tmp_path, monkeypatch, capsys):
    # the audit, the ledger, the Yamabe gate and the Sobolev constants all read
    # the verdicts; each HYPOTHESES predicate must still run once per run
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
I9             40000           0    -2.124e-322
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


# tabulated profiles with a token that is not a finite number
TABULATED = Path(__file__).resolve().parent / "data" / "tabulated"

# exit-code table: argv, exit code, a fragment of the one stderr line; "{name}"
# in argv is the path of the config file CONFIGS[name]
CONFIGS = {
    "sphere": SPHERE_CFG,
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
}


@pytest.mark.parametrize("argv, code, message", [
    (["auxcheck", "--samples", "0"], 2, "--samples must be an integer >= 1 (got 0)"),
    (["auxcheck", "--samples", "-3"], 2, "--samples must be an integer >= 1 (got -3)"),
    (["auxcheck", "--samples", "0", "--sharpness"], 2, "--samples must be"),
    (["auxcheck", "--seed", "-1"], 2, "--seed must be an integer >= 0 (got -1)"),
    (["auxcheck", "--ineq", ","], 2, "--ineq names no inequality (got ',')"),
    (["auxcheck", "--ineq", ""], 2, "--ineq names no inequality (got '')"),
    (["auxcheck", "--ineq", " , ", "--sharpness"], 2, "--ineq names no inequality"),
    (["moser", "--config", "{sphere}", "--kmax", "0"], 2,
     "yflow moser: k_max must lie in [1, 8] (got 0)"),
    (["moser", "--config", "{sphere}", "--kmax", "9"], 2,
     "yflow moser: k_max must lie in [1, 8] (got 9)"),
    (["moser", "--config", "{sphere}", "--beta", "0.5"], 2,
     "yflow moser: chain exponent beta must exceed 1 (got 0.5)"),
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
     "yflow moser: chain exponent beta must be finite (got inf)"),
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
], ids=["auxcheck-samples-0", "auxcheck-samples-negative",
        "auxcheck-samples-0-sharpness", "auxcheck-seed-negative",
        "auxcheck-ineq-comma", "auxcheck-ineq-empty", "auxcheck-ineq-blank-sharpness",
        "moser-kmax-0", "moser-kmax-9", "moser-beta-half", "moser-config-beta-1",
        "moser-config-kmax-9", "run-config-beta-1", "audit-config-kmax-9",
        "yamabe-config-beta-1", "run-config-p-nan", "audit-config-T-inf",
        "yamabe-config-T-inf", "yamabe-config-multistart", "moser-beta-inf",
        "run-config-beta-inf", "audit-config-beta-inf", "run-config-no-eps",
        "run-config-cone-eps", "run-config-x-max-nan", "run-sweep-unreadable-value",
        "run-sweep-unknown-key", "run-config-p-abc", "audit-config-no-phi-file",
        "run-config-M-padded", "run-config-audit-q", "audit-config-audit-q",
        "audit-config-phi-word", "audit-config-phi-nan-x", "run-sweep-repeated-value"])
def test_exit_codes(argv, code, message, tmp_path, capsys):
    paths = {name: _write(tmp_path, text, name=f"{name}.cfg") for name, text in CONFIGS.items()}
    assert main([arg.format(**paths) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and message in err


def test_moser_command(tmp_path, capsys):
    cfg = _write(tmp_path, SPHERE_CFG)
    assert main(["moser", "--config", cfg, "--beta", "2.0", "--kmax", "4"]) == 0
    out = capsys.readouterr().out
    assert "iteration chain" in out and "ratio" in out


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


PLOT_HEADER = ",".join(col for col, _, _ in yflow.cli.TIMESERIES_COLUMNS)
PLOT_ROW = ",".join(["0.5"] * len(yflow.cli.TIMESERIES_COLUMNS))


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


def test_sweep_runs_each_value(tmp_path, capsys):
    cfg = _write(tmp_path, SPHERE_CFG)
    out = str(tmp_path / "sweep")
    code = main(["run", "--config", cfg, "--out", out,
                 "--sweep", "grid.M=48,64", "--quiet"])
    assert code == 0
    assert os.path.exists(os.path.join(out, "grid.M=48", "timeseries.csv"))
    assert os.path.exists(os.path.join(out, "grid.M=64", "timeseries.csv"))


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


def test_crashing_sweep_worker_exits_three(tmp_path, capsys, monkeypatch):
    real = yflow.cli._scenario_run

    def crash_at_48(cfg, manifold, out_dir, quiet):
        if out_dir.endswith("grid.M=48"):
            raise RuntimeError("injected crash")
        return real(cfg, manifold, out_dir, quiet)

    # the fork start method carries the patch into the workers
    monkeypatch.setattr(yflow.cli, "_scenario_run", crash_at_48)
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
        f"probe,{r.t:.17g},{r.lhs:.17g},{r.rhs:.17g},{r.margin:.17g},"
        f"{'pass' if r.verdict else 'FAIL'}" for r in res.rows]
