import glob
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import toruslab
from toruslab import cli
from toruslab import estimates as es
from toruslab import runner as rn

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def write_cfg(tmp_path, text, name="scenario.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_validate_and_errors(tmp_path):
    good = write_cfg(tmp_path, "[run]\nscenario = envelope\nseed = 3\n")
    cfg = rn.load_config(good)
    assert rn.validate_config(cfg) == "envelope"
    bad = write_cfg(tmp_path, "[run]\nscenario = nonsense\n", "bad.cfg")
    with pytest.raises(rn.ConfigError):
        rn.validate_config(rn.load_config(bad))
    bad_s = write_cfg(
        tmp_path, "[run]\nscenario = apriori\n[apriori]\ns = 0.2\n", "bads.cfg"
    )
    with pytest.raises(rn.ConfigError):
        rn.validate_config(rn.load_config(bad_s))
    with pytest.raises(rn.ConfigError):
        rn.load_config(str(tmp_path / "missing.cfg"))


@pytest.mark.parametrize("text, field", [
    ("[run]\nscenario = trilinear\n[trilinear]\nequations = mbo nls\n",
     "'nls'"),
    ("[run]\nscenario = trilinear\n[trilinear]\n"
     "classes = high_low_low_to_hihg\n", "'high_low_low_to_hihg'"),
    ("[run]\nscenario = estimates\n[estimates]\nids = bilinear bilniear\n",
     "'bilniear'"),
    ("[run]\nscenario = apriori\n[apriori]\nequation = dnls\n",
     "'equation'"),
    ("[run]\nscenario = apriori\n[apriori]\ngrid_sise = 64\n", "'grid_sise'"),
    ("[run]\nscenario = envelope\n[envelop]\ncount = 10\n", "[envelop]"),
])
def test_validate_rejects_unknown_fields(tmp_path, capsys, text, field):
    # each of these configs was accepted by validate before the parser was
    # derived from the criterion signatures
    assert cli.main(["validate", write_cfg(tmp_path, text)]) == rn.EXIT_CONFIG
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg"))),
    ids=os.path.basename,
)
def test_shipped_configs_validate(path):
    name = rn.validate_config(rn.load_config(path))
    assert name == os.path.splitext(os.path.basename(path))[0]


def _fake_reports():
    pts = [es.RatioPoint(float(n), 1.0, 2.0 ** (-0.5 * n), 2.0 ** (-0.55 * n))
           for n in (3, 4, 5, 6)]
    r1 = es.make_report("alpha", pts, -0.5, 0.15)
    pts2 = [es.RatioPoint(float(n), 2.0, 1.7, 1.1) for n in (3, 4, 5)]
    r2 = es.make_report("beta", pts2, 0.0, 0.1)
    return [r1, r2]


def test_emit_and_roundtrip(tmp_path):
    reports = _fake_reports()
    csv_path = str(tmp_path / "out.csv")
    man_path = str(tmp_path / "out.json")
    rn.emit_report(reports, csv_path, man_path, config_echo={"a": {"b": "1"}},
                   seed=11)
    parsed = rn.read_reports_csv(csv_path)
    assert set(parsed) == {"alpha", "beta"}
    for rep in reports:
        got = parsed[rep.estimate_id]
        assert got["verdict"] == rep.verdict
        assert abs(got["slope"] - rep.slope) < 1e-15
        # reconstruct the verdict from the emitted points identically
        refit, _, resid = es.fit_exponent(
            [(p.sweep, np.log2(p.max_ratio)) for p in got["points"]]
        )
        assert abs(refit - rep.slope) < 1e-12
        assert (abs(refit - rep.predicted_slope) <= rep.slope_tol
                and resid <= rep.residual_cap) == rep.verdict
    manifest = json.loads(open(man_path).read())
    assert manifest["seed"] == 11
    assert manifest["config"] == {"a": {"b": "1"}}


def test_emit_empty_reports(tmp_path):
    csv_path = str(tmp_path / "empty.csv")
    rn.emit_report([], csv_path)
    lines = open(csv_path).read().strip().split("\n")
    assert lines == [rn.CSV_HEADER]


def test_emit_deterministic_bytes(tmp_path):
    reports = _fake_reports()
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    rn.emit_report(reports, p1)
    rn.emit_report(reports, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_scenario_envelope_runs(tmp_path):
    cfgp = write_cfg(
        tmp_path,
        "[run]\nscenario = envelope\nseed = 5\n"
        f"output_dir = {tmp_path}/out\n[envelope]\ncount = 10\n",
    )
    cfg = rn.load_config(cfgp)
    status, result = rn.run_scenario(cfg)
    assert status == rn.EXIT_OK
    assert result.passed
    assert os.path.exists(str(tmp_path / "out" / "envelope.csv"))
    man = json.loads(open(str(tmp_path / "out" / "envelope.json")).read())
    assert man["seed"] == 5
    assert man["versions"] == {"numpy": np.__version__,
                               "python": platform.python_version(),
                               "toruslab": toruslab.__version__}
    assert set(man["measurements"]) == {"domination", "log_lipschitz",
                                        "envelope_sum"}
    assert [c["name"] for c in man["checks"]] == [n for n, _, _ in result.checks]
    for rec, (name, value, bound) in zip(man["checks"], result.checks):
        assert rec == {"name": name, "value": value, "bound": bound,
                       "passed": True}


def test_scenario_rerun_byte_identical(tmp_path):
    text = (
        "[run]\nscenario = symmetrization\nseed = 9\n"
        f"output_dir = {tmp_path}/o1\n[symmetrization]\nfields = 6\n"
        "grid_size = 32\n"
    )
    cfg1 = rn.load_config(write_cfg(tmp_path, text, "c1.cfg"))
    rn.run_scenario(cfg1)
    text2 = text.replace("o1", "o2")
    cfg2 = rn.load_config(write_cfg(tmp_path, text2, "c2.cfg"))
    rn.run_scenario(cfg2)
    a = open(str(tmp_path / "o1" / "symmetrization.csv"), "rb").read()
    b = open(str(tmp_path / "o2" / "symmetrization.csv"), "rb").read()
    assert a == b


def run_cli(args, cwd):
    # Point the child at the toruslab this module imported: a relative
    # PYTHONPATH entry (such as ``src``) would resolve against ``cwd``.
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(rn.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        pkg_root + os.pathsep + inherited if inherited else pkg_root
    )
    return subprocess.run(
        [sys.executable, "-m", "toruslab.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def test_cli_list_and_validate(tmp_path):
    out = run_cli(["list-scenarios"], str(tmp_path))
    assert out.returncode == 0, out.stderr
    names = out.stdout.split()
    assert "apriori" in names and "trilinear" in names
    cfgp = write_cfg(tmp_path, "[run]\nscenario = envelope\n")
    out = run_cli(["validate", cfgp], str(tmp_path))
    assert out.returncode == 0, out.stderr
    badp = write_cfg(tmp_path, "[run]\nscenario = nope\n", "bad.cfg")
    out = run_cli(["validate", badp], str(tmp_path))
    assert out.returncode == rn.EXIT_CONFIG, out.stderr
    out = run_cli(["run", badp], str(tmp_path))
    assert out.returncode == rn.EXIT_CONFIG, out.stderr


def test_cli_run_scenario(tmp_path):
    cfgp = write_cfg(
        tmp_path,
        "[run]\nscenario = envelope\nseed = 2\n"
        f"output_dir = {tmp_path}/cli_out\n[envelope]\ncount = 5\n",
    )
    out = run_cli(["run", cfgp], str(tmp_path))
    assert out.returncode == 0, out.stderr
    assert "PASS" in out.stdout


def test_trajectory_and_energy_series_exports(tmp_path):
    import numpy as np

    from toruslab import energy as en
    from toruslab import evolution as ev
    from toruslab import spectral as sp

    rng = np.random.default_rng(3)
    g = sp.TorusGeometry(1.0, 32)
    u0 = sp.random_field(g, rng, band=8, real=True, decay=1.5) * 0.3
    prob = ev.FlowProblem(ev.BENJAMIN_ONO, +1, u0)
    traj = ev.evolve(prob, 0.1, n_snapshots=11)
    p1 = rn.write_trajectory_csv(traj, 0.3, str(tmp_path / "traj.csv"))
    lines = open(p1).read().strip().split("\n")
    assert lines[0] == "t,l2_norm,energy,sobolev_norm"
    assert len(lines) == 12
    first = [float(x) for x in lines[1].split(",")]
    assert abs(first[1] - u0.l2_norm()) < 1e-12
    sym = en.DyadicSymbol.from_exponent(0.3)
    rep = en.cancellation_check(traj, sym, band=ev.dealias_band(g))
    p2 = rn.write_energy_series_csv(rep, str(tmp_path / "series.csv"))
    lines = open(p2).read().strip().split("\n")
    assert lines[0] == "t,e0,e1,r4,r6,de0_dt,dcorrected_dt"
    assert len(lines) == 12


def test_conservation_drifts_match_five_snapshot_recipe():
    """Criterion 2 reads its drifts at snapshots 2, 4, 6, 8 of the one
    nine-snapshot integration that also feeds trajectory.csv; at seed 7 and
    M = 256 that is the step of a five-snapshot run (3612 = 2 x 1806 steps
    per quarter), so the drifts equal those read at its snapshots 1..4."""
    from toruslab import evolution as ev

    prob = rn._conservation_problem(7, 256, 0.3, 0.05)
    five = ev.evolve(prob, 1.0, n_snapshots=5)
    dt0 = ev.default_dt(prob)
    assert round(0.25 / dt0) == 2 * round(0.125 / dt0) == 3612
    m0 = ev.conserved_mass(five.field(0))
    e0 = ev.conserved_energy(five.field(0), prob.sigma)
    expected = (
        max(abs(ev.conserved_mass(five.field(i)) - m0) / m0
            for i in range(1, 5)),
        max(abs(ev.conserved_energy(five.field(i), prob.sigma) - e0) / abs(e0)
            for i in range(1, 5)),
    )
    got = rn.conservation(seed=7, grid_size=256).measurements
    assert (got["mass_drift"], got["energy_drift"]) == expected
