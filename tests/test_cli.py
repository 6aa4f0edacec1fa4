"""Batch front end: config validation, artifacts, determinism, exit codes."""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings, strategies as st

from relaxtoc import cli, errors, pmp


def _toy_config(**extra):
    cfg = copy.deepcopy(cli.list_examples()["toy-integrator"]["default_config"])
    cfg.update(extra)
    return cfg


def test_catalog_is_stable():
    cat = cli.list_examples()
    assert set(cat) == {"toy-integrator", "quenching-ex1", "blowup-ex2"}
    for entry in cat.values():
        assert entry["description"]
        assert entry["default_config"]["task"] in cli.TASKS
        assert entry["default_config"]["schema_version"] == cli.SCHEMA_VERSION


def test_toy_solve_artifacts(tmp_path):
    assert cli.run(_toy_config(), out_dir=tmp_path) == 0
    payload = json.loads((tmp_path / "solve_result.json").read_text())
    assert payload["schema_version"] == cli.SCHEMA_VERSION
    assert payload["task"] == "solve" and payload["seed"] == 0
    assert payload["w"] == pytest.approx(1.0, abs=1e-3)
    assert payload["hit_status"] == "hit-target"
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t,")


def test_same_config_same_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.run(_toy_config(), out_dir=a) == 0
    assert cli.run(_toy_config(), out_dir=b) == 0
    for name in ("solve_result.json", "trajectory.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_seed_override_lands_in_payload(tmp_path):
    assert cli.run(_toy_config(), out_dir=tmp_path, seed=3) == 0
    payload = json.loads((tmp_path / "solve_result.json").read_text())
    assert payload["seed"] == 3


def test_config_errors_name_the_field(tmp_path):
    with pytest.raises(errors.ConfigError) as exc:
        cli.run({"schema_version": 1}, out_dir=tmp_path)
    assert exc.value.path == "task"

    with pytest.raises(errors.ConfigError) as exc:
        cli.run(_toy_config(task="dance"), out_dir=tmp_path)
    assert exc.value.path == "task"

    with pytest.raises(errors.ConfigError) as exc:
        cli.run(_toy_config(schema_version=99), out_dir=tmp_path)
    assert exc.value.path == "schema_version"

    with pytest.raises(errors.ConfigError) as exc:
        cli.run(_toy_config(y0=[0.0, 0.0]), out_dir=tmp_path)
    assert exc.value.path == "y0"

    with pytest.raises(errors.ConfigError) as exc:
        cli.run(_toy_config(alpha="lots"), out_dir=tmp_path)
    assert exc.value.path == "alpha"

    cfg = {
        "schema_version": 1,
        "task": "monotonicity-sweep",
        "system": {"example": "quenching-ex1"},
        "sweep": {"case": "i", "h_sign": 1.0},
    }
    with pytest.raises(errors.ConfigError) as exc:
        cli.run(cfg, out_dir=tmp_path)
    assert exc.value.path == "sweep.h_sign"


def test_bad_horizon_and_target_dimension_name_the_field(tmp_path, capsys):
    # each used to escape as a traceback from deep inside the solver
    with pytest.raises(errors.ConfigError) as exc:
        cli.run(_toy_config(solver={"w_max": 0}), out_dir=tmp_path)
    assert exc.value.path == "solver.w_max"

    quench = copy.deepcopy(cli.list_examples()["quenching-ex1"]["default_config"])
    quench["target"] = {"type": "hyperplane", "axis": 5, "level": 1.0}
    with pytest.raises(errors.ConfigError) as exc:
        cli.run(quench, out_dir=tmp_path)
    assert exc.value.path == "target.axis"

    with pytest.raises(errors.ConfigError) as exc:
        cli.run(_toy_config(target={"type": "point", "location": [1.0, 1.0]}), out_dir=tmp_path)
    assert exc.value.path == "target.location"

    with pytest.raises(errors.ConfigError) as exc:
        cli.run(_toy_config(target={"type": "halfspace", "normal": [0.0]}), out_dir=tmp_path)
    assert exc.value.path == "target.normal"

    sweep = copy.deepcopy(cli.list_examples()["blowup-ex2"]["default_config"])
    sweep["sweep"]["t_max"] = 0.0
    with pytest.raises(errors.ConfigError) as exc:
        cli.run(sweep, out_dir=tmp_path)
    assert exc.value.path == "sweep.t_max"

    mono = {
        "schema_version": 1,
        "task": "monotonicity-sweep",
        "system": {"example": "quenching-ex1"},
        "sweep": {"case": "i", "horizon": 0.0},
    }
    mono_y0 = copy.deepcopy(mono)
    mono_y0["sweep"] = {"case": "i", "y0": [0.0, 0.5, 1.0]}
    # the blowup chart needs p > 1 and gamma >= p - 1
    steep = copy.deepcopy(cli.list_examples()["blowup-ex2"]["default_config"])
    steep["system"].update(p=3.0, gamma=1.0)
    linear = copy.deepcopy(cli.list_examples()["blowup-ex2"]["default_config"])
    linear["system"].update(p=1.0)
    inside = copy.deepcopy(cli.list_examples()["blowup-ex2"]["default_config"])
    inside["system"].update(r1=0.0)
    # B must be 2 x 2 for the quench, one such matrix per piecewise start
    narrow_b = copy.deepcopy(quench)
    narrow_b["target"] = {"type": "hyperplane", "axis": 0, "level": 1.0}
    narrow_b["system"]["B"] = [[1.0], [0.0]]
    flat_b = copy.deepcopy(narrow_b)
    flat_b["system"]["B"] = {"starts": [0.0], "values": [[1, 0]]}
    # case i starts below the singular line y1 = 1
    mono_side = copy.deepcopy(mono)
    mono_side["sweep"] = {"case": "i", "y0": [2.0, 0.5]}
    # a command-line tolerance override is checked as the field it replaces
    cases = [
        ("w_max", _toy_config(solver={"w_max": 0}), [], "solver.w_max"),
        ("axis", quench, [], "target.axis"),
        ("ratio", _toy_config(task="ladder", ladder={"alpha0": 0.4, "ratio": 1.0}), [], "ladder.ratio"),
        ("horizon", mono, [], "sweep.horizon"),
        ("y0", mono_y0, [], "sweep.y0"),
        ("rtol", _toy_config(integrator={"rtol": 0.0}), [], "integrator.rtol"),
        ("rtol-one", _toy_config(integrator={"rtol": 1.0}), [], "integrator.rtol"),
        ("atol", _toy_config(integrator={"atol": 0.0}), [], "integrator.atol"),
        ("rtol-flag", _toy_config(), ["--rtol", "0"], "integrator.rtol"),
        ("atol-flag", _toy_config(), ["--atol", "0"], "integrator.atol"),
        ("gamma", steep, [], "system.gamma"),
        ("p", linear, [], "system.p"),
        ("r1", inside, [], "system.r1"),
        ("B-shape", narrow_b, [], "system.B"),
        ("B-pieces", flat_b, [], "system.B"),
        ("y0-side", mono_side, [], "sweep.y0"),
        # removed solver fields fail loudly instead of being ignored
        ("polish", _toy_config(solver={"polish": False}), [], "solver.polish"),
        ("max_iters", _toy_config(solver={"max_iters": 5}), [], "solver.max_iters"),
        ("penalty_rounds", _toy_config(solver={"penalty_rounds": 2}), [], "solver.penalty_rounds"),
    ]
    for name, cfg, flags, field in cases:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}:") and "Traceback" not in err


def test_seed_override_is_checked_as_the_field(tmp_path, capsys):
    # --seed -1 fails the check a config seed of -1 fails, not NumPy's
    path = tmp_path / "toy.json"
    for cfg, flags in ((_toy_config(seed=-1), []), (_toy_config(), ["--seed", "-1"])):
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out"), *flags]) == 2
        assert capsys.readouterr().err == "config error: seed: must be >= 0, got -1\n"


def test_non_finite_numbers_are_config_errors(tmp_path, capsys):
    # json parses NaN and Infinity, and every bound comparison is false for NaN
    path = tmp_path / "toy.json"
    for value in (float("nan"), float("inf"), float("-inf")):
        path.write_text(json.dumps(_toy_config(solver={"w_max": value})))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: solver.w_max: must be finite, got {value}\n"


# one small config per task family; the fuzz below changes one field at a time
_FUZZ_BASES = {
    "toy-solve": {
        "schema_version": 1,
        "task": "solve",
        "system": {"example": "toy-integrator", "n": 1},
        "alpha": 0.0,
        "solver": {"n_cells": 2, "n_atoms": 1},
    },
    "monotonicity": {
        "schema_version": 1,
        "task": "monotonicity-sweep",
        "system": {"example": "quenching-ex1"},
        "sweep": {"case": "i", "samples": 1},
    },
    "envelope": {
        "schema_version": 1,
        "task": "barrier-sweep",
        "system": {"example": "blowup-ex2", "n": 1, "p": 2.0, "gamma": 1.0},
        "sweep": {"kind": "envelope", "samples": 1, "t_max": 3.0},
    },
    "quench-verify": {
        "schema_version": 1,
        "task": "verify",
        "system": {"example": "quenching-ex1"},
        "alpha": 0.25,
        "solver": {"n_cells": 2},
    },
}
_FUZZ_FIELDS = [
    ("seed",), ("alpha",), ("y0",), ("target",), ("system",), ("solver",), ("sweep",),
    ("system", "n"), ("system", "rho0"), ("system", "p"), ("system", "gamma"),
    ("system", "r1"), ("system", "B"), ("target", "level"),
    ("solver", "n_cells"), ("solver", "n_atoms"), ("solver", "multi_starts"), ("solver", "w_max"),
    ("integrator", "rtol"), ("integrator", "atol"), ("integrator", "hit_tol"),
    ("sweep", "samples"), ("sweep", "horizon"), ("sweep", "y0"), ("sweep", "t_max"),
    ("sweep", "cells"), ("sweep", "g_amp"), ("sweep", "h_amp"), ("sweep", "h_sign"),
    ("verify", "max_hamiltonian_residual"),
]
# negative, zero, huge, not finite, wrong type, list of the wrong length,
# matrix of the wrong shape; huge is a float, so integer fields see it as the
# wrong type
_FUZZ_VALUES = [
    -1.0, 0, 1e300, float("nan"), float("inf"), float("-inf"), "x", [1.0, 2.0, 3.0], [[1.0], [0.0]],
]


@settings(max_examples=50, deadline=None)
@given(
    base=st.sampled_from(sorted(_FUZZ_BASES)),
    field=st.sampled_from(_FUZZ_FIELDS),
    value=st.sampled_from(_FUZZ_VALUES),
)
@example(base="quench-verify", field=("system", "B"), value=[[1.0], [0.0]])
@example(base="quench-verify", field=("system", "B"), value={"starts": [0.0], "values": [[1, 0]]})
@example(base="monotonicity", field=("sweep", "y0"), value=[2.0, 0.5])
# a field too large for a first step, and an input bound past the barrier table
@example(base="monotonicity", field=("sweep", "g_amp"), value=1e300)
@example(base="envelope", field=("system", "rho0"), value=1e300)
# an overflowing RK stage (the chart never engages), and a tolerance past 1
@example(base="envelope", field=("system", "r1"), value=1e300)
@example(base="envelope", field=("integrator", "rtol"), value=1e300)
def test_exit_contract_holds_under_one_bad_field(base, field, value):
    cfg = copy.deepcopy(_FUZZ_BASES[base])
    node = cfg
    for key in field[:-1]:
        if not isinstance(node.get(key), dict):
            node[key] = {}
        node = node[key]
    node[field[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            # pytest captures warnings before they reach stderr: record them
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(["run", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == 2:
        lines = err.getvalue().splitlines()
        assert any(line.startswith(("config error:", "error [")) for line in lines)


def test_ladder_csv_agrees_with_json(tmp_path):
    cfg = _toy_config(task="ladder")
    cfg["ladder"] = {"alpha0": 0.4, "ratio": 0.5, "k_max": 3}
    assert cli.run(cfg, out_dir=tmp_path) == 0
    trace = json.loads((tmp_path / "ladder_trace.json").read_text())
    rows = (tmp_path / "ladder.csv").read_text().splitlines()
    assert rows[0] == "k,alpha,w"
    assert len(rows) == 1 + len(trace["ws"])
    for k, line in enumerate(rows[1:]):
        _, alpha_s, w_s = line.split(",")
        assert float(alpha_s) == pytest.approx(trace["alphas"][k], rel=1e-15)
        assert float(w_s) == pytest.approx(trace["ws"][k], rel=1e-15)
    assert trace["w_star"] >= trace["ws"][-1] - 1e-12


def test_envelope_sweep_runs_clean(tmp_path):
    cfg = copy.deepcopy(cli.list_examples()["blowup-ex2"]["default_config"])
    cfg["sweep"]["samples"] = 5
    assert cli.run(cfg, out_dir=tmp_path) == 0
    payload = json.loads((tmp_path / "barrier_sweep.json").read_text())
    assert payload["ok"] is True and payload["failures"] == 0
    assert len(payload["entries"]) == 5
    assert (tmp_path / "barrier_table.csv").exists()


def test_monotonicity_sweep_runs_clean(tmp_path):
    cfg = {
        "schema_version": 1,
        "task": "monotonicity-sweep",
        "seed": 0,
        "system": {"example": "quenching-ex1"},
        "sweep": {"case": "i", "samples": 4},
    }
    assert cli.run(cfg, out_dir=tmp_path) == 0
    payload = json.loads((tmp_path / "monotonicity_sweep.json").read_text())
    assert payload["ok"] is True and len(payload["entries"]) == 4


def test_verify_bound_violation_is_exit_one(tmp_path):
    cfg = copy.deepcopy(cli.list_examples()["quenching-ex1"]["default_config"])
    cfg["solver"] = {"n_cells": 6}
    # an unreachable residual bound turns the report into a failure without
    # making the run itself erroneous
    cfg["verify"] = {"max_hamiltonian_residual": 0.0}
    assert cli.run(cfg, out_dir=tmp_path) == 1
    payload = json.loads((tmp_path / "pmp_report.json").read_text())
    assert payload["hamiltonian_residual"] > 0.0
    assert payload["quenching_conclusions"]["ok"] is True


def test_piecewise_b_verify_certifies_the_per_cell_hit_time(tmp_path):
    # B(t) jumps at 0.3, inside the last control cell; each constant piece
    # of the certified control, integrated on its own, must reach the
    # target y1 = 1 - alpha within the hit tolerance of the certified w
    B = [np.eye(2), np.diag([0.5, 1.0])]
    cfg = copy.deepcopy(cli.list_examples()["quenching-ex1"]["default_config"])
    cfg["system"]["B"] = {"starts": [0.0, 0.3], "values": [b.tolist() for b in B]}
    cfg["solver"] = {"n_cells": 4}
    assert cli.run(cfg, out_dir=tmp_path) == 0
    res = json.loads((tmp_path / "solve_result.json").read_text())
    w, grid, u = res["w"], np.array(res["schedule"]["grid"]), np.array(res["schedule"]["values"])
    edges = np.unique(np.concatenate([grid[grid < w], [0.3, w]]))
    mids = 0.5 * (edges[:-1] + edges[1:])

    def field(j, y):
        cell = min(int(np.searchsorted(grid, mids[j])) - 1, len(u) - 1)
        return oracles.quench_field(0.0, y, B[int(mids[j] > 0.3)] @ u[cell])

    y = oracles.per_cell_dop853(field, edges, [0.0, 0.5])
    rate = field(len(mids) - 1, y)[0]
    t_ref = w + (1.0 - cfg["alpha"] - y[0]) / rate  # one Newton step to the crossing
    assert abs(w - t_ref) <= 1e-8 / rate  # the default hit_tol, in time


def test_main_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "toy.json"
    cfg_path.write_text(json.dumps(_toy_config()))
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0

    assert cli.main(["run", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(_toy_config(task="dance")))
    assert cli.main(["run", str(wrong)]) == 2
    assert "config error: task" in capsys.readouterr().err

    # alpha leaves the start within the hit tolerance of the inflated target
    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps(_toy_config(alpha=0.999999999)))
    assert cli.main(["run", str(edge), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [AlphaOutOfRange]") and "Traceback" not in err


def test_crash_is_exit_two(tmp_path, monkeypatch, capsys):
    # an unexpected exception is a runtime error, not a failed check: exit 2
    # and one line naming it, with no traceback
    cfg_path = tmp_path / "toy.json"
    cfg_path.write_text(json.dumps(_toy_config()))

    def crashing_run(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run", crashing_run)
    assert cli.main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "error [RuntimeError]: boom\n"


def test_verify_conclusions_use_the_configured_tolerances(tmp_path, monkeypatch):
    # the conclusions' pre-terminal sweep runs at the run's final tolerances,
    # like verify, not at the integrator defaults
    seen = []
    adjoint = pmp.integrate_adjoint

    def recording_adjoint(*args, **kwargs):
        seen.append(kwargs.get("opts"))
        return adjoint(*args, **kwargs)

    monkeypatch.setattr(pmp, "integrate_adjoint", recording_adjoint)
    cfg = copy.deepcopy(cli.list_examples()["quenching-ex1"]["default_config"])
    cfg["solver"] = {"n_cells": 4}
    assert cli.run(cfg, out_dir=tmp_path, tol_overrides={"rtol": 1e-11, "atol": 1e-13}) == 0
    payload = json.loads((tmp_path / "pmp_report.json").read_text())
    assert payload["quenching_conclusions"]["ok"] is True
    assert seen and None not in seen
    # the conclusions run last
    assert (seen[-1].rtol, seen[-1].atol) == (1e-11, 1e-13)


def test_main_lists_catalog(capsys):
    assert cli.main(["list-examples"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == set(cli.list_examples())
