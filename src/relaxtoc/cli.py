"""Batch front-end: validated JSON run configurations in, artifacts out.

A run configuration names a built-in example system, a target, a task
(solve, ladder, verify, barrier-sweep, monotonicity-sweep) and its
parameters.  Artifacts are JSON with sorted keys and full-precision floats
plus CSV tables at 17 significant digits; nothing carries a timestamp, so a
fixed seed reproduces every artifact byte for byte.  Randomized sweeps draw
from generators keyed by (seed, sample index) only.

Exit status: 0 on success, 1 when an assertion-class check fails (a sweep
verdict comes back not ok, or a configured residual bound is exceeded),
2 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import errors
from .barrier import (
    build_barrier_table,
    blowup_lower_bound_check,
    envelope_bracket_check,
    mtilde,
    quench_monotonicity_check,
    xi_upper_time,
)
from .dynamics import (
    PiecewiseConstant,
    input_bound,
    make_blowup_system,
    make_integrator_system,
    make_quenching_system,
)
from .integrate import IntegratorOptions, integrate_forward
from .pmp import continue_to_singular_line, quenching_conclusions, verify
from .relaxed import ClassicalSchedule
from .solve import SolveOptions, alpha_ladder, solve_alpha
from .target import Ball, HalfSpace, Hyperplane, Point

SCHEMA_VERSION = 1
TASKS = ("solve", "ladder", "verify", "barrier-sweep", "monotonicity-sweep")
SOLVER_FIELDS = ("n_cells", "n_atoms", "multi_starts", "w_max")
_MISSING = object()


# ---------------------------------------------------------------------------
# config validation (by hand, so every complaint carries its field path)


def _join(path, key):
    return key if not path else f"{path}.{key}"


def _get(cfg, key, path, default=_MISSING):
    if not isinstance(cfg, dict):
        raise errors.ConfigError(path or "config", "expected an object")
    if key not in cfg:
        if default is _MISSING:
            raise errors.ConfigError(_join(path, key), "required field missing")
        return default
    return cfg[key]


def _num(cfg, key, path, default=_MISSING, lo=None, gt=None, lt=None):
    val = _get(cfg, key, path, default)
    if val is default and default is not _MISSING:
        return val
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise errors.ConfigError(_join(path, key), f"expected a number, got {val!r}")
    val = float(val)
    if not np.isfinite(val):  # every bound comparison below is false for NaN
        raise errors.ConfigError(_join(path, key), f"must be finite, got {val}")
    if lo is not None and val < lo:
        raise errors.ConfigError(_join(path, key), f"must be >= {lo}, got {val}")
    if gt is not None and val <= gt:
        raise errors.ConfigError(_join(path, key), f"must be > {gt}, got {val}")
    if lt is not None and val >= lt:
        raise errors.ConfigError(_join(path, key), f"must be < {lt}, got {val}")
    return val


def _int(cfg, key, path, default=_MISSING, lo=None):
    val = _get(cfg, key, path, default)
    if val is default and default is not _MISSING:
        return val
    if isinstance(val, bool) or not isinstance(val, int):
        raise errors.ConfigError(_join(path, key), f"expected an integer, got {val!r}")
    if lo is not None and val < lo:
        raise errors.ConfigError(_join(path, key), f"must be >= {lo}, got {val}")
    return int(val)


def _str(cfg, key, path, default=_MISSING, choices=None):
    val = _get(cfg, key, path, default)
    if val is default and default is not _MISSING:
        return val
    if not isinstance(val, str):
        raise errors.ConfigError(_join(path, key), f"expected a string, got {val!r}")
    if choices is not None and val not in choices:
        raise errors.ConfigError(_join(path, key), f"expected one of {sorted(choices)}, got {val!r}")
    return val


def _vec(cfg, key, path, default=_MISSING, size=None):
    val = _get(cfg, key, path, default)
    if val is default and default is not _MISSING:
        return val
    if not isinstance(val, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in val
    ):
        raise errors.ConfigError(_join(path, key), "expected a list of numbers")
    if size is not None and len(val) != size:
        raise errors.ConfigError(_join(path, key), f"expected {size} components, got {len(val)}")
    return np.asarray(val, dtype=float)


def _array(values, path, shape):
    """values as a finite float array of the given shape, where a None entry
    admits any positive size."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if (
        arr.dtype.kind not in "iuf"
        or arr.ndim != len(shape)
        or any(got != want if want else got < 1 for got, want in zip(arr.shape, shape))
        or not np.all(np.isfinite(arr))
    ):
        dims = " x ".join("m" if k is None else str(k) for k in shape)
        raise errors.ConfigError(path, f"expected a {dims} array of finite numbers")
    return arr.astype(float)


def _input_signal(desc, path, rows, cols=None):
    """B as a constant rows x cols matrix [[...]] or {"starts": [...],
    "values": [[[...]]]} with one such matrix per start."""
    if desc is None:
        return None
    if isinstance(desc, list):
        return _array(desc, path, (rows, cols))
    if isinstance(desc, dict):
        starts = _vec(desc, "starts", path)
        if starts.size == 0:
            raise errors.ConfigError(_join(path, "starts"), "needs at least one start")
        values = _array(_get(desc, "values", path), path, (starts.size, rows, cols))
        try:
            return PiecewiseConstant(starts, values)
        except ValueError as exc:
            raise errors.ConfigError(path, str(exc))
    raise errors.ConfigError(path, "expected a matrix or a starts/values object")


def build_target(desc, dim, path="target"):
    """Target set in the dim-dimensional state (or chart) coordinates."""
    kind = _str(desc, "type", path, choices=("hyperplane", "halfspace", "ball", "point"))
    if kind == "hyperplane":
        axis = _int(desc, "axis", path, 0, lo=0)
        if axis >= dim:
            raise errors.ConfigError(_join(path, "axis"), f"must be < {dim} (the state dimension), got {axis}")
        return Hyperplane(axis=axis, level=_num(desc, "level", path, 0.0))
    if kind == "halfspace":
        normal = _vec(desc, "normal", path, size=dim)
        if not np.any(normal):
            raise errors.ConfigError(_join(path, "normal"), "must be nonzero")
        return HalfSpace(normal=normal, offset=_num(desc, "offset", path, 0.0))
    if kind == "ball":
        return Ball(center=_vec(desc, "center", path, size=dim), radius=_num(desc, "radius", path, lo=0.0))
    return Point(location=_vec(desc, "location", path, size=dim))


def build_system(desc, path="system"):
    """(system, default y0, default target descriptor) for a catalog example."""
    name = _str(desc, "example", path, choices=set(EXAMPLES))
    if name == "toy-integrator":
        n = _int(desc, "n", path, 1, lo=1)
        sys_ = make_integrator_system(n)
        return sys_, np.zeros(n), {"type": "point", "location": [1.0] * n}
    if name == "quenching-ex1":
        B = _input_signal(_get(desc, "B", path, None), f"{path}.B", 2, 2)
        sys_ = make_quenching_system(B=B, rho0=_num(desc, "rho0", path, 1.0, lo=0.0))
        return sys_, np.array([0.0, 0.5]), {"type": "hyperplane", "axis": 0, "level": 1.0}
    n = _int(desc, "n", path, 1, lo=1)
    B = _input_signal(_get(desc, "B", path, None), f"{path}.B", n)
    p = _num(desc, "p", path, 2.0, gt=1.0)
    sys_ = make_blowup_system(
        n=n,
        p=p,
        B=B,
        rho0=_num(desc, "rho0", path, 1.0, lo=0.0),
        gamma=_num(desc, "gamma", path, None, lo=p - 1.0),
        r1=_num(desc, "r1", path, None, gt=0.0),
    )
    return sys_, np.full(n, 3.0 / np.sqrt(n)), {"type": "point", "location": [0.0] * n}


def build_solve_options(cfg, path, seed, integrator):
    if not isinstance(cfg, dict):
        raise errors.ConfigError(path, "expected an object")
    unknown = sorted(set(cfg) - set(SOLVER_FIELDS))
    if unknown:
        raise errors.ConfigError(
            _join(path, unknown[0]), f"unknown field, expected one of {list(SOLVER_FIELDS)}"
        )
    return SolveOptions(
        n_cells=_int(cfg, "n_cells", path, 12, lo=1),
        # n_atoms and multi_starts: validated, without effect (SolveOptions)
        n_atoms=_int(cfg, "n_atoms", path, 3, lo=1),
        multi_starts=_int(cfg, "multi_starts", path, 8, lo=1),
        w_max=_num(cfg, "w_max", path, 50.0, gt=0.0),
        seed=seed,
        final=IntegratorOptions(**integrator),
    )


def _integrator_overrides(cfg, path, overrides):
    """Tolerances from the config with the command-line overrides laid over
    them; an override passes the same checks as the field it replaces."""
    if not isinstance(cfg, dict):
        raise errors.ConfigError(path, "expected an object")
    cfg = {**cfg, **{key: val for key, val in (overrides or {}).items() if val is not None}}
    return {
        "rtol": _num(cfg, "rtol", path, 1e-9, gt=0.0, lt=1.0),
        "atol": _num(cfg, "atol", path, 1e-11, gt=0.0),
        "hit_tol": _num(cfg, "hit_tol", path, 1e-8, lo=0.0),
    }


# ---------------------------------------------------------------------------
# artifacts


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _result_payload(config, seed, res):
    payload = res.to_json_dict()
    payload["schema_version"] = SCHEMA_VERSION
    payload["seed"] = seed
    payload["task"] = config["task"]
    payload["hit_status"] = res.trajectory.hit.status
    return payload


# ---------------------------------------------------------------------------
# tasks


def _task_solve(config, sys_, tgt, y0, opts, outdir, seed):
    alpha = _num(config, "alpha", "", 0.0, lo=0.0)
    res = solve_alpha(sys_, tgt, y0, alpha, opts=opts)
    _write_json(outdir / "solve_result.json", _result_payload(config, seed, res))
    res.trajectory.write_csv(outdir / "trajectory.csv")
    return 0


def _task_ladder(config, sys_, tgt, y0, opts, outdir, seed):
    lad_cfg = _get(config, "ladder", "", {})
    alpha0 = _num(lad_cfg, "alpha0", "ladder", None)
    trace = alpha_ladder(
        sys_,
        tgt,
        y0,
        alpha0=alpha0,
        ratio=_num(lad_cfg, "ratio", "ladder", 0.5, gt=0.0, lt=1.0),
        k_max=_int(lad_cfg, "k_max", "ladder", 8, lo=1),
        opts=opts,
    )
    payload = trace.to_json_dict()
    payload["schema_version"] = SCHEMA_VERSION
    payload["seed"] = seed
    _write_json(outdir / "ladder_trace.json", payload)
    trace.write_csv(outdir / "ladder.csv")
    trace.results[-1].trajectory.write_csv(outdir / "trajectory.csv")
    return 0


def _task_verify(config, sys_, tgt, y0, opts, outdir, seed):
    alpha = _num(config, "alpha", "", 0.0, lo=0.0)
    vcfg = _get(config, "verify", "", {})
    bound = _num(vcfg, "max_hamiltonian_residual", "verify", None, lo=0.0)
    res = solve_alpha(sys_, tgt, y0, alpha, opts=opts)
    report = verify(sys_, tgt.with_alpha(alpha), res, opts=opts.final)
    payload = report.to_json_dict()
    payload["schema_version"] = SCHEMA_VERSION
    payload["seed"] = seed
    payload["w"] = res.w
    failed = bound is not None and report.hamiltonian_residual > bound
    if sys_.kind == "quenching":
        # the singular-approach conclusions (sign of the regular coordinate,
        # covector decay) only make sense at the true target
        cont = continue_to_singular_line(sys_, tgt, res.schedule, y0, res.w, opts=opts.final)
        if cont.hit.status == "hit-target":
            conc = quenching_conclusions(
                (cont.hit.time, cont, res.schedule), sys=sys_, tgt=tgt.with_alpha(0.0), opts=opts.final
            )
            payload["quenching_conclusions"] = conc.to_json_dict()
            failed = failed or not conc.ok
        else:
            payload["quenching_conclusions"] = {"skipped": True, "status": cont.hit.status}
    _write_json(outdir / "solve_result.json", _result_payload(config, seed, res))
    _write_json(outdir / "pmp_report.json", payload)
    res.trajectory.write_csv(outdir / "trajectory.csv", adjoint=report.adjoint)
    print(report.summary())
    return 1 if failed else 0


def _sweep(task, label, head, samples, seed, outdir, draw):
    """Run draw(rng) -> (entry fields, verdict) on samples generators keyed by
    (seed, k), write the entries and the failure count under the payload
    fields head, print one line, and return the exit status."""
    entries = []
    failures = 0
    for k in range(samples):
        fields, verdict = draw(np.random.default_rng([seed, k]))
        entries.append({"sample": k, **fields, **verdict.to_json_dict()})
        failures += 0 if verdict.ok else 1
    payload = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        **head,
        "samples": samples,
        "failures": failures,
        "ok": failures == 0,
        "entries": entries,
    }
    _write_json(outdir / f"{task.replace('-', '_')}.json", payload)
    print(f"{task}[{label}]: {samples - failures}/{samples} ok")
    return 0 if failures == 0 else 1


def _task_barrier_sweep(config, sys_, tgt, y0, opts, outdir, seed):
    cfg = _get(config, "sweep", "", {})
    kind = _str(cfg, "kind", "sweep", "envelope", choices=("envelope", "lower-bound"))
    samples = _int(cfg, "samples", "sweep", 100, lo=1)
    if sys_.kind != "blowup":
        raise errors.ConfigError("system.example", "barrier-sweep needs a blowup example system")
    p = _num(_get(config, "system", "", {}), "p", "system", 2.0)
    M = input_bound(sys_.affine.input_matrix, sys_.control_set)
    table = build_barrier_table(p, M)
    table.write_csv(outdir / "barrier_table.csv")

    if kind == "envelope":
        t_span = _num(cfg, "t_max", "sweep", 5.0, gt=0.0)
        cells = _int(cfg, "cells", "sweep", 6, lo=1)

        def draw(rng):
            radius = table.r0 * (1.1 + 2.0 * rng.uniform())
            direction = rng.normal(size=sys_.dim_state)
            direction /= np.linalg.norm(direction)
            y_start = radius * direction
            grid = np.linspace(0.0, t_span, cells + 1)
            control = ClassicalSchedule(
                grid=grid,
                values=np.stack([sys_.control_set.boundary_sample(rng) for _ in range(cells)]),
            )
            traj = integrate_forward(sys_, control, y_start, t_max=t_span, opts=opts.final)
            return {"start_radius": radius, "status": traj.hit.status}, envelope_bracket_check(table, traj)

    else:
        alpha = _num(cfg, "alpha", "sweep", 0.5, lo=0.0)
        m_tilde = mtilde(table, alpha)

        def draw(rng):
            direction = rng.normal(size=sys_.dim_state)
            direction /= np.linalg.norm(direction)
            radius = m_tilde * (1.0 + 2.0 * rng.uniform())
            y_s = radius * direction
            # the bound presumes the damped solution exists on [0, T]; the fast
            # envelope guarantees existence strictly before xi_upper(|y_s|)
            T = xi_upper_time(table, radius) * (0.1 + 0.8 * rng.uniform())
            cells = 8
            h_sig = PiecewiseConstant(np.linspace(0.0, T, cells + 1)[:-1], rng.uniform(size=cells))
            return {"T": T}, blowup_lower_bound_check(table, alpha=alpha, s=0.0, T=T, h=h_sig, y_s=y_s)

    return _sweep("barrier-sweep", kind, {"kind": kind}, samples, seed, outdir, draw)


def _task_monotonicity_sweep(config, sys_, tgt, y0, opts, outdir, seed):
    cfg = _get(config, "sweep", "", {})
    case = _str(cfg, "case", "sweep", "i", choices=("i", "ii"))
    samples = _int(cfg, "samples", "sweep", 50, lo=1)
    horizon = _num(cfg, "horizon", "sweep", 0.3, gt=0.0)
    g_amp = _num(cfg, "g_amp", "sweep", 0.2, lo=0.0)
    h_amp = _num(cfg, "h_amp", "sweep", 0.2, lo=0.0)
    h_sign = _int(cfg, "h_sign", "sweep", -1 if case == "i" else 1)
    if case == "i" and h_sign > 0:
        raise errors.ConfigError("sweep.h_sign", "case i needs h <= 0 (start below the singular line)")
    if case == "ii" and h_sign < 0:
        raise errors.ConfigError("sweep.h_sign", "case ii needs h >= 0 (start above the singular line)")
    y_start = _vec(cfg, "y0", "sweep", None, size=2)
    if y_start is None:
        y_start = np.array([0.0, 0.5]) if case == "i" else np.array([2.0, 0.5])
    if case == "i" and not y_start[0] < 1.0:
        raise errors.ConfigError("sweep.y0", "case i needs y0[0] < 1 (start below the singular line)")
    if case == "ii" and not y_start[0] > 1.0:
        raise errors.ConfigError("sweep.y0", "case ii needs y0[0] > 1 (start above the singular line)")

    cells = 6
    starts = np.linspace(0.0, horizon, cells + 1)[:-1]

    def draw(rng):
        g_sig = PiecewiseConstant(starts, g_amp * rng.uniform(-1.0, 1.0, size=(cells, 2)))
        h_sig = PiecewiseConstant(starts, h_sign * h_amp * rng.uniform(0.0, 1.0, size=cells))
        return {}, quench_monotonicity_check(g=g_sig, h=h_sig, y0=y_start, T=horizon)

    return _sweep("monotonicity-sweep", f"case {case}", {"case": case}, samples, seed, outdir, draw)


_TASK_RUNNERS = {
    "solve": _task_solve,
    "ladder": _task_ladder,
    "verify": _task_verify,
    "barrier-sweep": _task_barrier_sweep,
    "monotonicity-sweep": _task_monotonicity_sweep,
}


def run(config: dict, out_dir=None, seed=None, tol_overrides=None) -> int:
    """Execute one validated run configuration; returns the exit status."""
    if not isinstance(config, dict):
        raise errors.ConfigError("config", "must be a JSON object")
    version = _int(config, "schema_version", "", SCHEMA_VERSION, lo=1)
    if version != SCHEMA_VERSION:
        raise errors.ConfigError("schema_version", f"expected {SCHEMA_VERSION}, got {version}")
    task = _str(config, "task", "", choices=TASKS)
    # a --seed override passes the same check as the field it replaces
    seed = _int(config if seed is None else {"seed": seed}, "seed", "", 0, lo=0)
    outdir = Path(out_dir if out_dir is not None else _str(config, "output_dir", "", "out"))
    outdir.mkdir(parents=True, exist_ok=True)

    sys_, default_y0, default_tgt = build_system(_get(config, "system", "", {"example": "toy-integrator"}))
    tgt = build_target(_get(config, "target", "", default_tgt), sys_.dim_state)
    y0 = _vec(config, "y0", "", None, size=sys_.dim_state)
    y0 = default_y0 if y0 is None else y0

    integrator = _integrator_overrides(_get(config, "integrator", "", {}), "integrator", tol_overrides)
    opts = build_solve_options(_get(config, "solver", "", {}), "solver", seed, integrator)
    return _TASK_RUNNERS[task](config, sys_, tgt, y0, opts, outdir, seed)


# ---------------------------------------------------------------------------
# catalog

EXAMPLES = {
    "toy-integrator": {
        "description": "y' = u on [-1, 1]^n, point target; exact optimum w = d(y0, Q) - alpha",
        "default_config": {
            "schema_version": SCHEMA_VERSION,
            "task": "solve",
            "seed": 0,
            "system": {"example": "toy-integrator", "n": 1},
            "alpha": 0.0,
            "solver": {"n_cells": 4},
        },
    },
    "quenching-ex1": {
        "description": "planar quenching field, singular on the line y1 = 1, ball-bounded control",
        "default_config": {
            "schema_version": SCHEMA_VERSION,
            "task": "verify",
            "seed": 0,
            "system": {"example": "quenching-ex1", "rho0": 1.0},
            "alpha": 0.25,
            "solver": {"n_cells": 8},
        },
    },
    "blowup-ex2": {
        "description": "superlinear blowup field read through the compactification chart",
        "default_config": {
            "schema_version": SCHEMA_VERSION,
            "task": "barrier-sweep",
            "seed": 0,
            "system": {"example": "blowup-ex2", "n": 1, "p": 2.0, "gamma": 1.0},
            "sweep": {"kind": "envelope", "samples": 20, "t_max": 3.0},
        },
    },
}


def list_examples() -> dict:
    """Catalog of built-in example systems with runnable default configs."""
    return EXAMPLES


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relaxtoc",
        description="time-optimal control with singular targets: solves, ladders, checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON run configuration")
    p_run.add_argument("config", help="path to the run configuration (JSON)")
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument("--seed", type=int, default=None, help="seed override")
    p_run.add_argument("--rtol", type=float, default=None, help="integrator rtol override")
    p_run.add_argument("--atol", type=float, default=None, help="integrator atol override")
    p_run.add_argument("--hit-tol", type=float, default=None, help="target hit tolerance override")

    sub.add_parser("list-examples", help="print the catalog of built-in examples")

    args = parser.parse_args(argv)
    if args.command == "list-examples":
        print(json.dumps(list_examples(), sort_keys=True, indent=2))
        return 0
    try:
        config = json.loads(Path(args.config).read_text())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        return run(
            config,
            out_dir=args.out,
            seed=args.seed,
            tol_overrides={"rtol": args.rtol, "atol": args.atol, "hit_tol": args.hit_tol},
        )
    except errors.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash is a runtime error (exit 2), not a failed check
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
