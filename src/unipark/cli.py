"""Command-line front end: scenario runs, sweeps, gain assignment, and the
certificate verification suite.

Exit codes: 0 success / all checks passed, 1 run or check failure, 2 usage
or configuration error.  All outputs are pure functions of the config plus
seed; reruns produce byte-identical CSV/JSON.  Each logged value is written
as its ``repr``, from digits computed in numpy a chunk of rows at a time
(:mod:`unipark._reprtext`); a chunk holding a NaN, an infinity or a
subnormal value goes through ``repr`` itself.

Scenario files are JSON; inline flags override file fields.  Controller
names use the lowercase acronyms (genova, bolsa, bopa, bagal, glofo, bofo,
globa, globa-interp, globa-cons, barfli, libac).  The output directory comes
from --out, overridden by the UNIPARK_OUT environment variable when set.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .controllers import ControllerId, Gains
from .errors import ConfigError, DomainError, InfeasiblePolesError, TransformError, UniparkError
from .linearization import DesignFamily, PoleSpec, assign_gains, family_of_controller, jacobian_eigenvalues
from .lyapunov import CompositeKind, CompositeOrder
from .simulate import (
    Scenario,
    Termination,
    Trajectory,
    _compile_kernels,
    _forked_map,
    integrate,
    sweep_point,
)
from .spaces import CartesianState, PolarState
from .svg import SvgPath, palette_color, write_svg
from .verify import eigenvalue_error, run_all

SCHEMA_VERSION = 1
# Terminations that make simulate and sweep exit 1.
_FAILED_TERMINATIONS = (Termination.NUMERIC.value, Termination.BARRIER_GUARD.value)
CSV_COLUMNS = ("t", "x", "y", "theta", "rho", "delta", "gamma", "v", "omega", "V", "metric")
# Rows formatted per pass of write_trajectory, so its memory stays bounded
# however long the run.
_CHUNK_ROWS = 256
# The data array as json.dump(indent=2) lays it out, three levels deep: the
# text around each row and between its values.
_JSON_ROW_OPEN, _JSON_VALUE_SEP, _JSON_ROW_CLOSE = "\n    [\n      ", ",\n      ", "\n    ]"
# The top-level "data" key; only top-level keys sit at a two-space indent.
_JSON_DATA = '\n  "data": '


def _parse_floats(spec, what: str, lo: int = 3, hi: int = 3) -> tuple[float, ...]:
    """``lo`` to ``hi`` numbers from a JSON list of numbers or a comma-separated string."""
    text = not isinstance(spec, list)
    parts = [p for p in str(spec).split(",") if p.strip() != ""] if text else spec
    vals = tuple(_number(p, f"each value of {what}", text) for p in parts)
    if not lo <= len(vals) <= hi:
        count = lo if lo == hi else f"{lo} to {hi}"
        raise ConfigError(f"{what} needs {count} numbers, got {len(vals)} in {spec!r}")
    return vals


def _number(value, what: str, text: bool = False) -> float:
    """``value`` as a float: a JSON number, or with ``text`` the text of one
    (a part of a comma-separated string).  JSON's true and false are not
    numbers, nor are its strings."""
    if isinstance(value, str if text else (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(ValueError, OverflowError):
            return float(value)
    raise ConfigError(f"{what} must be a number, got {value!r}")


def _parse_gains(spec) -> Gains:
    names = ("k1", "k2", "k3", "k4", "k0")
    if isinstance(spec, dict):
        unknown = sorted(set(spec) - set(names))
        if unknown:
            raise ConfigError(f"unknown gains {unknown}; expected k1..k4, k0")
        return Gains(**{k: _number(v, f"gain {k}") for k, v in spec.items()})
    return Gains(**dict(zip(names, _parse_floats(spec, "gains (k1..k4, k0)", 1, 5))))


def _choice(enum_cls, value, what: str):
    """The member of ``enum_cls`` named by the config value ``value``."""
    try:
        return enum_cls(value)
    except ValueError:
        raise ConfigError(
            f"unknown {what} {value!r}; expected one of " + ", ".join(m.value for m in enum_cls)
        ) from None


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path!r} is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r} must hold a JSON object")
    return cfg


def _scenario_from(cfg: dict, args: argparse.Namespace, controller=None, initial=None) -> Scenario:
    """The scenario of the flags of ``args``, each overriding the config
    field of its name in ``cfg``.  ``controller`` and ``initial``, when
    given, replace --controller and --init-cart or --init-polar."""
    def get(name, default=None):
        flag = getattr(args, name)
        return flag if flag is not None else cfg.get(name, default)

    controller = controller or get("controller")
    if controller is None:
        raise ConfigError("a controller is required (--controller or config field)")
    # Out-of-range gains and non-finite states are config errors too.
    try:
        if initial is None:
            init_cart, init_polar = get("init_cart"), get("init_polar")
            if init_cart is not None and init_polar is not None:
                raise ConfigError("give exactly one of init_cart / init_polar")
            if init_cart is not None:
                initial = CartesianState(*_parse_floats(init_cart, "init_cart"))
            elif init_polar is not None:
                initial = PolarState(*_parse_floats(init_polar, "init_polar"))
            else:
                raise ConfigError("an initial state is required (--init-cart or --init-polar)")
        return Scenario(
            controller=_choice(ControllerId, controller, "controller"),
            gains=_parse_gains(get("gains", "1,1,1,1")),
            initial=initial,
            frame=get("frame", "polar"),
            dt=_number(get("dt", 1e-3), "dt"),
            t_max=_number(get("t_max", 100.0), "t_max"),
            stop_tol=_number(get("tol", 1e-4), "tol"),
            barrier_margin=_number(cfg.get("barrier_margin", 1e-9), "barrier_margin"),
            composite=_choice(CompositeKind, get("composite", "add"), "composite"),
            composite_order=_choice(CompositeOrder, cfg.get("composite_order", "rho-first"),
                                    "composite_order"),
        )
    except (DomainError, TransformError) as e:
        raise ConfigError(str(e)) from None


def _out_dir(args: argparse.Namespace) -> Path:
    out = os.environ.get("UNIPARK_OUT") or args.out
    path = Path(out)
    with _writing():
        path.mkdir(parents=True, exist_ok=True)
    return path


@contextlib.contextmanager
def _writing():
    """An ``OSError`` naming a path, as creating the output directory or
    opening a file in it raises, as a config error: the output location is
    unusable.  One with no path, such as a failed write, propagates."""
    try:
        yield
    except OSError as e:
        if e.filename is None:
            raise
        raise ConfigError(f"cannot write {os.fsdecode(e.filename)!r}: {e.strerror}") from None


def _formats(args: argparse.Namespace, allowed=("csv", "json", "svg")) -> set[str]:
    fmts = {f.strip() for f in args.format.split(",") if f.strip()}
    bad = fmts - set(allowed)
    if bad:
        raise ConfigError(f"unknown formats {sorted(bad)}; allowed: {allowed}")
    if not fmts:
        raise ConfigError("at least one output format is required")
    return fmts


def write_trajectory(traj: Trajectory, csv_path: Path | None, json_path: Path | None) -> None:
    """Write the logged columns of ``traj`` as CSV and/or JSON (a ``None``
    path skips that format).

    The 11 columns are stacked a chunk of rows at a time, and each chunk is
    formatted once, as CSV rows in which every value reads as its ``repr``
    (:func:`~unipark._reprtext.repr_rows`: shortest round-trip digits
    computed in numpy; a chunk holding a non-finite or subnormal value goes
    through ``repr`` itself).  The JSON rows are that text with the
    separators replaced.  The JSON matches ``json.dump`` with ``indent=2,
    sort_keys=True``: the envelope goes through ``json``, and only the
    ``data`` rows are spliced in, with non-finite values spelled as ``json``
    spells them.
    """
    # Imported here, so that its compile time stays off the CLI's start.
    from ._reprtext import repr_rows

    columns = (traj.t, traj.cartesian, traj.polar, traj.v, traj.omega, traj.V, traj.metric)
    rows = len(traj.t)
    with contextlib.ExitStack() as stack:
        csv = stack.enter_context(open(csv_path, "w")) if csv_path is not None else None
        js = stack.enter_context(open(json_path, "w")) if json_path is not None else None
        if csv is not None:
            csv.write(",".join(CSV_COLUMNS) + "\n")
        if js is not None:
            envelope = {
                "schema_version": SCHEMA_VERSION,
                "meta": traj.meta,
                "termination": traj.termination.value,
                "columns": list(CSV_COLUMNS),
                "data": None,
                "axis_crossings": [
                    {"t": c.t, "x": c.x, "in_front": c.in_front} for c in traj.crossings
                ],
            }
            head, tail = json.dumps(envelope, indent=2, sort_keys=True).split(_JSON_DATA + "null", 1)
            js.write(head + _JSON_DATA + "[")
        for start in range(0, rows, _CHUNK_ROWS):
            # Stacked per chunk: a whole-run table would be one more copy of the log.
            chunk = np.column_stack([c[start:start + _CHUNK_ROWS] for c in columns])
            text = repr_rows(chunk)
            if csv is not None:
                csv.write(text)
            if js is not None:
                if not np.isfinite(chunk).all():
                    text = text.replace("nan", "NaN").replace("inf", "Infinity")
                # "]" marks the row ends while the commas are replaced.
                body = text[:-1].replace("\n", "]").replace(",", _JSON_VALUE_SEP)
                body = body.replace("]", _JSON_ROW_CLOSE + "," + _JSON_ROW_OPEN)
                js.write(("," if start else "") + _JSON_ROW_OPEN + body + _JSON_ROW_CLOSE)
        if js is not None:
            js.write(("\n  ]" if rows else "]") + tail + "\n")


def _write_json(payload: dict, path: Path) -> None:
    with _writing():
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _scenario_from(_load_config(args.config), args)
    fmts = _formats(args)
    out = _out_dir(args)
    traj = integrate(scenario)
    stem = f"traj_{scenario.controller.value}"
    with _writing():
        if fmts & {"csv", "json"}:
            write_trajectory(traj, out / f"{stem}.csv" if "csv" in fmts else None,
                             out / f"{stem}.json" if "json" in fmts else None)
        if "svg" in fmts:
            write_svg(out / f"{stem}.svg", [SvgPath(traj.cartesian, label=scenario.controller.value)])
    print(
        f"{scenario.controller.value}: {traj.termination.value} at t={traj.final_time:g}, "
        f"metric={traj.metric[-1]:.3e}, outputs in {out}"
    )
    if traj.termination.value in _FAILED_TERMINATIONS:
        print(f"run failed: termination {traj.termination.value}", file=sys.stderr)
        return 1
    return 0


def _sweep_grid(cfg: dict) -> list:
    if "grid_cart" in cfg and "grid_polar" in cfg:
        raise ConfigError("give exactly one of grid_cart / grid_polar")
    for key, state in (("grid_cart", CartesianState), ("grid_polar", PolarState)):
        if key in cfg:
            if not isinstance(cfg[key], list):
                raise ConfigError(f"{key} must be a list of states, got {cfg[key]!r}")
            try:
                return [state(*_parse_floats(row, f"{key} row")) for row in cfg[key]]
            except (DomainError, TransformError) as e:
                raise ConfigError(str(e)) from None
    raise ConfigError("sweep config needs grid_cart or grid_polar")


def _decay_rate(s: Scenario) -> float:
    """min(-Re lambda) over the closed-loop poles of ``s``'s law at its gains,
    which sets how long its runs take; -inf for a law outside the pole
    formulas."""
    try:
        family = family_of_controller(s.controller)
    except DomainError:
        return -math.inf
    return min(-z.real for z in jacobian_eigenvalues(family, s.gains))


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        return _sweep(args)
    finally:
        # A sweep's runs free tens of MiB here, and glibc keeps about 8 to
        # 35 MiB of it resident as free chunks, more or less as the workers'
        # timing dealt the points.  Trimmed, the memory that stays resident
        # after a sweep is the same from one run to the next.
        trim = _malloc_trim()
        if trim is not None:
            trim(0)


@functools.cache
def _malloc_trim():
    """The C library's ``malloc_trim``, or None where it has none (glibc
    has it; musl, macOS and Windows do not)."""
    import ctypes

    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None


def _sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    if not cfg:
        raise ConfigError("sweep requires --config with a grid")
    grid = _sweep_grid(cfg)
    if len(grid) == 0:
        raise ConfigError("sweep grid is empty")
    # --controller overrides both config fields, as every flag does its field.
    controllers = [args.controller] if args.controller is not None else cfg.get("controllers")
    if controllers is None:
        controllers = [cfg["controller"]] if cfg.get("controller") else []
    if not isinstance(controllers, list):
        raise ConfigError(f"controllers must be a list of names, got {controllers!r}")
    controllers = [_choice(ControllerId, c, "controller") for c in controllers]
    if not controllers:
        raise ConfigError("sweep needs at least one controller")
    fmts = _formats(args, allowed=("json", "svg", "txt"))
    out = _out_dir(args)
    # Scenario's default start is a placeholder; the grid has the real ones.
    bases = [_scenario_from(cfg, args, cid, Scenario.initial) for cid in controllers]

    def point(job):  # a worker sends back the record and only the drawn poses
        r, traj = sweep_point(*job)
        return r, traj.cartesian if "svg" in fmts and traj is not None else None

    # The points are dealt slowest law first, by its linearisation's slowest
    # decay rate, so no worker is left alone with long runs at the end; the
    # laws outside the pole formulas, of unknown rate, go first.
    order = sorted(range(len(bases)), key=lambda ci: _decay_rate(bases[ci]))
    _compile_kernels(bases)
    dealt = _forked_map(point, [(bases[ci], i, initial) for ci in order for i, initial in enumerate(grid)])
    results = {ci: dealt[k * len(grid):(k + 1) * len(grid)] for k, ci in enumerate(order)}
    summary = {"schema_version": SCHEMA_VERSION, "controllers": {}}
    paths = []
    failures = 0
    for ci, cid in enumerate(controllers):
        recs = []
        for r, cartesian in results[ci]:
            if cartesian is not None:
                paths.append(SvgPath(cartesian, label=cid.value, color=palette_color(ci)))
            recs.append(dataclasses.asdict(r))
            failures += int(r.termination in _FAILED_TERMINATIONS or r.error is not None)
        summary["controllers"][cid.value] = recs
    text = _summary_text(summary)
    with _writing():
        if "json" in fmts:
            _write_json(summary, out / "sweep_summary.json")
        if "txt" in fmts:
            (out / "sweep_summary.txt").write_text(text)
        if "svg" in fmts and paths:
            write_svg(out / "sweep_overlay.svg", paths)
    print(text, end="")
    print(f"outputs in {out}")
    return 1 if failures else 0


def _summary_text(summary: dict) -> str:
    lines = []
    header = (
        f"{'controller':14s} {'idx':>3s} {'termination':12s} {'t_conv':>8s} "
        f"{'path_len':>9s} {'effort':>9s} {'margin':>9s} {'Vviol':>5s} {'xfront':>6s}"
    )
    lines.append(header)
    for cname, recs in summary["controllers"].items():
        for r in recs:
            tconv = "-" if r["convergence_time"] is None else f"{r['convergence_time']:.2f}"
            margin = r["min_barrier_margin"]
            margin_s = "inf" if margin in (None, math.inf) or margin != margin else f"{margin:.3f}"
            lines.append(
                f"{cname:14s} {r['index']:3d} {r['termination']:12s} {tconv:>8s} "
                f"{r['path_length']:9.3f} {r['steering_effort']:9.3f} {margin_s:>9s} "
                f"{r['v_violations']:5d} {r['front_crossings']:6d}"
            )
    return "\n".join(lines) + "\n"


def _parse_pole(text: str) -> complex:
    t = text.strip()
    try:
        z = complex(t[:-1] + "j" if t.endswith("i") else t)  # the "i" of inf stays
    except ValueError:
        raise ConfigError(f"bad pole {text!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ConfigError(f"pole {text!r} must be finite")
    return z


def cmd_gains(args: argparse.Namespace) -> int:
    family = _choice(DesignFamily, args.family, "family")
    if args.epsilon is not None and not math.isfinite(args.epsilon):
        raise ConfigError(f"--epsilon must be finite, got {args.epsilon!r}")
    texts = [p.strip() for p in args.poles.split(",") if p.strip()]
    poles = [_parse_pole(p) for p in texts]
    if len(poles) != 3:
        raise ConfigError(f"--poles needs three comma-separated values, got {len(poles)}")
    lam1, lam2, lam3 = poles
    if lam1.imag != 0.0:
        raise ConfigError("the first pole must be real")
    # Checked here, in the poles' own sign: PoleSpec holds p = -lambda.
    for text, lam in zip(texts, poles):
        if not lam.real < 0.0:
            print(f"infeasible: pole {text!r} must have a negative real part", file=sys.stderr)
            return 1
    try:
        spec = PoleSpec(-lam1.real, -lam2, -lam3)
        solutions = assign_gains(family, spec, strict=args.strict, epsilon=args.epsilon)
    except (InfeasiblePolesError, UniparkError) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 1
    payload = {"schema_version": SCHEMA_VERSION, "family": family.value, "solutions": []}
    for g in solutions:
        eigs = jacobian_eigenvalues(family, g)
        payload["solutions"].append(
            {
                "gains": {"k1": g.k1, "k2": g.k2, "k3": g.k3, "k4": g.k4},
                "strict_passivity": g.strict_passivity,
                "achieved_eigenvalues": [[z.real, z.imag] for z in eigs],
                "roundtrip_error": eigenvalue_error(eigs, spec.as_eigenvalues()),
            }
        )
    print(json.dumps(payload, indent=2, sort_keys=True))
    _write_json(payload, _out_dir(args) / "gains.json")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    report = run_all(seed=args.seed, samples=args.samples)
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {c['name']:24s} {c['subject']:14s} worst={c['worst']:.3e}")
    _write_json(report, out / "verify_report.json")
    print(f"report: {out / 'verify_report.json'}")
    if not report["all_passed"]:
        failing = [c for c in report["checks"] if not c["passed"]]
        print(f"{len(failing)} checks failed", file=sys.stderr)
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are one ``error:`` line and exit 2, as config errors
    are; the subcommand parsers inherit the class."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="unipark",
        description="Polar-coordinate unicycle parking: simulation, sweeps, "
        "gain assignment, and certificate verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default="out", help="output directory (env UNIPARK_OUT overrides)")

    def add_scenario(p):  # the flags of simulate and sweep that override config fields
        p.add_argument("--controller", help="controller acronym (e.g. globa)")
        p.add_argument("--gains", help="comma list k1,k2,k3[,k4[,k0]]")
        p.add_argument("--frame", choices=("polar", "cartesian"))
        p.add_argument("--dt", type=float)
        p.add_argument("--t-max", dest="t_max", type=float)
        p.add_argument("--tol", type=float)
        p.add_argument("--composite", help="certificate combiner for logging")

    sim = sub.add_parser("simulate", help="integrate one scenario")
    sim.add_argument("--config", help="scenario JSON file")
    add_scenario(sim)
    sim.add_argument("--init-cart", dest="init_cart", help="x,y,theta")
    sim.add_argument("--init-polar", dest="init_polar", help="rho,delta,gamma")
    sim.add_argument("--format", default="csv,json,svg")
    add_common(sim)
    sim.set_defaults(fn=cmd_simulate)

    sw = sub.add_parser("sweep", help="run a grid of initial states")
    sw.add_argument("--config", help="sweep JSON file with grid")
    add_scenario(sw)
    sw.add_argument("--format", default="json,svg,txt")
    add_common(sw)
    sw.set_defaults(fn=cmd_sweep)

    ga = sub.add_parser("gains", help="assign gains for requested poles")
    ga.add_argument("--family", required=True, help="passivity | forwarding | backstepping")
    ga.add_argument("--poles", required=True, help="three poles, e.g. --poles=-1,-0.5+0.9i,-0.5-0.9i")
    ga.add_argument("--epsilon", type=float, default=None, help="backstepping free parameter")
    ga.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True,
                    help="passivity: require k1*k3 >= k2^2 (default on)")
    add_common(ga)
    ga.set_defaults(fn=cmd_gains)

    ve = sub.add_parser("verify", help="run the certificate verification suite")
    ve.add_argument("--samples", type=int, default=1000)
    ve.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    add_common(ve)
    ve.set_defaults(fn=cmd_verify)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parsing leaves it unchanged, so it is reused."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except UniparkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
