"""Command-line front end: scenario runs, sweeps, gain assignment, and the
certificate verification suite.

Exit codes: 0 success / all checks passed, 1 run or check failure, 2 usage
or configuration error.  All outputs are pure functions of the config plus
seed; reruns produce byte-identical CSV/JSON.  Each logged value is written
as its ``repr``, from digits computed in numpy a chunk of rows at a time
(:mod:`unipark._reprtext`); a chunk holding a NaN, an infinity or a
subnormal value goes through ``repr`` itself.

Scenario files and sweep configs are JSON objects.  ``FIELDS`` holds one
row per config field: the commands that read it, its kind, its default and
its flag.  A flag overrides its field, and a field that the command does not
read is a config error.  Controller names use the lowercase acronyms
(genova, bolsa, bopa, bagal, glofo, bofo, globa, globa-interp, globa-cons,
barfli, libac).  The output directory comes from --out, overridden by the
UNIPARK_OUT environment variable when set.
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
from typing import Callable, NamedTuple

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
    if not isinstance(spec, (list, str)):
        raise ConfigError(f"{what} must be a list of numbers or a comma-separated string, got {spec!r}")
    text = isinstance(spec, str)
    parts = [p for p in spec.split(",") if p.strip() != ""] if text else spec
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


def _parse_gains(spec, what: str = "gains") -> Gains:
    names = ("k1", "k2", "k3", "k4", "k0")
    if isinstance(spec, dict):
        unknown = sorted(set(spec) - set(names))
        if unknown:
            raise ConfigError(f"unknown {what} {unknown}; expected k1..k4, k0")
        return Gains(**{k: _number(v, f"gain {k}") for k, v in spec.items()})
    return Gains(**dict(zip(names, _parse_floats(spec, f"{what} (k1..k4, k0)", 1, 5))))


def _choice(choices, value, what: str):
    """The member of ``choices``, an enum or a tuple of names, that the
    config value ``value`` names."""
    members = list(choices)
    names = [getattr(m, "value", m) for m in members]
    if value not in names:
        raise ConfigError(f"unknown {what} {value!r}; expected one of " + ", ".join(names))
    return members[names.index(value)]


def _state(state, spec, what: str):
    return state(*_parse_floats(spec, what))


def _list(item, spec, what: str) -> list:
    """A non-empty JSON list, each element parsed by ``item``."""
    if not isinstance(spec, list) or not spec:
        raise ConfigError(f"{what} must be a non-empty list, got {spec!r}")
    return [item(e, f"{what} entry") for e in spec]


def _schema_version(value, what: str) -> int:
    if type(value) is not int or value != SCHEMA_VERSION:
        raise ConfigError(f"{what} must be {SCHEMA_VERSION}, got {value!r}")
    return value


class Field(NamedTuple):
    """A config field: the commands that read it, its kind as the parser
    ``kind(value, name)`` of a config or flag value, its default (None: the
    field has none), and the argparse keywords of the flag that overrides
    it (None: no flag sets it)."""

    commands: tuple[str, ...]
    kind: Callable
    default: object = None
    flag: dict | None = None


_SIMULATE, _SWEEP, _BOTH = ("simulate",), ("sweep",), ("simulate", "sweep")
_FRAMES = ("polar", "cartesian")
_controller = functools.partial(_choice, ControllerId)
_cart, _polar = functools.partial(_state, CartesianState), functools.partial(_state, PolarState)


def _controllers(spec, what: str) -> list:
    """A non-empty JSON list of controller names, none of them repeated."""
    laws = _list(_controller, spec, what)
    for i, cid in enumerate(laws):
        if cid in laws[:i]:
            raise ConfigError(f"{what} names {cid.value!r} more than once")
    return laws


# The rows' order is the order of the flags in --help.
FIELDS = {
    "schema_version": Field(_BOTH, _schema_version, SCHEMA_VERSION),
    "controller": Field(_BOTH, _controller, None, {"help": "controller acronym (e.g. globa)"}),
    "controllers": Field(_SWEEP, _controllers),
    "gains": Field(_BOTH, _parse_gains, "1,1,1,1", {"help": "comma list k1,k2,k3[,k4[,k0]]"}),
    "frame": Field(_BOTH, functools.partial(_choice, _FRAMES), "polar", {"choices": _FRAMES}),
    "dt": Field(_BOTH, _number, 1e-3, {"type": float}),
    "t_max": Field(_BOTH, _number, 100.0, {"type": float}),
    "tol": Field(_BOTH, _number, 1e-4, {"type": float}),
    "composite": Field(_BOTH, functools.partial(_choice, CompositeKind), "add",
                       {"help": "certificate combiner for logging"}),
    "barrier_margin": Field(_BOTH, _number, 1e-9),
    "composite_order": Field(_BOTH, functools.partial(_choice, CompositeOrder), "rho-first"),
    "init_cart": Field(_SIMULATE, _cart, None, {"help": "x,y,theta"}),
    "init_polar": Field(_SIMULATE, _polar, None, {"help": "rho,delta,gamma"}),
    "grid_cart": Field(_SWEEP, functools.partial(_list, _cart)),
    "grid_polar": Field(_SWEEP, functools.partial(_list, _polar)),
}


def _load_config(path: str) -> dict:
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


def _config(args: argparse.Namespace) -> dict:
    """Each config field of ``args.command`` that is set, by name: its flag
    if given, else its value in the config file, else its default, parsed
    by its kind.  A field in the file that the command does not read is a
    config error, as is a schema_version other than 1."""
    cfg = _load_config(args.config) if args.config is not None else {}
    fields = {name: f for name, f in FIELDS.items() if args.command in f.commands}
    unknown = [name for name in cfg if name not in fields]
    if unknown:
        raise ConfigError(f"{args.command} reads no config field " + ", ".join(map(repr, unknown)))
    defaults = {name: f.default for name, f in fields.items() if f.default is not None}
    flags = {name: getattr(args, name) for name, f in fields.items() if f.flag is not None}
    given = {**defaults, **cfg, **{name: v for name, v in flags.items() if v is not None}}
    try:
        return {name: fields[name].kind(value, name) for name, value in given.items()}
    except (DomainError, TransformError) as e:
        raise ConfigError(str(e)) from None


def _one_of(config: dict, a: str, b: str, missing: str):
    """The value of whichever of the fields ``a`` and ``b`` is set."""
    given = [config[name] for name in (a, b) if name in config]
    if len(given) != 1:
        raise ConfigError(f"give exactly one of {a} / {b}" if given else missing)
    return given[0]


def _scenario_from(config: dict, controller=None, initial=None) -> Scenario:
    """The scenario of the parsed fields ``config``.  ``controller`` and
    ``initial``, when given, replace the controller and the initial state."""
    controller = controller or config.get("controller")
    if controller is None:
        raise ConfigError("a controller is required (--controller or config field)")
    if initial is None:
        initial = _one_of(config, "init_cart", "init_polar",
                          "an initial state is required (--init-cart or --init-polar)")
    return Scenario(
        controller=controller, gains=config["gains"], initial=initial, frame=config["frame"], dt=config["dt"],
        t_max=config["t_max"], stop_tol=config["tol"], barrier_margin=config["barrier_margin"],
        composite=config["composite"], composite_order=config["composite_order"],
    )


def _out_dir(args: argparse.Namespace) -> Path:
    path = Path(os.environ.get("UNIPARK_OUT") or args.out)
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
    scenario = _scenario_from(_config(args))
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
    config = _config(args)
    grid = _one_of(config, "grid_cart", "grid_polar", "sweep config needs grid_cart or grid_polar")
    # --controller overrides both config fields, as every flag does its field.
    laws = config["controller"] if args.controller is not None else _one_of(
        config, "controller", "controllers", "sweep needs a controller or controllers")
    controllers = laws if isinstance(laws, list) else [laws]
    fmts = _formats(args, allowed=("json", "svg", "txt"))
    out = _out_dir(args)
    # Scenario's default start is a placeholder; the grid has the real ones.
    bases = [_scenario_from(config, cid, Scenario.initial) for cid in controllers]

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
    lines = [
        f"{'controller':14s} {'idx':>3s} {'termination':12s} {'t_conv':>8s} "
        f"{'path_len':>9s} {'effort':>9s} {'margin':>9s} {'Vviol':>5s} {'xfront':>6s}"
    ]
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

    for command, about, config, formats, fn in (
        ("simulate", "integrate one scenario", "scenario JSON file", "csv,json,svg", cmd_simulate),
        ("sweep", "run a grid of initial states", "sweep JSON file with grid", "json,svg,txt", cmd_sweep),
    ):
        p = sub.add_parser(command, help=about)
        p.add_argument("--config", help=config)
        for name, field in FIELDS.items():  # the flags that override config fields
            if command in field.commands and field.flag is not None:
                p.add_argument("--" + name.replace("_", "-"), dest=name, **field.flag)
        p.add_argument("--format", default=formats)
        add_common(p)
        p.set_defaults(fn=fn)

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
    except UniparkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
