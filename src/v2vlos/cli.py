"""Command-line front end.

Subcommands: ``generate`` (state traces), ``curves`` (probability and
transition curves as plot-ready text), ``compare`` (proposed model vs the
memoryless urban-micro baseline on identical traces, with path loss), and
``estimate`` (empirical statistics, optional refit, correlation report).

Every output file starts with ``#``-prefixed provenance lines (version,
command, scenario, seed) so downstream plotters can skip them. Outputs are
written atomically (temp file, then rename). Exit codes: 0 success, 1
runtime or domain error, 2 usage error.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # The CLI's BLAS calls are 3x3 solves and small products: a pool of threads only costs start-up.
    # This must precede numpy's import; a value the user set still wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import dataclasses
import json
import math
import sys
import warnings
from itertools import repeat, tee
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .assembly import state_probabilities, transition_matrix
from .errors import DegenerateError, V2vLosError
from .estimation import accumulate, bin_centers, fit_same_family, frequencies, pearson
from .markov import DistanceTrace, chain
from .params import (
    DEFAULT_D_MAX,
    DEFAULT_D_MIN,
    OVER_RANGE_POLICIES,
    ScenarioModel,
    builtin_model,
    scenario_json,
)
from .pathloss import PathLossParams, render_path_loss
from .rng import derive_subseed, mix64
from .states import CANONICAL_STATES, STATE_NAMES, Density, Environment, LosState
from .traces import (
    DwellCount,
    MobilityProfile,
    atomic_output,
    read_distance_trace,
    synth_distance_trace,
    synth_distance_traces,
    write_state_traces,
)
from .umi import UmiParams, baseline

_SYNTH_SALT = 0x53594E54  # distance synthesis draws from its own seed stream

PROFILE_CHOICES = ("separate1ms", "constant", "walk", "opposing", "same-direction", "urban-mixed")

# Transition-probability column names, p_<origin>_<target>, in matrix order.
_TRANSITION_COLUMNS = tuple(f"p_{o.name.lower()}_{t.name.lower()}" for o in CANONICAL_STATES for t in CANONICAL_STATES)

# Most rows a ``curves`` grid may have; a finer step is a usage error.
_CURVES_MAX_ROWS = 10**6

_PROFILE_KIND = {
    "constant": "constant",
    "walk": "walk",
    "opposing": "opposing_highway",
    "same-direction": "same_direction_highway",
    "urban-mixed": "urban_mixed",
}


def _provenance(args: argparse.Namespace, model: ScenarioModel) -> list[str]:
    return [f"# v2vlos={__version__}", f"# command={args.command}", f"# scenario={model.tag}", f"# seed={args.seed}"]


def _write_atomic(path: str | Path, text: str) -> None:
    with atomic_output(path) as handle:
        handle.write(text)


def _positive(convert, most=math.inf):
    """argparse type: ``convert`` the text and require a result above zero and at most ``most``."""

    def check(text):
        try:
            value = convert(text)
        except ValueError:
            value = 0
        if not value > 0:
            raise argparse.ArgumentTypeError(f"expected a positive {convert.__name__}, got {text!r}")
        if value > most:
            raise argparse.ArgumentTypeError(f"expected at most {most}, got {text!r}")
        return value

    return check


_positive_int = _positive(int, sys.maxsize)  # a larger size overflows a C ssize_t in itertools.repeat and numpy
_positive_float = _positive(float)


# JSON value types a config file may give for an option of each argparse type.
_CONFIG_TYPES = {None: (str,), int: (int,), _positive_int: (int,), float: (int, float), _positive_float: (int, float)}


class _ConfigFile(argparse.Action):
    """``--config PATH``: a JSON object of defaults for unset options of this subcommand.

    Each value is checked like the flag it stands for, so a bad value is a
    usage error before any work starts. The values become the subcommand's
    defaults; :func:`main` then parses the command line again, so that every
    option given as a flag wins over the file, wherever it stands.
    """

    def __call__(self, parser, namespace, path, option_string=None):
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
            parser.error(f"cannot read config {path}: {exc}")
        if not isinstance(obj, dict):
            parser.error("config file must hold a JSON object")
        options = {a.dest: a for a in parser._actions if a.option_strings and a.dest not in ("help", self.dest)}
        unknown = [k for k in obj if k not in options]
        if unknown:
            parser.error(f"unknown config keys: {', '.join(sorted(unknown))}")
        values = {key: _config_value(parser, options[key], v) for key, v in obj.items()}
        parser.set_defaults(**values)
        setattr(namespace, self.dest, values)


def _config_value(parser: argparse.ArgumentParser, action: argparse.Action, value):
    accepted = (bool,) if action.nargs == 0 else _CONFIG_TYPES[action.type]
    if type(value) not in accepted:
        parser.error(f"config key {action.dest}: expected {' or '.join(t.__name__ for t in accepted)}, "
                     f"got {json.dumps(value)}")
    if action.type is not None:
        try:
            value = action.type(value)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"config key {action.dest}: {exc}")
    if action.choices is not None and value not in action.choices:
        parser.error(f"config key {action.dest}: {value!r} is not one of {', '.join(map(str, action.choices))}")
    return value


def _scenario(args: argparse.Namespace) -> ScenarioModel:
    return builtin_model(Environment(args.env), Density(args.density))


def _distance_traces(args: argparse.Namespace) -> Iterator[DistanceTrace]:
    """The batch's distance traces, made lazily; a bad option is an error here, before any is made."""
    if getattr(args, "trace_in", None):
        return repeat(read_distance_trace(args.trace_in), args.count)
    if args.steps is None:
        raise V2vLosError("either --steps with a profile or --trace-in is required")
    name = args.profile or "separate1ms"
    kind = _PROFILE_KIND.get(name, "constant")  # separate1ms: constant at 1 m/s
    flag, key, value = ("--vmax", "v_max", args.vmax) if kind == "walk" else \
        ("--speed", "speed", 1.0 if name == "separate1ms" else args.speed)
    if value is None:
        raise V2vLosError(f"{flag} is required for the {name} profile")
    try:
        profile = MobilityProfile(kind, d0=args.d0, n_steps=args.steps, **{key: value})
    except ValueError as exc:
        raise V2vLosError(str(exc)) from exc
    if not profile.seeded:
        return repeat(synth_distance_trace(profile), args.count)
    synth_master = mix64(args.seed ^ _SYNTH_SALT)
    return synth_distance_traces(profile, (derive_subseed(synth_master, i) for i in range(args.count)))


def _cmd_generate(args: argparse.Namespace) -> int:
    model = _scenario(args)
    grids, count = _distance_traces(args), DwellCount()
    states = count.tap(chain(model, args.over_range).batch(grids, args.seed))
    write_state_traces(states, args.out, _provenance(args, model))

    occ = count.occupancy / count.n_steps
    print(f"wrote {args.out}: traces={count.n_traces} steps={count.n_steps} scenario={model.tag} seed={args.seed}")
    print("occupancy: " + " ".join(f"{s.name}={occ[s]:.4f}" for s in CANONICAL_STATES))
    print(f"state_changes={count.changes} mean_dwell_s={count.mean_dwell:.3f}")
    return 0


def _curves_rows(args: argparse.Namespace) -> int:
    """Rows of ``d_min + i * d_step`` up to ``d_max``, a row when on the grid to 1e-9; past the cap, cap + 1."""
    last = (args.d_max - args.d_min) / args.d_step
    if last >= _CURVES_MAX_ROWS:  # round() could overflow
        return _CURVES_MAX_ROWS + 1
    last = round(last)
    return last + (args.d_min + last * args.d_step <= args.d_max + 1e-9)


def _cmd_curves(args: argparse.Namespace) -> int:
    model = _scenario(args)
    lines = _provenance(args, model)
    lines.append(",".join(["d", "p_los", "p_nlosv", "p_nlosb", *_TRANSITION_COLUMNS]))
    for i in range(_curves_rows(args)):
        d = args.d_min + i * args.d_step
        values = state_probabilities(model, d).tolist() + transition_matrix(model, d).ravel().tolist()
        lines.append(",".join([f"{d:.6g}"] + [f"{v:.8g}" for v in values]))
    _write_atomic(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out}: scenario={model.tag} d=[{args.d_min}, {args.d_max}] step={args.d_step}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    model = _scenario(args)
    grids, umi_grids = tee(_distance_traces(args))
    umi_params = UmiParams(d1=args.umi_d1, d2=args.umi_d2)
    pl_params = PathLossParams.from_file(args.pathloss_params) if args.pathloss_params else PathLossParams.defaults()

    # Both samplers read each chunk of grids in turn, so the tee holds about one chunk.
    proposed, memoryless = DwellCount(), DwellCount()
    pairs = zip(proposed.tap(chain(model, args.over_range).batch(grids, args.seed)),
                memoryless.tap(baseline(umi_params).batch(umi_grids, args.seed)), strict=True)
    first, first_umi = next(pairs)
    for _ in pairs:
        pass

    rows = zip(first.times.tolist(), first.distances.tolist(),
               first.states.tolist(), render_path_loss(first, pl_params).tolist(),
               first_umi.states.tolist(), render_path_loss(first_umi, pl_params).tolist())
    lines = _provenance(args, model)
    lines.append("t,d,state_model,pl_model_db,state_umi,pl_umi_db")
    lines.extend(f"{t},{d!r},{STATE_NAMES[sm]},{plm:.6f},{STATE_NAMES[su]},{plu:.6f}"
                 for t, d, sm, plm, su, plu in rows)
    _write_atomic(args.out, "\n".join(lines) + "\n")

    print(f"wrote {args.out}: traces={args.count} scenario={model.tag} seed={args.seed}")
    print(f"model=proposed state_changes={proposed.changes} mean_dwell_s={proposed.mean_dwell:.3f}")
    print(f"model=umi state_changes={memoryless.changes} mean_dwell_s={memoryless.mean_dwell:.3f}")
    return 0


def _safe_pearson(xs, ys) -> str:
    try:
        return f"{pearson(xs, ys):.4f}"
    except DegenerateError:
        return "undefined"


# Correlation report column order: LOS, NLOSb, NLOSv.
_REPORT_ORDER = (LosState.LOS, LosState.NLOSb, LosState.NLOSv)


def _correlation_report(model: ScenarioModel, centers: np.ndarray, emp_state: np.ndarray, emp_trans: np.ndarray) -> str:
    model_state = np.stack([state_probabilities(model, float(d)) for d in centers])
    model_trans = np.stack([transition_matrix(model, float(d)) for d in centers])

    lines = ["[los_probabilities]"]
    for s in _REPORT_ORDER:
        lines.append(f"{s.name}={_safe_pearson(emp_state[:, int(s)], model_state[:, int(s)])}")
    lines.append("[transition_probabilities]")
    for origin in _REPORT_ORDER:
        for target in _REPORT_ORDER:
            r = _safe_pearson(emp_trans[:, int(origin), int(target)], model_trans[:, int(origin), int(target)])
            lines.append(f"{origin.name}->{target.name}={r}")
    return "\n".join(lines) + "\n"


def _refit_model(model: ScenarioModel, centers: np.ndarray, emp_state: np.ndarray, emp_trans: np.ndarray) -> ScenarioModel:
    def refit(block, probs, what):
        """``block`` with each explicit curve refitted to its state's column over the bins that counted something."""
        seen, explicit = ~np.isnan(probs[:, 0]), {}
        for s, spec in block.explicit.items():
            try:
                explicit[s] = fit_same_family(spec, centers[seen], probs[seen, int(s)]).spec
            except V2vLosError as exc:  # named as ScenarioModel names the curve
                raise type(exc)(f"refit {what}.explicit.{s.name}: {exc}") from exc
        return dataclasses.replace(block, explicit=explicit)

    state_probs = refit(model.state_probs, emp_state, "state_probs")
    rows = tuple(refit(row, emp_trans[:, o], f"transitions.{o.name}") for o, row in zip(CANONICAL_STATES, model.rows))
    return dataclasses.replace(model, state_probs=state_probs, rows=rows)


def _cmd_estimate(args: argparse.Namespace) -> int:
    model = _scenario(args)
    occupancy, transitions = accumulate(args.traces)  # counted as it is read, a block at a time
    centers = bin_centers()
    emp_state, emp_trans = frequencies(occupancy), frequencies(transitions)
    refit = _refit_model(model, centers, emp_state, emp_trans) if args.fit else None  # a failing refit writes nothing

    if args.out_stats:
        lines = _provenance(args, model)
        header = ["bin", "center", "n_los", "n_nlosv", "n_nlosb", "p_los", "p_nlosv", "p_nlosb", *_TRANSITION_COLUMNS]
        lines.append(",".join(header))
        for b in range(len(centers)):
            row = [str(b), f"{centers[b]:.6g}"]
            row += [str(int(occupancy[b, int(s)])) for s in CANONICAL_STATES]
            row += [f"{emp_state[b, int(s)]:.8g}" for s in CANONICAL_STATES]
            row += [f"{emp_trans[b, i, j]:.8g}" for i in range(3) for j in range(3)]
            lines.append(",".join(row))
        _write_atomic(args.out_stats, "\n".join(lines) + "\n")
        print(f"wrote {args.out_stats}")

    report = "\n".join(_provenance(args, model)) + "\n"
    report += _correlation_report(model, centers, emp_state, emp_trans)
    if args.out_report:
        _write_atomic(args.out_report, report)
        print(f"wrote {args.out_report}")
    else:
        sys.stdout.write(report)

    if args.fit:
        _write_atomic(args.out_model, scenario_json(refit))
        print(f"wrote {args.out_model}")
    return 0


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--env", required=True, choices=[e.value for e in Environment], help="environment")
    p.add_argument("--density", required=True, choices=[d.value for d in Density], help="vehicle density")


def _add_trace_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", type=_positive_int, default=None, help="steps per synthetic trace")
    p.add_argument("--profile", choices=PROFILE_CHOICES, default=None,
                   help="synthetic mobility (default separate1ms: move apart at 1 m/s)")
    p.add_argument("--speed", type=float, default=None, help="profile speed in m/s")
    p.add_argument("--vmax", type=float, default=None, help="walk profile speed bound in m/s")
    p.add_argument("--d0", type=float, default=DEFAULT_D_MIN, help="initial Tx-Rx distance in m")
    p.add_argument("--trace-in", default=None, help="read the distance trace from a file instead")
    p.add_argument("--count", type=_positive_int, default=1, help="number of traces")
    p.add_argument("--over-range", choices=OVER_RANGE_POLICIES, default="error",
                   help="policy for distances above 500 m")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="v2vlos", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"v2vlos {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate visibility-state traces")
    _add_scenario_flags(g)
    _add_trace_flags(g)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output trace file")
    g.add_argument("--config", action=_ConfigFile, default=None, help="JSON file with defaults for unset flags")
    g.set_defaults(func=_cmd_generate)

    c = sub.add_parser("curves", help="emit probability and transition curves")
    _add_scenario_flags(c)
    c.add_argument("--d-min", type=float, default=DEFAULT_D_MIN)
    c.add_argument("--d-max", type=float, default=DEFAULT_D_MAX)
    c.add_argument("--d-step", type=_positive_float, default=1.0)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.add_argument("--config", action=_ConfigFile, default=None)
    c.set_defaults(func=_cmd_curves)

    m = sub.add_parser("compare", help="proposed model vs urban-micro baseline with path loss")
    _add_scenario_flags(m)
    _add_trace_flags(m)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out", required=True, help="joint path-loss series file")
    m.add_argument("--pathloss-params", default=None, help="JSON path-loss parameter file")
    m.add_argument("--umi-d1", type=float, default=UmiParams.d1)
    m.add_argument("--umi-d2", type=float, default=UmiParams.d2)
    m.add_argument("--config", action=_ConfigFile, default=None)
    m.set_defaults(func=_cmd_compare)

    e = sub.add_parser("estimate", help="empirical statistics and correlation report")
    _add_scenario_flags(e)
    e.add_argument("--seed", type=int, default=0, help="recorded in provenance; estimation is deterministic")
    e.add_argument("--traces", required=True, help="labeled trace file")
    e.add_argument("--out-stats", default=None, help="per-bin statistics file")
    e.add_argument("--out-report", default=None, help="correlation report file (stdout when omitted)")
    e.add_argument("--fit", action="store_true", help="refit the reference curve families")
    e.add_argument("--out-model", default=None, help="fitted scenario parameter file")
    e.add_argument("--config", action=_ConfigFile, default=None)
    e.set_defaults(func=_cmd_estimate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        args = parser.parse_args(argv)
    if args.command == "curves":
        for flag, value in (("--d-min", args.d_min), ("--d-max", args.d_max), ("--d-step", args.d_step)):
            if not math.isfinite(value):
                parser.error(f"{flag} must be finite, got {value:g}")
        if not args.d_min <= args.d_max:
            parser.error(f"--d-min {args.d_min:g} must not exceed --d-max {args.d_max:g}")
        if _curves_rows(args) > _CURVES_MAX_ROWS:
            parser.error(f"--d-step {args.d_step:g} gives more than {_CURVES_MAX_ROWS} rows")
    if args.command == "estimate" and args.fit and args.out_model is None:
        parser.error("--fit requires --out-model")
    try:
        for flag in ("out", "out_stats", "out_report", "out_model"):  # an unusable output path fails before any work
            path = getattr(args, flag, None)
            problem = path is not None and ("is empty" if not path else "is a directory" if os.path.isdir(path) else
                                            not os.path.isdir(os.path.dirname(path) or ".") and "is in a missing directory")
            if problem:
                raise V2vLosError(f"--{flag.replace('_', '-')} {path!r} {problem}")
        return args.func(args)
    except (V2vLosError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"  # one line, with no source path or code
    try:
        code = main()
    except SystemExit as exc:  # --help, --version and usage errors
        code = exc.code
    try:  # every output file is closed and renamed by now: skip teardown and atexit handlers
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    except Exception:  # a closed pipe, say, or a code os._exit refuses: leave as before
        raise SystemExit(code) from None
