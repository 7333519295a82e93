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

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .assembly import state_probabilities, transition_matrix
from .errors import DegenerateError, V2vLosError
from .estimation import (
    BinnedProbs,
    accumulate,
    bin_centers,
    empirical_state_probs,
    empirical_transition_probs,
    fit_same_family,
    pearson,
)
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
    MobilityProfile,
    atomic_output,
    dwell_statistics,
    read_distance_trace,
    read_labeled_traces,
    synth_distance_trace,
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


def _provenance(command: str, scenario: str | None = None, seed: int | None = None) -> list[str]:
    lines = [f"# v2vlos={__version__}", f"# command={command}"]
    if scenario is not None:
        lines.append(f"# scenario={scenario}")
    if seed is not None:
        lines.append(f"# seed={seed}")
    return lines


def _write_atomic(path: str | Path, text: str) -> None:
    with atomic_output(path) as handle:
        handle.write(text)


def _positive(convert):
    """argparse type: ``convert`` the text and require a result above zero."""

    def check(text):
        try:
            value = convert(text)
        except ValueError:
            value = 0
        if not value > 0:
            raise argparse.ArgumentTypeError(f"expected a positive {convert.__name__}, got {text!r}")
        return value

    return check


_positive_int = _positive(int)
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


def _build_distance_traces(args: argparse.Namespace) -> list[DistanceTrace]:
    if getattr(args, "trace_in", None):
        return [read_distance_trace(args.trace_in)] * args.count
    if args.steps is None:
        raise V2vLosError("either --steps with a profile or --trace-in is required")
    profile_name = args.profile or "separate1ms"
    try:
        if profile_name == "separate1ms":
            profile = MobilityProfile("constant", d0=args.d0, n_steps=args.steps, speed=1.0)
        else:
            kind = _PROFILE_KIND[profile_name]
            if kind == "walk":
                if args.vmax is None:
                    raise V2vLosError("--vmax is required for the walk profile")
                profile = MobilityProfile(kind, d0=args.d0, n_steps=args.steps, v_max=args.vmax)
            else:
                if args.speed is None:
                    raise V2vLosError(f"--speed is required for the {profile_name} profile")
                profile = MobilityProfile(kind, d0=args.d0, n_steps=args.steps, speed=args.speed)
    except ValueError as exc:
        raise V2vLosError(str(exc)) from exc
    if not profile.seeded:
        return [synth_distance_trace(profile)] * args.count
    synth_master = mix64(args.seed ^ _SYNTH_SALT)
    return [synth_distance_trace(profile, derive_subseed(synth_master, i)) for i in range(args.count)]


def _cmd_generate(args: argparse.Namespace) -> int:
    model = _scenario(args)
    traces = _build_distance_traces(args)
    state_traces = list(chain(model, args.over_range).batch(traces, args.seed))

    write_state_traces(state_traces, args.out, _provenance("generate", scenario=model.tag, seed=args.seed))

    dwell = dwell_statistics(state_traces)
    occ = dwell.occupancy / dwell.n_steps
    print(f"wrote {args.out}: traces={dwell.n_traces} steps={dwell.n_steps} scenario={model.tag} seed={args.seed}")
    print("occupancy: " + " ".join(f"{s.name}={occ[s]:.4f}" for s in CANONICAL_STATES))
    print(f"state_changes={dwell.changes} mean_dwell_s={dwell.mean_dwell:.3f}")
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    model = _scenario(args)
    lines = _provenance("curves", scenario=model.tag, seed=args.seed)
    lines.append(",".join(["d", "p_los", "p_nlosv", "p_nlosb", *_TRANSITION_COLUMNS]))
    n = int((args.d_max - args.d_min) / args.d_step) + 1
    for i in range(n):
        d = args.d_min + i * args.d_step
        if d > args.d_max + 1e-9:
            break
        probs = state_probabilities(model, d)
        tm = transition_matrix(model, d)
        row = [f"{d:.6g}"] + [f"{v:.8g}" for v in probs.as_tuple()]
        row += [f"{tm.m[i2, j]:.8g}" for i2 in range(3) for j in range(3)]
        lines.append(",".join(row))
    _write_atomic(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out}: scenario={model.tag} d=[{args.d_min}, {args.d_max}] step={args.d_step}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    model = _scenario(args)
    traces = _build_distance_traces(args)
    umi_params = UmiParams(d1=args.umi_d1, d2=args.umi_d2)
    pl_params = PathLossParams.from_file(args.pathloss_params) if args.pathloss_params else PathLossParams.defaults()

    proposed = list(chain(model, args.over_range).batch(traces, args.seed))
    memoryless = list(baseline(umi_params).batch(traces, args.seed))

    first, first_umi = proposed[0], memoryless[0]
    rows = zip(first.times.tolist(), first.distances.tolist(),
               first.states.tolist(), render_path_loss(first, pl_params).tolist(),
               first_umi.states.tolist(), render_path_loss(first_umi, pl_params).tolist())
    lines = _provenance("compare", scenario=model.tag, seed=args.seed)
    lines.append("t,d,state_model,pl_model_db,state_umi,pl_umi_db")
    lines.extend(f"{t},{d!r},{STATE_NAMES[sm]},{plm:.6f},{STATE_NAMES[su]},{plu:.6f}"
                 for t, d, sm, plm, su, plu in rows)
    _write_atomic(args.out, "\n".join(lines) + "\n")

    dwell_model = dwell_statistics(proposed)
    dwell_umi = dwell_statistics(memoryless)
    print(f"wrote {args.out}: traces={len(traces)} scenario={model.tag} seed={args.seed}")
    print(f"model=proposed state_changes={dwell_model.changes} mean_dwell_s={dwell_model.mean_dwell:.3f}")
    print(f"model=umi state_changes={dwell_umi.changes} mean_dwell_s={dwell_umi.mean_dwell:.3f}")
    return 0


def _safe_pearson(xs, ys) -> str:
    try:
        return f"{pearson(xs, ys):.4f}"
    except DegenerateError:
        return "undefined"


# Correlation report column order: LOS, NLOSb, NLOSv.
_REPORT_ORDER = (LosState.LOS, LosState.NLOSb, LosState.NLOSv)


def _correlation_report(model: ScenarioModel, centers: np.ndarray, emp_state: BinnedProbs, emp_trans: BinnedProbs) -> str:
    model_state = np.asarray([state_probabilities(model, float(d)).as_tuple() for d in centers])
    model_trans = np.asarray([transition_matrix(model, float(d)).m for d in centers])

    lines = ["[los_probabilities]"]
    for s in _REPORT_ORDER:
        lines.append(f"{s.name}={_safe_pearson(emp_state.probs[:, int(s)], model_state[:, int(s)])}")
    lines.append("[transition_probabilities]")
    for origin in _REPORT_ORDER:
        for target in _REPORT_ORDER:
            r = _safe_pearson(emp_trans.probs[:, int(origin), int(target)], model_trans[:, int(origin), int(target)])
            lines.append(f"{origin.name}->{target.name}={r}")
    return "\n".join(lines) + "\n"


def _refit_model(model: ScenarioModel, centers: np.ndarray, emp_state: BinnedProbs, emp_trans: BinnedProbs) -> ScenarioModel:
    def refit(block, probs, defined):
        """``block`` with each explicit curve refitted to its state's column over the defined bins."""
        explicit = {
            s: fit_same_family(spec, list(zip(centers[defined].tolist(), probs[defined, int(s)].tolist()))).spec
            for s, spec in block.explicit.items()
        }
        return dataclasses.replace(block, explicit=explicit)

    state_probs = refit(model.state_probs, emp_state.probs, emp_state.defined)
    rows = tuple(refit(row, emp_trans.probs[:, o], emp_trans.defined[:, o]) for o, row in enumerate(model.rows))
    return dataclasses.replace(model, state_probs=state_probs, rows=rows)


def _cmd_estimate(args: argparse.Namespace) -> int:
    model = _scenario(args)
    stats = accumulate(read_labeled_traces(args.traces))
    centers = bin_centers()
    emp_state = empirical_state_probs(stats)
    emp_trans = empirical_transition_probs(stats)

    if args.out_stats:
        lines = _provenance("estimate", scenario=model.tag, seed=args.seed)
        header = ["bin", "center", "n_los", "n_nlosv", "n_nlosb", "p_los", "p_nlosv", "p_nlosb", *_TRANSITION_COLUMNS]
        lines.append(",".join(header))
        for b in range(len(centers)):
            row = [str(b), f"{centers[b]:.6g}"]
            row += [str(int(stats.occupancy[b, int(s)])) for s in CANONICAL_STATES]
            row += [f"{emp_state.probs[b, int(s)]:.8g}" for s in CANONICAL_STATES]
            row += [f"{emp_trans.probs[b, i, j]:.8g}" for i in range(3) for j in range(3)]
            lines.append(",".join(row))
        _write_atomic(args.out_stats, "\n".join(lines) + "\n")
        print(f"wrote {args.out_stats}")

    report = "\n".join(_provenance("estimate", scenario=model.tag, seed=args.seed)) + "\n"
    report += _correlation_report(model, centers, emp_state, emp_trans)
    if args.out_report:
        _write_atomic(args.out_report, report)
        print(f"wrote {args.out_report}")
    else:
        sys.stdout.write(report)

    if args.fit:
        refit = _refit_model(model, centers, emp_state, emp_trans)
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
        for flag, value in (("--d-min", args.d_min), ("--d-max", args.d_max)):
            if not math.isfinite(value):
                parser.error(f"{flag} must be finite, got {value:g}")
        if not args.d_min <= args.d_max:
            parser.error(f"--d-min {args.d_min:g} must not exceed --d-max {args.d_max:g}")
        if (args.d_max - args.d_min) / args.d_step >= _CURVES_MAX_ROWS:
            parser.error(f"--d-step {args.d_step:g} gives more than {_CURVES_MAX_ROWS} rows")
    if args.command == "estimate" and args.fit and not args.out_model:
        parser.error("--fit requires --out-model")
    try:
        return args.func(args)
    except V2vLosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
