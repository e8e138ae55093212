"""Command-line front end.

Four verbs over a shared model-file format:

* ``moments``   - factorial and raw moments of the customer count.
* ``simulate``  - replication estimates of the factorial moments.
* ``validate``  - every structural identity check that applies to the model.
* ``compare``   - analytic moments against simulation, adjudicating the
  state-weighting question.

Exit codes are a stable contract: 0 success/pass, 1 check failure,
2 input error, 3 numeric or estimation error.  Reports are deterministic
given (model, flags, seed); ``--out`` writes the same content as JSON.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import closedform
from .distributions import Exponential, Gamma
from .environment import chain_statics, mean_cycle_length, validate_model
from .errors import EstimationError, ModelError, NumericError
from .modelfile import load_model, model_to_dict
from .moments import (
    compute_moment_table,
    forward_relation_residuals,
    markovian_identity_residuals,
    palm_moment_vectors,
    stationary_moment_vectors,
)
from .sim import SimulationConfig, default_warmup, estimate_factorial_moments

__all__ = ["main", "entry_point", "RunReport", "CheckVerdict"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERIC_ERROR = 3

DEFAULT_TOLERANCES = {
    "tol_identity": 1e-9,
    "tol_palm_match": 1e-12,
    "tol_closedform": 1e-8,
    "tol_kummer": 1e-9,
    "tol_gamma": 1e-10,
    "tol_solve": 1e-10,
    "z_max": 3.0,
}


@dataclass
class CheckVerdict:
    """One named check with its numeric residual; no verdict without a number."""

    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": _jsonify(self.residual),
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass
class RunReport:
    """Everything a command produced, printable and JSON-serializable."""

    command: str
    model: dict
    config: dict
    lines: list = field(default_factory=list)
    table: dict = None
    simulation: dict = None
    verdicts: list = field(default_factory=list)

    def to_text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "model": self.model,
            "config": _jsonify(self.config),
            "table": _jsonify(self.table),
            "simulation": _jsonify(self.simulation),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def _jsonify(value):
    """Recursively make a value JSON-clean; non-finite floats become None."""
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _fmt(value) -> str:
    if value is None:
        return "-"
    value = float(value)
    if math.isnan(value):
        return "-"
    return f"{value:.12g}"


def _format_table(headers, rows) -> list:
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for row in cells:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return lines


def _relative_gap(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    return float(np.max(np.abs(a - b) / scale))


def _load_and_check(path) -> tuple:
    model = load_model(path)
    violations = validate_model(model)
    if violations:
        raise ModelError(f"model file {path} is invalid: " + "; ".join(violations))
    return model, model_to_dict(model)


def _tolerances_from_args(args) -> dict:
    return {
        name: getattr(args, name, default) for name, default in DEFAULT_TOLERANCES.items()
    }


def _table_dict(table) -> dict:
    return {
        "n_max": table.n_max,
        "weighting_default": table.weighting,
        "factorial": {w: table.aggregated[w] for w in table.aggregated},
        "raw": {w: table.raw[w] for w in table.raw},
        "palm_vectors": [v for v in table.palm],
        "stationary_vectors": [v for v in table.stationary],
        "bn_condition": table.bn_condition,
        "solve_residual": table.solve_residual,
        "identity_residuals": dict(table.identity_residuals),
    }


def cmd_moments(args) -> tuple:
    model, model_echo = _load_and_check(args.model)
    weighting = args.weighting
    table = compute_moment_table(
        model, n_max=args.order, weighting="occupancy" if weighting == "both" else weighting
    )
    report = RunReport(
        command="moments",
        model=model_echo,
        config={"order": args.order, "weighting": weighting},
        table=_table_dict(table),
    )
    report.lines.append(f"moments of the customer count (orders 0..{args.order})")
    if weighting == "both":
        headers = ["order", "f_N[embedded]", "f_N[occupancy]", "m_N[embedded]", "m_N[occupancy]"]
        rows = [
            [
                n,
                _fmt(table.aggregated["embedded"][n]),
                _fmt(table.aggregated["occupancy"][n]),
                _fmt(table.raw["embedded"][n]),
                _fmt(table.raw["occupancy"][n]),
            ]
            for n in range(args.order + 1)
        ]
    else:
        headers = ["order", f"f_N[{weighting}]", f"m_N[{weighting}]"]
        rows = [
            [n, _fmt(table.aggregated[weighting][n]), _fmt(table.raw[weighting][n])]
            for n in range(args.order + 1)
        ]
    report.lines.extend(_format_table(headers, rows))
    return report, EXIT_OK


def _resolved_config(args, model, statics) -> SimulationConfig:
    warmup = args.warmup if args.warmup is not None else default_warmup(model)
    cycle = mean_cycle_length(model, statics)
    horizon = args.horizon if args.horizon is not None else warmup + 200.0 * cycle
    return SimulationConfig(
        warmup=warmup,
        horizon=horizon,
        replications=args.reps,
        master_seed=args.seed,
        sampling_interval=args.interval,
        n_est=args.order,
    )


def cmd_simulate(args) -> tuple:
    model, model_echo = _load_and_check(args.model)
    if args.order > 6:
        raise ModelError(f"simulation estimates orders up to 6, got --order {args.order}")
    statics = chain_statics(model)
    config = _resolved_config(args, model, statics)
    estimate = estimate_factorial_moments(model, config)
    report = RunReport(
        command="simulate",
        model=model_echo,
        config={
            "order": args.order,
            "seed": args.seed,
            "replications": args.reps,
            "warmup": config.warmup,
            "horizon": config.horizon,
            "sampling_interval": config.resolved_interval(model, statics),
        },
        simulation=estimate.to_dict(),
    )
    report.lines.append(
        f"simulation estimate: {config.replications} replications, "
        f"{estimate.samples_per_replication} samples each, seed {config.master_seed}"
    )
    rows = [
        [n, _fmt(estimate.estimates[n]), _fmt(estimate.standard_errors[n])]
        for n in range(config.n_est + 1)
    ]
    report.lines.extend(_format_table(["order", "estimate f_N", "std.err"], rows))
    report.lines.append(
        "empirical occupancy: "
        + "  ".join(_fmt(x) for x in estimate.occupancy)
    )
    return report, EXIT_OK


def _closedform_verdicts(model, palm, order, tolerances) -> list:
    """Two-state closed-form checks, when the model is in scope."""
    verdicts = []
    try:
        two_state, swapped = closedform.from_environment(model)
    except ModelError:
        return verdicts
    depth = min(order, 8)
    reference_1, reference_2 = closedform.palm_moments(two_state, depth)
    first, second = (1, 0) if swapped else (0, 1)
    computed_1 = np.array([palm.vectors[n][first] for n in range(depth + 1)])
    computed_2 = np.array([palm.vectors[n][second] for n in range(depth + 1)])
    gap = max(_relative_gap(computed_1, reference_1), _relative_gap(computed_2, reference_2))
    verdicts.append(CheckVerdict("two-state-closed-form", gap, tolerances["tol_closedform"]))

    if isinstance(two_state.sojourn_1, Exponential):
        shifted_1, _ = closedform.shifted_palm_moments(two_state, depth)
        kummer = closedform.kummer_reference(
            a=two_state.sojourn_1.rate / two_state.service_rate_1,
            b=two_state.exit_rate_2 / two_state.service_rate_2,
            rho_star=two_state.rho_star,
            n_max=depth,
        )
        verdicts.append(
            CheckVerdict("kummer-sequence", _relative_gap(shifted_1, kummer), tolerances["tol_kummer"])
        )
    if isinstance(two_state.sojourn_1, Gamma):
        shifted_1, _ = closedform.shifted_palm_moments(two_state, depth)
        gamma_form = closedform.gamma_sojourn_reference(two_state, depth)
        verdicts.append(
            CheckVerdict("gamma-product-formula", _relative_gap(shifted_1, gamma_form), tolerances["tol_gamma"])
        )
    return verdicts


def cmd_validate(args) -> tuple:
    model, model_echo = _load_and_check(args.model)
    tolerances = _tolerances_from_args(args)
    statics = chain_statics(model)
    palm = palm_moment_vectors(model, statics, n_max=args.order)
    stationary = stationary_moment_vectors(model, statics, palm)

    verdicts = []
    solve_gap = float(np.nanmax(palm.solve_residual)) if args.order >= 1 else 0.0
    if args.order >= 1 and not np.all(np.isfinite(palm.condition[1:])):
        solve_gap = float("inf")
    verdicts.append(CheckVerdict("solve-backsubstitution", solve_gap, tolerances["tol_solve"]))

    forward = forward_relation_residuals(model, statics, palm)
    verdicts.append(CheckVerdict("forward-relation", float(np.max(forward)), tolerances["tol_identity"]))

    markovian = markovian_identity_residuals(model, statics, stationary)
    if markovian is not None:
        verdicts.append(
            CheckVerdict("markovian-identity", float(np.max(markovian)), tolerances["tol_identity"])
        )
        palm_gap = max(
            _relative_gap(stationary[n], palm.vectors[n]) for n in range(len(stationary))
        )
        verdicts.append(
            CheckVerdict("exponential-palm-match", palm_gap, tolerances["tol_palm_match"])
        )

    verdicts.extend(_closedform_verdicts(model, palm, args.order, tolerances))

    report = RunReport(
        command="validate",
        model=model_echo,
        config={"order": args.order, "tolerances": tolerances},
        verdicts=verdicts,
    )
    report.lines.append(f"structural checks at orders 0..{args.order}")
    rows = [
        [v.name, _fmt(v.residual), _fmt(v.tolerance), "PASS" if v.passed else "FAIL"]
        for v in verdicts
    ]
    report.lines.extend(_format_table(["check", "residual", "tolerance", "verdict"], rows))
    all_passed = all(v.passed for v in verdicts)
    report.lines.append(f"overall: {'PASS' if all_passed else 'FAIL'}")
    return report, EXIT_OK if all_passed else EXIT_CHECK_FAILED


def cmd_compare(args) -> tuple:
    model, model_echo = _load_and_check(args.model)
    if args.order > 6:
        raise ModelError(
            f"compare needs --order at most 6 (simulation cap), got {args.order}"
        )
    tolerances = _tolerances_from_args(args)
    statics = chain_statics(model)
    table = compute_moment_table(model, n_max=args.order, statics=statics, with_checks=False)
    config = _resolved_config(args, model, statics)
    estimate = estimate_factorial_moments(model, config)

    z_scores = {}
    for weighting in ("embedded", "occupancy"):
        analytic = table.aggregated[weighting][1 : args.order + 1]
        simulated = estimate.estimates[1 : args.order + 1]
        errors = estimate.standard_errors[1 : args.order + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.abs(analytic - simulated) / errors
        z = np.where(errors > 0.0, z, np.where(np.abs(analytic - simulated) < 1e-12, 0.0, np.inf))
        z_scores[weighting] = z

    verdicts = [
        CheckVerdict(f"weighting-{w}-consistent", float(np.max(z_scores[w])), tolerances["z_max"])
        for w in ("embedded", "occupancy")
    ]
    consistent = [w for w in ("embedded", "occupancy") if np.max(z_scores[w]) <= tolerances["z_max"]]

    report = RunReport(
        command="compare",
        model=model_echo,
        config={
            "order": args.order,
            "seed": args.seed,
            "replications": args.reps,
            "warmup": config.warmup,
            "horizon": config.horizon,
            "sampling_interval": config.resolved_interval(model, statics),
            "z_max": tolerances["z_max"],
        },
        table=_table_dict(table),
        simulation=estimate.to_dict(),
        verdicts=verdicts,
    )
    report.lines.append(
        f"analytic vs simulated factorial moments (orders 1..{args.order}, "
        f"{config.replications} replications)"
    )
    rows = []
    for n in range(1, args.order + 1):
        rows.append(
            [
                n,
                _fmt(table.aggregated["embedded"][n]),
                _fmt(table.aggregated["occupancy"][n]),
                _fmt(estimate.estimates[n]),
                _fmt(estimate.standard_errors[n]),
                _fmt(z_scores["embedded"][n - 1]),
                _fmt(z_scores["occupancy"][n - 1]),
            ]
        )
    report.lines.extend(
        _format_table(
            ["order", "f_N[embedded]", "f_N[occupancy]", "estimate", "std.err", "z[embedded]", "z[occupancy]"],
            rows,
        )
    )
    if consistent:
        report.lines.append("consistent weighting(s): " + ", ".join(consistent))
        code = EXIT_OK
    else:
        report.lines.append(
            "neither weighting is consistent with the simulation; this signals a bug, "
            "not a tolerance issue"
        )
        code = EXIT_CHECK_FAILED
    return report, code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mminfenv",
        description="moments of an infinite-server queue in a semi-Markov random environment",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub, order_default):
        sub.add_argument("--model", required=True, help="path to a model file (YAML)")
        sub.add_argument("--order", type=int, default=order_default, help="highest moment order")
        sub.add_argument("--out", default=None, help="write the full report as JSON to this path")

    def add_sim_flags(sub):
        sub.add_argument("--seed", type=int, default=12345, help="master seed (64-bit)")
        sub.add_argument("--reps", type=int, default=8, help="number of replications")
        sub.add_argument("--horizon", type=float, default=None, help="per-replication horizon")
        sub.add_argument("--warmup", type=float, default=None, help="discarded warmup window")
        sub.add_argument(
            "--interval", type=float, default=None, help="sampling interval (default: mean cycle)"
        )

    sub = commands.add_parser("moments", help="analytic factorial and raw moments")
    add_common(sub, order_default=5)
    sub.add_argument(
        "--weighting",
        choices=["embedded", "occupancy", "both"],
        default="both",
        help="state-weighting for the final moments",
    )

    sub = commands.add_parser("simulate", help="replication estimates of factorial moments")
    add_common(sub, order_default=3)
    add_sim_flags(sub)

    sub = commands.add_parser("validate", help="run every applicable structural check")
    add_common(sub, order_default=6)
    sub.add_argument("--tol-identity", dest="tol_identity", type=float,
                     default=DEFAULT_TOLERANCES["tol_identity"],
                     help="tolerance for the routing-identity residuals")
    sub.add_argument("--tol-palm-match", dest="tol_palm_match", type=float,
                     default=DEFAULT_TOLERANCES["tol_palm_match"],
                     help="tolerance for Palm/stationary equality under exponential sojourns")
    sub.add_argument("--tol-closedform", dest="tol_closedform", type=float,
                     default=DEFAULT_TOLERANCES["tol_closedform"],
                     help="relative tolerance for the two-state closed form")
    sub.add_argument("--tol-kummer", dest="tol_kummer", type=float,
                     default=DEFAULT_TOLERANCES["tol_kummer"],
                     help="relative tolerance for the Kummer coefficient sequence")
    sub.add_argument("--tol-gamma", dest="tol_gamma", type=float,
                     default=DEFAULT_TOLERANCES["tol_gamma"],
                     help="relative tolerance for the gamma product formula")
    sub.add_argument("--tol-solve", dest="tol_solve", type=float,
                     default=DEFAULT_TOLERANCES["tol_solve"],
                     help="tolerance for linear-solve back-substitution residuals")

    sub = commands.add_parser("compare", help="adjudicate the weighting against simulation")
    add_common(sub, order_default=3)
    add_sim_flags(sub)
    sub.add_argument("--z-max", dest="z_max", type=float, default=DEFAULT_TOLERANCES["z_max"],
                     help="largest acceptable |analytic - estimate| / std.err")

    return parser


COMMANDS = {
    "moments": cmd_moments,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = COMMANDS[args.command](args)
    except ModelError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    except ValueError as exc:
        # e.g. an order beyond the supported cap
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    sys.stdout.write(report.to_text())
    if args.out:
        payload = report.to_dict()
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
