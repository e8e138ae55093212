"""Command-line front end.

Four verbs over a shared model-file format:

* ``moments``   - factorial and raw moments of the customer count.
* ``simulate``  - replication estimates of the factorial moments.
* ``validate``  - every structural identity check that applies to the model,
  the verdicts of ``mminfenv.checks.structural_checks`` against their
  fixed gates.
* ``compare``   - analytic moments against simulation, the verdicts of
  ``mminfenv.checks.simulation_checks``; it passes when the occupancy
  weighting, the law the simulation samples, is consistent.

Each verb loads its model once, and the model carries the chain statics
every layer reads, so ``compare``'s table and simulation share them.
Exit codes are a stable contract: 0 success/pass, 1 check failure,
2 input error, 3 numeric or estimation error, which includes a model
whose embedded stationary law cannot be certified.  Reports are deterministic
given (model, flags, seed); ``--out`` writes the same content as JSON.
The record states each setting once, in its top-level ``config``, with
the value the run used (a defaulted warmup or horizon, the sampling
interval, which is always the mean cycle, and the gates of ``validate``
included); its ``table``, ``simulation`` and ``verdicts`` hold results
only.  Only ``simulate`` and ``compare`` import the simulator, and only
``--out`` the ``json`` module, so a ``moments`` run loads neither.
"""

import argparse
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .checks import TOLERANCES, Z_MAX, simulation_checks, structural_checks
from .errors import EstimationError, NumericError
from .modelfile import load_model, model_to_dict
from .moments import WEIGHTINGS, compute_moment_table

__all__ = ["main", "entry_point", "RunReport"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERIC_ERROR = 3


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
    return value


def _fmt(value) -> str:
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


def _check_simulation_order(args) -> None:
    from .sim import MAX_ESTIMATED_ORDER

    if not 1 <= args.order <= MAX_ESTIMATED_ORDER:
        raise ValueError(
            f"{args.command} needs --order from 1 to at most {MAX_ESTIMATED_ORDER} "
            f"(simulation cap), got {args.order}"
        )


def _table_dict(table) -> dict:
    return {
        "factorial": {w: table.aggregated[w] for w in table.aggregated},
        "raw": {w: table.raw[w] for w in table.raw},
        "palm_vectors": [v for v in table.palm],
        "stationary_vectors": [v for v in table.stationary],
        "bn_condition": table.bn_condition,
        "solve_residual": table.solve_residual,
        "palm_steps": table.palm_steps,
        "statics_steps": table.statics_steps,
        "conservation_residuals": table.conservation_residuals,
    }


def cmd_moments(args) -> tuple:
    model = load_model(args.model)
    table = compute_moment_table(model, n_max=args.order)
    report = RunReport(
        command="moments",
        model=model_to_dict(model),
        config={"order": args.order, "weighting": args.weighting},
        table=_table_dict(table),
    )
    report.lines.append(f"moments of the customer count (orders 0..{args.order})")
    shown = WEIGHTINGS if args.weighting == "both" else (args.weighting,)
    headers = ["order"] + [f"f_N[{w}]" for w in shown] + [f"m_N[{w}]" for w in shown]
    rows = [
        [n] + [_fmt(table.aggregated[w][n]) for w in shown] + [_fmt(table.raw[w][n]) for w in shown]
        for n in range(args.order + 1)
    ]
    report.lines.extend(_format_table(headers, rows))
    return report, EXIT_OK


def _run_simulation(args, model):
    """Fill in the default warmup and horizon, then run the estimate; its config is the resolved one."""
    from .sim import SimulationConfig, default_warmup, estimate_factorial_moments

    warmup = args.warmup if args.warmup is not None else default_warmup(model)
    horizon = args.horizon if args.horizon is not None else warmup + 200.0 * model.statics.cycle_length
    config = SimulationConfig(
        warmup=warmup,
        horizon=horizon,
        replications=args.reps,
        master_seed=args.seed,
        n_est=args.order,
    )
    return estimate_factorial_moments(model, config)


def _simulation_echo(config, model) -> dict:
    """The report's ``config`` entries of a simulation, as the run used them."""
    return {
        "order": config.n_est,
        "seed": config.master_seed,
        "replications": config.replications,
        "warmup": config.warmup,
        "horizon": config.horizon,
        "sampling_interval": model.statics.cycle_length,
    }


def cmd_simulate(args) -> tuple:
    _check_simulation_order(args)
    model = load_model(args.model)
    estimate = _run_simulation(args, model)
    config = estimate.config
    report = RunReport(
        command="simulate",
        model=model_to_dict(model),
        config=_simulation_echo(config, model),
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


def cmd_validate(args) -> tuple:
    model = load_model(args.model)
    table = compute_moment_table(model, n_max=args.order)
    verdicts = structural_checks(model, table)

    report = RunReport(
        command="validate",
        model=model_to_dict(model),
        config={"order": args.order, "tolerances": dict(TOLERANCES)},
        table=_table_dict(table),
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
    _check_simulation_order(args)
    model = load_model(args.model)
    if not (math.isfinite(args.z_max) and args.z_max >= 0.0):
        raise ValueError(f"--z-max must be finite and nonnegative, got {args.z_max}")
    table = compute_moment_table(model, n_max=args.order)
    estimate = _run_simulation(args, model)

    verdicts, z_scores = simulation_checks(table, estimate, args.z_max)
    consistent = [w for w, v in zip(WEIGHTINGS, verdicts) if v.passed]

    report = RunReport(
        command="compare",
        model=model_to_dict(model),
        config={**_simulation_echo(estimate.config, model), "z_max": args.z_max},
        table=_table_dict(table),
        simulation=estimate.to_dict(),
        verdicts=verdicts,
    )
    report.lines.append(
        f"analytic vs simulated factorial moments (orders 1..{args.order}, "
        f"{estimate.config.replications} replications)"
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
    # the simulation samples at fixed times, so occupancy is the law it observes
    occupancy = verdicts[WEIGHTINGS.index("occupancy")]
    if not occupancy.passed:
        report.lines.append(
            "the occupancy weighting is not consistent with the simulation; this signals a bug, "
            "not a tolerance issue"
        )
    return report, EXIT_OK if occupancy.passed else EXIT_CHECK_FAILED


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

    sub = commands.add_parser("compare", help="adjudicate the weighting against simulation")
    add_common(sub, order_default=3)
    add_sim_flags(sub)
    sub.add_argument("--z-max", dest="z_max", type=float, default=Z_MAX,
                     help="largest acceptable |analytic - estimate| / std.err")

    return parser


# main's own parser, built on its first call and reused; build_parser()
# still hands every other caller a fresh one to extend
_parser = lru_cache(maxsize=None)(build_parser)


COMMANDS = {
    "moments": cmd_moments,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report, code = COMMANDS[args.command](args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    except ValueError as exc:
        # ModelError, an order beyond the cap, or a simulation flag or --z-max out of range
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    if args.out:
        import json

        payload = report.to_dict()
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True, indent=2)
                handle.write("\n")
        except OSError as exc:
            print(f"input error: cannot write report to {args.out}: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    sys.stdout.write(report.to_text())
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
