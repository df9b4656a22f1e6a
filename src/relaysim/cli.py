"""Command-line sweeps over the relay uplink scenario space.

Each subcommand evaluates a grid of scenarios and emits a CSV with a header
row, one row per grid point, and a trailing metadata comment block, so any
output file is reproducible from its own contents.  All randomness flows
through substreams keyed by the seed and fixed tags, never by grid
position, which keeps outputs byte-identical across reruns, grid reshapes,
and worker counts. Rate trials are keyed by (seed, "rate-trial", t)
alone, so rate points whose trials draw the same shapes reuse the same
normals; mse-sweep points by (seed, "mse-sweep", hop, bits, power), the
power to 6 significant digits. A seed outside [0, 2**64) and two distinct
powers with the same key are refused, since either would alias streams.
"""

import argparse
import itertools
import os
import re
import sys

from . import __version__
from . import config as cfg
from . import estimation, link, validate
from .analysis import asymptotic_sum_rate, power_scaling_limit, sum_rate_approx
from .channel import substream
from .errors import ConfigError, NumericalError
from .quantizer import IDEAL, bits_label


def _format_value(value):
    """A CSV cell: a label, an int (N, bits), IDEAL or a float."""
    if value is IDEAL:
        return bits_label(value)
    return str(value) if isinstance(value, (str, int)) else repr(float(value))


def _entries(flag, text):
    """The non-empty comma-separated entries of flag's sweep list."""
    entries = [entry for entry in text.split(",") if entry.strip()]
    if not entries:
        raise ConfigError(f"{flag}: empty sweep value list")
    return entries


def write_csv(stream, header, rows, scenario):
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_format_value(v) for v in row) + "\n")
    stream.write(f"# seed={scenario.seed}\n")
    stream.write(f"# trials={scenario.trials}\n")
    stream.write(f"# version={__version__}\n")
    stream.write(f"# config={scenario.canonical_json()}\n")


def _check_out(path):
    """Refuse an --out path no CSV can be written to, before any point runs."""
    target = path if os.path.exists(path) else os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise ConfigError(f"cannot write --out {path}")


def _emit(args, header, rows, scenario):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_csv(fh, header, rows, scenario)
    else:
        write_csv(sys.stdout, header, rows, scenario)


def _base_scenario(args):
    base = cfg.table_defaults()
    if args.config:
        base = cfg.load_scenario_file(args.config, base=base)
    flags = {"seed": args.seed, "trials": args.trials}
    return cfg.scenario_from_mapping(
        {field: token for field, token in flags.items() if token is not None}, base=base)


def cmd_mse_sweep(args) -> int:
    scn = _base_scenario(args)
    grid = [(float(tokens["P1-dB"]), point) for tokens, point in _grid_points(
        args, (("--bits", "q1 q2"), ("--powers-db", "P1-dB P2-dB")), scn)]
    # a point's stream is keyed by its power to 6 significant digits (:g)
    for one, other in itertools.combinations(dict.fromkeys(db for db, _ in grid), 2):
        if f"{one:g}" == f"{other:g}":
            raise ConfigError(f"--powers-db values {one!r} and {other!r} share the stream "
                              f"key {one:g}; they would draw the same normals")
    rows = []
    for name, hop in zip(("first", "second"), cfg.scenario_hops(scn)):
        if args.hop not in (name, "both"):
            continue
        for power_db, point in grid:
            adc, power = (point.adc1, point.P1) if name == "first" else (point.adc2, point.P2)
            rng = substream(scn.seed, "mse-sweep", name, bits_label(adc.bits), f"{power_db:g}")
            closed = estimation.mse_closed_form(hop, adc, power) / (scn.K * hop.shape[0])
            sim, stderr = estimation.pilot_mse(hop, adc, power, scn.trials, rng)
            rows.append((name, power_db, adc.bits, sim, stderr, closed))
    header = ("hop", "axis_value", "q", "mse_sim", "mse_sim_stderr", "mse_closed")
    _emit(args, header, rows, scn)
    return 0


def _rate_pair(scn, args):
    """(closed rate, mc rate, mc ci) honoring the engine selection flags.

    Both engines share one pair of estimate models.
    """
    closed = mc = ci = float("nan")
    models = cfg.scenario_models(scn)
    if not args.mc_only:
        closed = sum_rate_approx(scn, models=models).sum_rate
    if not args.closed_form_only:
        report = link.ergodic_sum_rate_mc(scn, models=models)
        mc, ci = report.sum_rate, report.ci_halfwidth
    return closed, mc, ci


def _relative_gap(point, cells):
    """|mc - closed| / closed, NaN when a rate is missing or the closed rate is 0."""
    closed = cells["rate_closed"]
    return abs(cells["rate_mc"] - closed) / closed if closed > 0.0 else float("nan")


# CSV columns that are neither a scenario field nor one of the two engines' rates
_DERIVED = {
    "rel_gap": _relative_gap,
    "regime": lambda point, cells: power_scaling_limit(point)[0],
    "rate_limit": lambda point, cells: asymptotic_sum_rate(point),
}

# The rate subcommands: help, grid axes outermost first, CSV columns. Each
# axis is (flag, the scenario fields one value sets, default, help), the
# fields spelled as a value is: "a:b" takes a left:right pair that sets a and
# b, "q1 q2" one value that sets both.
_RATE_SWEEPS = {
    "rate-vs-n": ("sum rate vs antenna count", (
        ("--n-values", "N", "64,128,256", None),
        ("--bits", "q1 q2", "1,2,ideal", "resolutions applied to both hops"),
    ), ("N", "q1", "q2", "rate_mc", "rate_mc_ci", "rate_closed", "rel_gap")),
    "power-scaling": ("rate vs N under scaled powers", (
        ("--exponents", "a:b", "1:1", "comma-separated a:b exponent pairs"),
        ("--n-values", "N", "128,256,512,1024", None),
    ), ("N", "a", "b", "rate_closed", "rate_mc", "rate_mc_ci", "regime", "rate_limit")),
    "correlation-impact": ("rate vs correlation split", (
        ("--deltas", "delta", "0.5,2", None),
        ("--coefficients", "r_R:r_B", "0:0.8,0.8:0", "comma-separated r_R:r_B pairs"),
        ("--n-values", "N", "200", None),
    ), ("N", "delta", "r_R", "r_B", "rate_closed", "rate_mc", "rate_mc_ci")),
    "adc-impact": ("rate vs per-hop ADC resolution", (
        ("--deltas", "delta", "0.5,2", None),
        ("--bits-pairs", "q1:q2", "3:1,1:3", "comma-separated q1:q2 pairs"),
        ("--n-values", "N", "200", None),
    ), ("N", "delta", "q1", "q2", "rate_closed", "rate_mc", "rate_mc_ci")),
}


def _axis_points(flag, text, fields):
    """[{field: token}] of one grid axis, in the order its values are given."""
    sides = [side.split() for side in fields.split(":")]
    points = []
    for entry in _entries(flag, text):
        tokens = entry.split(":")
        if len(tokens) != len(sides):
            form = "a left:right pair" if len(sides) == 2 else "a single value"
            raise ConfigError(f"{flag}: expected {form}, got {entry.strip()!r}")
        points.append({field: token for side, token in zip(sides, tokens) for field in side})
    return points


def _grid_points(args, axes, base):
    """[(tokens, scenario)] of each point of the axes' product, outermost first, every
    scenario read as a config file's fields are, and so checked, before any point runs."""
    grids = [_axis_points(flag, getattr(args, flag.lstrip("-").replace("-", "_")), fields)
             for flag, fields, *_ in axes]
    combos = [{field: token for axis in combo for field, token in axis.items()}
              for combo in itertools.product(*grids)]
    return [(tokens, cfg.scenario_from_mapping(tokens, base=base)) for tokens in combos]


def cmd_rate_sweep(args) -> int:
    """One row per point of the product of the subcommand's axes."""
    _, axes, columns = _RATE_SWEEPS[args.command]
    scn = _base_scenario(args)
    rows = []
    for _, point in _grid_points(args, axes, scn):
        closed, mc, ci = _rate_pair(point, args)
        cells = dict(vars(point), rate_closed=closed, rate_mc=mc, rate_mc_ci=ci)
        rows.append(tuple(cells[c] if c in cells else _DERIVED[c](point, cells)
                          for c in columns))
    _emit(args, columns, rows, scn)
    return 0


def cmd_validate(args) -> int:
    results = validate.run_validation(seed=args.seed, name_filter=args.filter)
    if not results:
        print(f"no validation checks match filter {args.filter!r}", file=sys.stderr)
        return 1
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 3 if failed else 0


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1) and
    reads "-" then a digit or "." as a value: a sweep list such as "-10,0"."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="relaysim",
                     description="Quantized correlated MIMO relay uplink sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON scenario file layered over defaults")
        p.add_argument("--seed", help="base RNG seed")
        p.add_argument("--trials", help="Monte Carlo trials per point")
        p.add_argument("--out", help="CSV output path (default stdout)")

    p = sub.add_parser("mse-sweep", help="estimation MSE vs pilot power")
    common(p)
    p.add_argument("--powers-db", default="0,10,20,30,40")
    p.add_argument("--bits", default="1,2,3,ideal")
    p.add_argument("--hop", choices=("first", "second", "both"), default="both")
    p.set_defaults(func=cmd_mse_sweep)

    for name, (help_text, axes, _) in _RATE_SWEEPS.items():
        p = sub.add_parser(name, help=help_text)
        common(p)
        engine = p.add_mutually_exclusive_group()
        engine.add_argument("--closed-form-only", action="store_true",
                            help="skip the Monte Carlo engine")
        engine.add_argument("--mc-only", action="store_true",
                            help="skip the closed-form engine")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for old command lines (at least 1); "
                            "trials run the same way whatever its value")
        for flag, _, default, axis_help in axes:
            p.add_argument(flag, default=default, help=axis_help)
        p.set_defaults(func=cmd_rate_sweep)

    p = sub.add_parser("validate", help="run the oracle suite")
    p.add_argument("--seed", type=int, default=cfg.DEFAULT_SEED, help="base RNG seed")
    p.add_argument("--filter", help="run only checks whose name contains this")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "workers", 1) < 1:
            raise ConfigError(f"--workers must be at least 1, got {args.workers}")
        if getattr(args, "out", None):
            _check_out(args.out)
        status = args.func(args)
        sys.stdout.flush()      # a closed stdout is met here, not at exit
        return status
    except BrokenPipeError:
        # 128 + SIGPIPE, quietly: on devnull, the exit flush raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
