"""Command-line sweeps over the relay uplink scenario space.

Each subcommand evaluates a grid of scenarios and emits a CSV with a header
row, one row per grid point, and a trailing metadata comment block, so any
output file is reproducible from its own contents.  All randomness flows
through per-point substreams keyed by seed and grid values, never by grid
position, which keeps outputs byte-identical across reruns, grid reshapes,
and worker counts.
"""

import argparse
import os
import sys

import numpy as np

from . import __version__
from . import config as cfg
from . import estimation, link, validate
from .analysis import asymptotic_sum_rate, power_scaling_limit, sum_rate_approx
from .channel import substream
from .errors import ConfigError, NumericalError
from .quantizer import AdcSpec, bits_label


def _format_value(value):
    """A CSV cell: a label, an int (N) or a float."""
    return str(value) if isinstance(value, (str, int)) else repr(float(value))


def _convert(kind, token):
    """kind(token), with an unreadable or non-finite token reported as a
    ConfigError."""
    try:
        value = kind(token)
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"unreadable sweep value {token.strip()!r}")
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"sweep value {token.strip()!r} is not finite")
    return value


def _parse_list(text, kind=float):
    values = [_convert(kind, tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ConfigError("empty sweep value list")
    return values


def _parse_pairs(text, kind=float, sep=":"):
    pairs = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        left, _, right = tok.partition(sep)
        if not right:
            raise ConfigError(f"expected left{sep}right pair, got {tok!r}")
        pairs.append((_convert(kind, left), _convert(kind, right)))
    if not pairs:
        raise ConfigError("empty sweep pair list")
    return pairs


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
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.trials is not None:
        updates["trials"] = args.trials
    if updates:
        base = base.with_updates(**updates)
    return base


def cmd_mse_sweep(args) -> int:
    scn = _base_scenario(args)
    powers_db = _parse_list(args.powers_db)
    bits_grid = _parse_list(args.bits, lambda token: cfg.parse_adc_bits(token, "--bits"))
    names = ("first", "second") if args.hop == "both" else (args.hop,)
    stats = dict(zip(("first", "second"), cfg.scenario_hops(scn)))
    rows = []
    for name in names:
        hop = stats[name]
        for bits in bits_grid:
            adc = AdcSpec.from_bits(bits)
            for power_db in powers_db:
                power = 10.0 ** (power_db / 10.0)
                rng = substream(scn.seed, "mse-sweep", name,
                                bits_label(bits), f"{power_db:g}")
                closed = estimation.mse_closed_form(hop, adc, power) / (scn.K * hop.shape[0])
                sim, stderr = estimation.pilot_mse(hop, adc, power, scn.trials, rng)
                rows.append((name, power_db, bits_label(bits), sim, stderr, closed))
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
        report = link.ergodic_sum_rate_mc(scn, workers=args.workers, models=models)
        mc, ci = report.sum_rate, report.ci_halfwidth
    return closed, mc, ci


def cmd_rate_vs_n(args) -> int:
    scn = _base_scenario(args)
    n_values = _parse_list(args.n_values, int)
    bits_grid = _parse_list(args.bits, lambda token: cfg.parse_adc_bits(token, "--bits"))
    rows = []
    for n in n_values:
        for bits in bits_grid:
            point = scn.with_updates(N=n, q1=bits, q2=bits)
            closed, mc, ci = _rate_pair(point, args)
            gap = abs(mc - closed) / closed if closed == closed else float("nan")
            rows.append((n, bits_label(bits), bits_label(bits),
                         mc, ci, closed, gap))
    header = ("N", "q1", "q2", "rate_mc", "rate_mc_ci", "rate_closed", "rel_gap")
    _emit(args, header, rows, scn)
    return 0


def cmd_power_scaling(args) -> int:
    scn = _base_scenario(args)
    n_values = _parse_list(args.n_values, int)
    exponents = _parse_pairs(args.exponents)
    rows = []
    for a, b in exponents:
        limit = scn.with_updates(a=a, b=b)
        regime = power_scaling_limit(limit, 0).regime
        asymptote = asymptotic_sum_rate(limit)
        for n in n_values:
            point = scn.with_updates(N=n, a=a, b=b)
            closed, mc, ci = _rate_pair(point, args)
            rows.append((n, a, b, closed, mc, ci, regime, asymptote))
    header = ("N", "a", "b", "rate_closed", "rate_mc", "rate_mc_ci",
              "regime", "rate_limit")
    _emit(args, header, rows, scn)
    return 0


def cmd_correlation_impact(args) -> int:
    scn = _base_scenario(args)
    n_values = _parse_list(args.n_values, int)
    deltas = _parse_list(args.deltas)
    coefficients = _parse_pairs(args.coefficients)
    rows = []
    for delta in deltas:
        for r_r, r_b in coefficients:
            for n in n_values:
                point = scn.with_updates(N=n, delta=delta, r_R=r_r, r_B=r_b)
                closed, mc, ci = _rate_pair(point, args)
                rows.append((n, delta, r_r, r_b, closed, mc, ci))
    header = ("N", "delta", "r_R", "r_B", "rate_closed", "rate_mc", "rate_mc_ci")
    _emit(args, header, rows, scn)
    return 0


def cmd_adc_impact(args) -> int:
    scn = _base_scenario(args)
    n_values = _parse_list(args.n_values, int)
    deltas = _parse_list(args.deltas)
    pairs = _parse_pairs(args.bits_pairs,
                         lambda token: cfg.parse_adc_bits(token, "--bits-pairs"))
    rows = []
    for delta in deltas:
        for q1, q2 in pairs:
            for n in n_values:
                point = scn.with_updates(N=n, delta=delta, q1=q1, q2=q2)
                closed, mc, ci = _rate_pair(point, args)
                rows.append((n, delta, bits_label(q1), bits_label(q2),
                             closed, mc, ci))
    header = ("N", "delta", "q1", "q2", "rate_closed", "rate_mc", "rate_mc_ci")
    _emit(args, header, rows, scn)
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
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="relaysim",
                     description="Quantized correlated MIMO relay uplink sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON scenario file layered over defaults")
        p.add_argument("--seed", type=int, help="base RNG seed")
        p.add_argument("--trials", type=int, help="Monte Carlo trials per point")
        p.add_argument("--out", help="CSV output path (default stdout)")

    def rate(p):
        common(p)
        p.add_argument("--closed-form-only", action="store_true",
                       help="skip the Monte Carlo engine")
        p.add_argument("--mc-only", action="store_true",
                       help="skip the closed-form engine")
        p.add_argument("--workers", type=int, default=1,
                       help="threads for Monte Carlo trials")

    p = sub.add_parser("mse-sweep", help="estimation MSE vs pilot power")
    common(p)
    p.add_argument("--powers-db", default="0,10,20,30,40")
    p.add_argument("--bits", default="1,2,3,ideal")
    p.add_argument("--hop", choices=("first", "second", "both"), default="both")
    p.set_defaults(func=cmd_mse_sweep)

    p = sub.add_parser("rate-vs-n", help="sum rate vs antenna count")
    rate(p)
    p.add_argument("--n-values", default="64,128,256")
    p.add_argument("--bits", default="1,2,ideal",
                   help="resolutions applied to both hops")
    p.set_defaults(func=cmd_rate_vs_n)

    p = sub.add_parser("power-scaling", help="rate vs N under scaled powers")
    rate(p)
    p.add_argument("--n-values", default="128,256,512,1024")
    p.add_argument("--exponents", default="1:1",
                   help="comma-separated a:b exponent pairs")
    p.set_defaults(func=cmd_power_scaling)

    p = sub.add_parser("correlation-impact", help="rate vs correlation split")
    rate(p)
    p.add_argument("--n-values", default="200")
    p.add_argument("--deltas", default="0.5,2")
    p.add_argument("--coefficients", default="0:0.8,0.8:0",
                   help="comma-separated r_R:r_B pairs")
    p.set_defaults(func=cmd_correlation_impact)

    p = sub.add_parser("adc-impact", help="rate vs per-hop ADC resolution")
    rate(p)
    p.add_argument("--n-values", default="200")
    p.add_argument("--deltas", default="0.5,2")
    p.add_argument("--bits-pairs", default="3:1,1:3",
                   help="comma-separated q1:q2 pairs")
    p.set_defaults(func=cmd_adc_impact)

    p = sub.add_parser("validate", help="run the oracle suite")
    p.add_argument("--seed", type=int, default=cfg.DEFAULT_SEED, help="base RNG seed")
    p.add_argument("--filter", help="run only checks whose name contains this")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "closed_form_only", False) and getattr(args, "mc_only", False):
            raise ConfigError("--closed-form-only and --mc-only exclude each other")
        if getattr(args, "workers", 1) < 1:
            raise ConfigError(f"--workers must be at least 1, got {args.workers}")
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
