"""Command-line front end.

Subcommands map onto the experiment kinds: ``generate`` materializes
tensors or sample batches, ``decompose`` runs recovery and
sample-complexity experiments, ``dynamics`` runs single-component
iteration studies (with or without a noise sweep), ``probe`` runs the
distributional and moment checks, and ``report`` re-renders a stored
run.  Exit codes: 0 success, 1 thresholds failed, 2 bad usage or bad
config (a degenerate tensor, on which a power update vanishes, counts as
bad input), 3 resource exhaustion.
"""

import argparse
import sys

from .errors import DegenerateIterateError, InvalidArgumentError, ResourceBudgetError
from .experiments import load_config, load_run, render_report, run_experiment, run_generate
from .rng import thread_count

_KINDS_FOR = {
    "generate": ("generate",),
    "decompose": ("recovery", "sample-complexity"),
    "dynamics": ("dynamics", "noise-sweep"),
    "probe": ("probe",),
}


def _add_run_flags(sub):
    sub.add_argument("--config", required=True, help="path to a JSON config")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the config's base seed")
    sub.add_argument("--out", default=None,
                     help="override the config's output directory")
    sub.add_argument("--threads", type=int, default=None,
                     help="worker count (default: TPI_THREADS or 1)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tpi",
        description="overcomplete third-order tensor power iteration toolkit")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("generate", "decompose", "dynamics", "probe"):
        sub = subs.add_parser(name, help=f"run a {name} config")
        _add_run_flags(sub)
    rep = subs.add_parser("report", help="re-render a stored run")
    rep.add_argument("run_dir", help="directory holding config.json and report.json")
    rep.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def cli(argv=None):
    """Parse argv and run; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)

    try:
        if args.command == "report":
            _, report = load_run(args.run_dir)
            sys.stdout.write(render_report(report, args.format))
            return 0
        thread_count(args.threads)
        config = load_config(args.config, seed=args.seed, out=args.out)
        expected = _KINDS_FOR[args.command]
        if config.kind not in expected:
            raise InvalidArgumentError(
                f"'tpi {args.command}' takes a {' or '.join(expected)} "
                f"config, got kind {config.kind!r}")
        if args.command == "generate":
            manifest = run_generate(config)
            sys.stdout.write(
                f"generated {manifest['what']} in {config.out} "
                f"(config_hash={manifest['config_hash'][:12]})\n")
            return 0
        report = run_experiment(config, threads=args.threads)
        sys.stdout.write(
            f"{config.kind}: {'PASS' if report.passed else 'FAIL'} "
            f"({report.seed_count} seed(s), {report.wall_clock_s:.2f}s, "
            f"config_hash={report.config_hash[:12]})\n")
        if report.regime_violation:
            sys.stdout.write(
                "note: k >= d^1.5 lies outside the analyzed regime; "
                "results reported anyway\n")
        return 0 if report.passed else 1
    except (InvalidArgumentError, DegenerateIterateError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ResourceBudgetError, MemoryError, OSError) as exc:
        sys.stderr.write(f"resource error: {exc}\n")
        return 3


def main():
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
