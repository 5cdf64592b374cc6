"""Command-line front end.

Exit codes: 0 on success, 1 for configuration problems (bad flags, bad config
file, bad law/potential specs, a run too large for memory), 2 for numerical
failures: a ``NumericalFailure`` (boundary safeguard, power-iteration cap,
certificate violation, replay mismatch) or a float overflow or NaN.  Seed
precedence: ``--seed`` beats the ``SPINLAB_SEED`` environment variable,
which beats the config file; the winner and ``--out`` are ``load_config``
overrides, so a command builds one config.  ``replay`` takes config and
seed from the run.
Every command runs its replicas serially; ``--threads`` is still accepted
and checked (values below 1 exit 1), and outputs are byte-identical at any
value.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, load_config
from .harness import (
    NumericalFailure,
    replay,
    run_freeze_sweep,
    run_lindeberg_suite,
    run_simulate,
    run_universality,
    run_validation,
)

__all__ = ["main"]

_COMMANDS = {
    "simulate": run_simulate,
    "universality": run_universality,
    "freeze-sweep": run_freeze_sweep,
    "validate": run_validation,
    "lindeberg": run_lindeberg_suite,
}


class _Parser(argparse.ArgumentParser):
    # usage errors are configuration errors: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config file (defaults apply when omitted)")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (overrides config output_dir)")
    common.add_argument("--seed", type=int, metavar="U64",
                        help="master seed override (beats SPINLAB_SEED)")
    common.add_argument("--threads", type=int, default=1, metavar="N",
                        help="accepted for compatibility; runs are serial and "
                             "byte-identical at any value >= 1")
    common.add_argument("--store-paths", action="store_true",
                        help="persist trajectories as .npy under <out>/paths")

    parser = _Parser(prog="spinlab",
                     description="soft-spin Langevin universality laboratory")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    sub.add_parser("simulate", parents=[common],
                   help="ensemble runs at the configured size")
    sub.add_parser("universality", parents=[common],
                   help="autocorrelation gaps across entry laws and sizes")
    sub.add_parser("freeze-sweep", parents=[common],
                   help="coupling error of the frozen scheme across kappa")
    sub.add_parser("validate", parents=[common],
                   help="entry-law moment and norm diagnostics")
    sub.add_parser("lindeberg", parents=[common],
                   help="comparison-bound certificate suite")
    rp = sub.add_parser("replay", help="re-derive one trajectory from a run directory")
    rp.add_argument("run_dir", help="directory written by a previous command")
    rp.add_argument("--law", required=True, help="law label from the run")
    rp.add_argument("--replica", type=int, required=True)
    rp.add_argument("--particle", type=int, default=None)
    rp.add_argument("--n", type=int, default=None,
                    help="system size (defaults to the config's n_particles)")
    rp.add_argument("--sample", type=int, default=0,
                    help="thermal sample index within the replica")
    return parser


def _resolve_seed(args) -> int | None:
    """The winning seed of ``--seed`` and ``SPINLAB_SEED``, checked once; None for neither."""
    source, seed = "--seed", args.seed
    if seed is None:
        source, seed = "SPINLAB_SEED", os.environ.get("SPINLAB_SEED")
    if seed is None:
        return None
    try:
        seed = int(seed)
    except ValueError as exc:
        raise ConfigError(f"{source} is not an integer: {seed!r}") from exc
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"{source} must fit in 64 bits")
    return seed


def _print_summary(summary) -> None:
    print(f"command: {summary.command}")
    print(f"config hash: {summary.config_hash}")
    print(f"master seed: {summary.master_seed}")
    for block in summary.autocorr:
        peak = max(abs(v) for v in block["mean"])
        print(f"autocorr law={block['law']} N={block['n']} "
              f"replicas={block['replica_count']} peak|C|={peak:.6f}")
    for g in summary.gaps:
        print(f"gap law={g['law']} N={g['n']} sup_gap={g['sup_gap']:.6f} "
              f"stderr={g['sup_gap_stderr']:.6f} floor={g['noise_floor']:.6f} "
              f"w2={g['w2_surrogate']:.6f}")
    for f in summary.freeze:
        print(f"freeze kappa={f['kappa']} N={f['n']} msd={f['msd_mean']:.6e} "
              f"stderr={f['msd_stderr']:.2e} "
              f"envelope_violations={f['envelope_violations']}")
    for p in summary.phi_medians:
        print(f"phi law={p['law']} N={p['n']} median={p['phi_median']:.6f}")
    for row in summary.validation:
        print(f"check law={row['law']} {row['check']}: {row['status']}"
              + (f" ({row['value']})" if row["value"] is not None else ""))
    if summary.lindeberg is not None:
        lb = summary.lindeberg
        print(f"certificate: {lb['certificate_pass']}/{lb['certificate_total']} "
              f"pass, worst |diff|/bound = {lb['worst_slack_ratio']:.6f}")
        print(f"gaussian identity: {lb['gaussian_mc_pass']}/"
              f"{lb['gaussian_mc_total']} pass")
    if summary.safeguard_activations:
        print(f"safeguard activations: {summary.safeguard_activations}")
    print(f"wall clock: {summary.wall_clock_seconds:.2f}s")
    print(f"outputs: {summary.output_dir}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            result = replay(args.run_dir, args.law, args.replica,
                            particle=args.particle, n=args.n,
                            sample=args.sample)
            print(f"replayed law={result['law']} N={result['n']} "
                  f"replica={result['replica']} sample={result['sample']}")
            print(f"disorder seed: {result['disorder_seed']}")
            print(f"fingerprint: {result['fingerprint']}")
            if result["matches_stored"] is not None:
                print(f"matches stored trajectory: {result['matches_stored']}")
            if args.particle is not None:
                vals = result["particle_values"]
                print(f"particle {args.particle}: start={float(vals[0])!r} "
                      f"end={float(vals[-1])!r}")
            return 0

        overrides = {"master_seed": _resolve_seed(args), "output_dir": args.out}
        cfg = load_config(args.config, {k: v for k, v in overrides.items() if v is not None})
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        summary = _COMMANDS[args.command](cfg, store_paths=args.store_paths)
        _print_summary(summary)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"config error: the run does not fit in memory: {exc}", file=sys.stderr)
        return 1
    except (NumericalFailure, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
