"""Command-line front end: fixture synthesis, single-shot recovery, timing
benchmarks, and Monte Carlo sweeps.

Sensing matrices are always passed as a (kind, m, n, seed) tuple and
regenerated on demand, never serialized dense.  Exit codes: 0 success, 1 I/O
or spec error, 2 dimension/validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .harness import (
    METHOD_BOMP,
    METHOD_MDS,
    METHOD_ORACLE,
    ExperimentSpec,
    _atomic_write,
    normalized_l2_error,
    run_experiment,
    write_csv,
    write_summary_json,
    write_svg,
)
from .model import NoiseSpec, add_noise, draw_model, synthesize
from .recovery import RecoveryConfig, recover
from .sensing import GAUSSIAN, SUBSAMPLING, Measurement, matrix_from_kind, measure

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2

PAPER_SCALE_M_VALUES = tuple(range(15, 66, 5))
PAPER_SCALE_TRIALS = 600


def _write_value_csv(path: str, values, index_name: str) -> None:
    lines = [f"{index_name},value"]
    for i, v in enumerate(values, start=1):
        lines.append(f"{i},{float(v)!r}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _read_value_csv(path: str) -> np.ndarray:
    values = []
    with open(path) as handle:
        header = handle.readline()
        if "value" not in header:
            raise ValueError(f"{path}: expected a '<index>,value' CSV header")
        for line in handle:
            line = line.strip()
            if not line:
                continue
            values.append(float(line.split(",")[1]))
    return np.array(values)


def cmd_synth(args) -> int:
    """Write a deterministic signal fixture: CSV samples plus a model JSON."""
    min_sep = args.min_sep if args.min_sep is not None else math.pi / args.n
    model = draw_model(args.k, args.n, min_sep, preset=args.preset, seed=args.seed)
    s = synthesize(model)
    x = add_noise(s, NoiseSpec(snr_db=args.snr, seed=args.noise_seed))

    _write_value_csv(args.out_signal, x, "t")
    record = model.to_dict()
    record["provenance"] = {
        "preset": args.preset,
        "seed": args.seed,
        "min_sep": min_sep,
        "snr_db": args.snr,
        "noise_seed": args.noise_seed,
    }
    _atomic_write(args.out_model, json.dumps(record, indent=2, sort_keys=True) + "\n")

    if args.out_measurement is not None:
        phi = matrix_from_kind(args.matrix_kind, args.m, args.n, args.matrix_seed)
        meas = measure(phi, x)
        _write_value_csv(args.out_measurement, meas.values, "index")
    return EXIT_OK


def cmd_recover(args) -> int:
    """Recover k sinusoids from a measurement file and a matrix tuple."""
    values = _read_value_csv(args.measurement)
    phi = matrix_from_kind(args.matrix_kind, args.m, args.n, args.matrix_seed)
    if values.size != phi.m_rows:
        raise ValueError(
            f"measurement has {values.size} entries but the matrix tuple says m={args.m}"
        )
    meas = Measurement(values=values)
    result = recover(phi, meas, RecoveryConfig(k=args.k))

    payload = {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in dataclasses.asdict(result).items()
        if key != "signal"
    }
    payload["model"] = result.model.to_dict()
    payload["config"] = {"k": args.k, "matrix": phi.provenance()}
    if args.truth is not None:
        truth = _read_value_csv(args.truth)
        payload["nl2_error"] = normalized_l2_error(truth, result.signal)
    _atomic_write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.out_signal is not None:
        _write_value_csv(args.out_signal, result.signal, "t")
    return EXIT_OK


def _build_spec(args) -> ExperimentSpec:
    if args.paper_scale:
        values = [float(v) for v in PAPER_SCALE_M_VALUES]
        trials = PAPER_SCALE_TRIALS
        axis = "m"
    else:
        if args.values is None:
            raise ValueError("--values is required unless --paper-scale is given")
        values = [float(v) for v in args.values.split(",")]
        trials = args.trials
        axis = args.axis
    return ExperimentSpec(
        sweep_axis=axis,
        sweep_values=tuple(sorted(values)),
        n=args.n,
        k=args.k,
        preset=args.preset,
        matrix_kind=args.matrix_kind,
        fixed_m=args.m,
        fixed_snr_db=args.snr,
        trials=trials,
        base_seed=args.seed,
        methods=tuple(args.methods.split(",")),
        min_sep=args.min_sep,
    )


def cmd_sweep(args) -> int:
    """Run a sweep and write CSV / summary JSON / optional SVG atomically.

    Any validation problem here is a spec error (exit 1); per-trial method
    failures are recorded in the rows and do not change the exit code.
    """
    try:
        spec = _build_spec(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.dry_run:
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    result = run_experiment(spec, workers=args.threads)
    write_csv(result, args.out_prefix + ".csv")
    write_summary_json(result, args.out_prefix + ".json")
    if args.svg:
        write_svg(result, args.out_prefix + ".svg")
    print(f"wrote {args.out_prefix}.csv and {args.out_prefix}.json")
    return EXIT_OK


def cmd_bench(args) -> int:
    """Time each method at a single operating point and print its sweep summary cell."""
    spec = ExperimentSpec(
        sweep_axis="m",
        sweep_values=(float(args.m),),
        n=args.n,
        k=args.k,
        preset=args.preset,
        matrix_kind=args.matrix_kind,
        fixed_snr_db=args.snr,
        trials=args.trials,
        base_seed=args.seed,
        methods=tuple(args.methods.split(",")),
    )
    result = run_experiment(spec, workers=args.threads)
    cell = next(iter(result.summary.values()))
    print(json.dumps(cell, indent=2, sort_keys=True))
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _add_matrix_args(parser, require_m: bool) -> None:
    parser.add_argument(
        "--matrix-kind",
        choices=(GAUSSIAN, SUBSAMPLING),
        default=GAUSSIAN,
        help="sensing matrix family (default: gaussian)",
    )
    parser.add_argument(
        "--m",
        type=_positive_int,
        required=require_m,
        default=None if require_m else 64,
        help="measurement count M",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cstones",
        description="Recover frequency-sparse signals from compressed measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize a signal fixture")
    p_synth.add_argument("--k", type=_positive_int, required=True, help="number of sinusoids")
    p_synth.add_argument("--n", type=_positive_int, default=128, help="sample count N")
    p_synth.add_argument("--preset", choices=("freq", "sinu"), default="freq")
    p_synth.add_argument("--seed", type=int, default=0, help="model RNG seed")
    p_synth.add_argument("--min-sep", type=float, default=None, help="frequency gap floor (default pi/n)")
    p_synth.add_argument("--snr", type=float, default=None, help="SNR in dB (default noiseless)")
    p_synth.add_argument("--noise-seed", type=int, default=0)
    p_synth.add_argument("--out-signal", required=True, help="output CSV of samples")
    p_synth.add_argument("--out-model", required=True, help="output JSON of true parameters")
    p_synth.add_argument("--out-measurement", default=None, help="optional compressed CSV output")
    _add_matrix_args(p_synth, require_m=False)
    p_synth.add_argument("--matrix-seed", type=int, default=0, help="matrix RNG seed")
    p_synth.set_defaults(func=cmd_synth)

    p_rec = sub.add_parser("recover", help="recover sinusoids from a measurement file")
    p_rec.add_argument("--measurement", required=True, help="measurement CSV (index,value)")
    p_rec.add_argument("--k", type=_positive_int, required=True)
    p_rec.add_argument("--n", type=_positive_int, default=128)
    p_rec.add_argument("--truth", default=None, help="optional truth-signal CSV for scoring")
    p_rec.add_argument("--out", required=True, help="output JSON")
    p_rec.add_argument("--out-signal", default=None, help="optional reconstructed-signal CSV")
    _add_matrix_args(p_rec, require_m=True)
    p_rec.add_argument("--matrix-seed", type=int, default=0, help="matrix RNG seed")
    p_rec.set_defaults(func=cmd_recover)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo sweep over M or SNR")
    p_sweep.add_argument(
        "--config",
        default=None,
        help="flat JSON file whose keys mirror these flags; explicit flags win",
    )
    p_sweep.add_argument("--axis", choices=("m", "snr"), default="m")
    p_sweep.add_argument("--values", default=None, help="comma-separated sweep values")
    p_sweep.add_argument("--trials", type=_positive_int, default=50)
    p_sweep.add_argument("--k", type=_positive_int, default=3)
    p_sweep.add_argument("--n", type=_positive_int, default=128)
    p_sweep.add_argument("--preset", choices=("freq", "sinu"), default="freq")
    p_sweep.add_argument("--snr", type=float, default=None, help="fixed SNR for m sweeps (default noiseless)")
    p_sweep.add_argument("--min-sep", type=float, default=None)
    p_sweep.add_argument("--seed", type=int, default=0, help="base of every model, noise and matrix seed")
    p_sweep.add_argument("--methods", default="mds", help=f"comma list of {METHOD_MDS},{METHOD_ORACLE},{METHOD_BOMP}")
    p_sweep.add_argument("--threads", type=_positive_int, default=1, help="worker pool size")
    p_sweep.add_argument("--paper-scale", action="store_true", help="M = 15..65 step 5, 600 trials")
    p_sweep.add_argument("--svg", action="store_true", help="also write a line chart")
    p_sweep.add_argument("--dry-run", action="store_true", help="print the resolved spec and exit")
    p_sweep.add_argument("--out-prefix", default="sweep", help="output path prefix")
    _add_matrix_args(p_sweep, require_m=False)
    p_sweep.set_defaults(func=cmd_sweep)

    p_bench = sub.add_parser("bench", help="per-method timing at one operating point")
    p_bench.add_argument("--k", type=_positive_int, default=3)
    p_bench.add_argument("--n", type=_positive_int, default=128)
    p_bench.add_argument("--trials", type=_positive_int, default=5)
    p_bench.add_argument("--preset", choices=("freq", "sinu"), default="freq")
    p_bench.add_argument("--snr", type=float, default=None)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--methods", default="mds,oracle,bomp")
    p_bench.add_argument("--threads", type=_positive_int, default=1)
    _add_matrix_args(p_bench, require_m=False)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # config tokens go right after the subcommand, so explicit flags win
            args = parser.parse_args(argv[:1] + _config_argv(args, args.config) + argv[1:])
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def _config_argv(args, path) -> list[str]:
    """Flag tokens for a flat JSON config keyed by the subcommand's options.

    The values then pass through the same argparse conversion and checks
    as flags typed on the command line.  Switches take JSON booleans;
    every other option takes a string or a number.
    """
    with open(path) as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a flat JSON object")
    unknown = config.keys() - (vars(args).keys() - {"command", "func", "config"})
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    tokens = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, key), bool):  # a store_true switch
            if not isinstance(value, bool):
                raise ValueError(f"{path}: {key} must be true or false, got {value!r}")
            if value:
                tokens.append(flag)
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            tokens.append(f"{flag}={value}")
        else:
            raise ValueError(f"{path}: {key} must be a string or a number, got {value!r}")
    return tokens


if __name__ == "__main__":
    sys.exit(main())
