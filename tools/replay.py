"""Replay the benchmark's input pools through one checkout's cstones and print
a sha256 per pool over every output, array bytes included: each
``RecoveryResult`` field, or each ``grid_oracle_batch`` (omega, s) pair.
Two checkouts whose hashes agree compute bit-identically there.

    python3 tools/replay.py path/to/checkout/src     # about 80 s

The pools, all made from the seeds and input recipes of ``bench/workloads.py``
(imported from this file's checkout, whichever ``src/`` is replayed):

- ``flagship/<seed>``: the 512 flagship inputs of seeds 1311 and 6916;
- ``oracle_scan/<seed>``: the 16 oracle_scan inputs of seeds 1311 and 6916,
  each one 100 000-node ``grid_oracle_batch`` over 100 residuals (about 5 s);
- ``noisy_sweep/<seed>``: the 4096 noisy_sweep jobs of seeds 1311 and 6916,
  each a ``cstones sweep`` call whose one ``recover`` is hashed;
- ``low_m/<M>``: the flagship recipe at M = 24 and 32 with model seeds
  10000 + i and matrix seeds 20000 + i, i < 300.

It also prints the flagship, oracle_scan and low-M success counts (each
workload's own gate) and every noisy job that fails or whose mds/oracle nl2
ratio is above the benchmark's 1.5 gate.
BLAS is pinned to one thread, as in the benchmark.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEEDS = (1311, 6916)
LOW_M = (24, 32)
LOW_M_INPUTS = 300


def feed(h, value) -> None:
    """Add ``value`` to the hash ``h``: dataclasses field by field, arrays
    by dtype, shape and bytes, floats exactly."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            feed(h, getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        h.update(b"(%d" % len(value))
        for item in value:
            feed(h, item)
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, float):
        h.update(value.hex().encode())
    else:
        h.update(repr(value).encode())


def import_cstones(src: Path):
    """cstones imported from ``src``, refusing any other copy."""
    sys.path.insert(0, str(src))
    import cstones
    import cstones.cli

    if src not in Path(cstones.__file__).resolve().parents:
        raise SystemExit(f"error: imported cstones from {cstones.__file__}, not {src}")
    return cstones, cstones.cli


def pool(wl, rows):
    """sha256 over the workload's job on each input, and how many pass its gate."""
    h = hashlib.sha256()
    successes = 0
    for row in rows:
        inp = wl.make(row)
        result = wl.run(inp)
        feed(h, result)
        successes += wl.check(inp, result).success
    return h.hexdigest(), successes


def noisy_pool(wl, harness, rows):
    """sha256 over the ``recover`` inside each sweep job, and the jobs
    (index, seed, why) that fail or are above the mds/oracle gate."""
    h = hashlib.sha256()
    recover = harness.recover

    def hashed(*args, **kwargs):
        result = recover(*args, **kwargs)
        feed(h, result)
        return result

    flagged = []
    harness.recover = hashed
    try:
        for index, row in enumerate(rows):
            seed = wl.make(row)
            with contextlib.redirect_stdout(io.StringIO()):
                outcome = wl.check(seed, wl.run(seed))
            if outcome.failed:
                flagged.append((index, seed, outcome.detail))
            elif not outcome.success:
                flagged.append((index, seed, f"mds/oracle nl2 ratio {wl.ratios[-1]:.6g}"))
    finally:
        harness.recover = recover
    return h.hexdigest(), flagged


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="the src/ directory of the checkout to replay")
    args = parser.parse_args(argv)
    cs, cli = import_cstones(args.src.resolve())
    sys.path.insert(0, str(BENCH))
    import workloads

    api = workloads.public_api(cs, cli)
    print(f"cstones from {Path(cs.__file__).parent}")
    for workload in (workloads.Flagship, workloads.OracleScan):
        for seed in SEEDS:
            wl = workload(api)
            digest, ok = pool(wl, workloads.seed_rows(seed, wl.pool_size, wl.seed_width))
            print(f"{wl.name + '/' + str(seed):17s}{digest}  successes {ok}/{wl.pool_size}")
    with tempfile.TemporaryDirectory() as scratch:
        for seed in SEEDS:
            wl = workloads.NoisySweep(api, scratch)
            rows = workloads.seed_rows(seed, wl.pool_size, wl.seed_width)
            digest, flagged = noisy_pool(wl, sys.modules["cstones.harness"], rows)
            print(f"noisy_sweep/{seed} {digest}  not passing the gate: {len(flagged)}")
            for index, job_seed, why in flagged:
                print(f"    job {index} (seed {job_seed}): {why}")
    for m in LOW_M:
        wl = workloads.Flagship(api)
        wl.m = m
        rows = [(10000 + i, 20000 + i) for i in range(LOW_M_INPUTS)]
        digest, ok = pool(wl, rows)
        print(f"low_m/{m}          {digest}  successes {ok}/{LOW_M_INPUTS}")


if __name__ == "__main__":
    main()
