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
workload's own gate), how many grid nodes the oracle scans rescored in
float64, and every noisy job that fails or whose mds/oracle nl2 ratio is
above the benchmark's 1.5 gate.  Under each pool of recovers it
prints their outcomes: the ``stop_reason`` counts and how many results
certify, that is fit the measurement m to ``final_residual_norm <=
recovery._CERTIFIED_FIT * ||m||``; for flagship and low-M pools the
successes among certified and uncertified results, and for noisy pools the
``stop_reason`` counts split by ``sweeps_used``.
BLAS is pinned to one thread, as in the benchmark.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
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


class Outcomes:
    """(stop_reason, sweeps_used, certified, success) of each ``recover``
    result of a pool; success is None where the workload scores a whole job
    rather than its recover."""

    def __init__(self, recovery):
        self.fit = recovery._CERTIFIED_FIT
        self.rows = []

    def add(self, result, m, success=None) -> None:
        certified = result.final_residual_norm <= self.fit * float(np.linalg.norm(m))
        self.rows.append((result.stop_reason, result.sweeps_used, certified, success))

    def print(self) -> None:
        def counts(key):
            return sorted(collections.Counter(key(row) for row in self.rows).items())

        print("    stop_reason: " + ", ".join(f"{s} {c}" for s, c in counts(lambda row: row[0])))
        certified = [row[3] for row in self.rows if row[2]]
        uncertified = [row[3] for row in self.rows if not row[2]]
        print(f"    certified {len(certified)} of {len(self.rows)}")
        if self.rows[0][3] is None:
            split = counts(lambda row: row[:2])
            print("    stop_reason x sweeps_used: "
                  + ", ".join(f"{s} after {n} {c}" for (s, n), c in split))
        else:
            print(f"    successes: {sum(certified)} of {len(certified)} certified, "
                  f"{sum(uncertified)} of {len(uncertified)} uncertified")


def pool(wl, rows, outcomes=None):
    """sha256 over the workload's job on each input, and how many pass its
    gate; each ``recover`` result is counted into ``outcomes`` if given."""
    h = hashlib.sha256()
    successes = 0
    for row in rows:
        inp = wl.make(row)
        result = wl.run(inp)
        feed(h, result)
        success = wl.check(inp, result).success
        successes += success
        if outcomes is not None:
            outcomes.add(result, inp[2].values, success)
    return h.hexdigest(), successes


def scan_pool(wl, baselines, rows):
    """``pool`` over oracle_scan inputs, and how many nodes the scans rescored
    in float64, counted by wrapping ``baselines._measured_atoms``, which only
    that stage calls there."""
    measured, nodes = baselines._measured_atoms, [0]

    def counted(entries, omegas):
        nodes[0] += len(omegas)
        return measured(entries, omegas)

    baselines._measured_atoms = counted
    try:
        return (*pool(wl, rows), nodes[0])
    finally:
        baselines._measured_atoms = measured


def noisy_pool(wl, harness, rows, outcomes):
    """sha256 over the ``recover`` inside each sweep job, and the jobs
    (index, seed, why) that fail or are above the mds/oracle gate; each
    ``recover`` result is counted into ``outcomes``."""
    h = hashlib.sha256()
    recover = harness.recover

    def hashed(phi, m, *args, **kwargs):
        result = recover(phi, m, *args, **kwargs)
        feed(h, result)
        outcomes.add(result, m.values)
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
    recovery = sys.modules["cstones.recovery"]
    print(f"cstones from {Path(cs.__file__).parent}")
    for seed in SEEDS:
        wl = workloads.Flagship(api)
        outcomes = Outcomes(recovery)
        digest, ok = pool(wl, workloads.seed_rows(seed, wl.pool_size, wl.seed_width), outcomes)
        print(f"{wl.name + '/' + str(seed):17s}{digest}  successes {ok}/{wl.pool_size}")
        outcomes.print()
    for seed in SEEDS:
        wl = workloads.OracleScan(api)
        rows = workloads.seed_rows(seed, wl.pool_size, wl.seed_width)
        digest, ok, nodes = scan_pool(wl, sys.modules["cstones.baselines"], rows)
        print(f"{wl.name + '/' + str(seed):17s}{digest}  successes {ok}/{wl.pool_size}")
        print(f"    rescored in float64: {nodes} nodes, {nodes / wl.pool_size:.1f} per scan")
    with tempfile.TemporaryDirectory() as scratch:
        for seed in SEEDS:
            wl = workloads.NoisySweep(api, scratch)
            rows = workloads.seed_rows(seed, wl.pool_size, wl.seed_width)
            outcomes = Outcomes(recovery)
            digest, flagged = noisy_pool(wl, sys.modules["cstones.harness"], rows, outcomes)
            print(f"noisy_sweep/{seed} {digest}  not passing the gate: {len(flagged)}")
            for index, job_seed, why in flagged:
                print(f"    job {index} (seed {job_seed}): {why}")
            outcomes.print()
    for m in LOW_M:
        wl = workloads.Flagship(api)
        wl.m = m
        rows = [(10000 + i, 20000 + i) for i in range(LOW_M_INPUTS)]
        outcomes = Outcomes(recovery)
        digest, ok = pool(wl, rows, outcomes)
        print(f"low_m/{m}          {digest}  successes {ok}/{LOW_M_INPUTS}")
        outcomes.print()


if __name__ == "__main__":
    main()
