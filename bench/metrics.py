"""Statistics the benchmark reports, kept free of cstones and numpy so that
they can be tested on their own.

- Percentiles follow the sample-count rule: a tail percentile q is reported
  only when at least ``MIN_TAIL`` samples lie beyond it, i.e. n*(1-q) >= 10.
- Self time of a span is its duration minus the part of its interval that
  its direct children cover, so the self times of every span under one root
  add up to the root's wall time.
- Machine scaling: each job's time is multiplied by ``nominal / ref``,
  where ``ref`` is the median of the reference-kernel readings taken next
  to that job and its ``half_width`` neighbours on each side, so a slow
  spell of the shared host does not read as a slow program.
- Failure counting: a job fails when it raised, returned non-finite output,
  exited non-zero, or the harness swallowed an exception and wrote its
  ``nl2_error = 1.0`` / NaN-frequency-error row instead.  A failed job is
  never a success, whatever its time.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

MIN_TAIL = 10


def percentile(samples, q: float) -> float:
    """Linear-interpolation percentile (numpy's default) for 0 <= q <= 1."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    xs = sorted(float(x) for x in samples)
    if not xs:
        raise ValueError("no samples")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def min_samples(q: float) -> int:
    """Fewest samples for which percentile q has MIN_TAIL samples beyond it."""
    return math.ceil(MIN_TAIL / (1.0 - q) - 1e-9)


def tail_supported(n: int, q: float) -> bool:
    return n >= min_samples(q)


def tail_quantile(n: int, q: float = 0.9) -> float:
    """q itself when n samples support it, else the highest whole percent
    below q with MIN_TAIL samples beyond it (never below the median)."""
    if tail_supported(n, q):
        return q
    return max(0.5, math.floor(100.0 * (1.0 - MIN_TAIL / n) + 1e-9) / 100.0)


@dataclass(frozen=True)
class Timing:
    """Median and tail of one set of job times, with the sample count.

    ``tail`` is the p90 when there are at least 100 samples; with fewer it
    is the percentile ``tail_q`` that the sample-count rule still supports.
    """

    n: int
    p50: float
    tail_q: float
    tail: float

    @classmethod
    def of(cls, samples) -> "Timing":
        samples = list(samples)
        q = tail_quantile(len(samples))
        return cls(n=len(samples), p50=percentile(samples, 0.5), tail_q=q,
                   tail=percentile(samples, q))


def rolling_median(xs, half_width: int) -> list[float]:
    """Median of each sample with up to ``half_width`` neighbours on each
    side (fewer at the ends)."""
    xs = [float(x) for x in xs]
    return [percentile(xs[max(0, i - half_width):i + half_width + 1], 0.5)
            for i in range(len(xs))]


def machine_scaled(times, refs, nominal: float, half_width: int = 4) -> list[float]:
    """Each time scaled to a machine that runs the reference kernel in
    ``nominal`` seconds; ``refs[i]`` is the reading taken next to ``times[i]``."""
    times = list(times)
    if len(times) != len(refs):
        raise ValueError("one reference reading per time is needed")
    return [t * nominal / r for t, r in zip(times, rolling_median(refs, half_width))]


# ---------------------------------------------------------------------------
# spans


@dataclass(frozen=True)
class Span:
    """One call at a layer boundary; ``parent`` is None for a root span."""

    sid: int
    parent: int | None
    job: str | None
    name: str
    layer: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(parent: Span, children: list[Span]) -> float:
    """Length of the union of the children's intervals, clipped to parent."""
    total = 0.0
    cur_lo = cur_hi = None
    for c in sorted(children, key=lambda s: s.start):
        lo, hi = max(c.start, parent.start), min(c.end, parent.end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {s.sid: s.duration - _covered(s, children[s.sid]) for s in spans}


def root_of(spans) -> dict[int, int]:
    """Map each span id to the id of its root span."""
    by_id = {s.sid: s for s in spans}
    roots = {}
    for s in spans:
        cur = s
        while cur.parent is not None:
            cur = by_id[cur.parent]
        roots[s.sid] = cur.sid
    return roots


def layer_self_by_root(spans) -> dict[int, dict[str, float]]:
    """Per root span, the self time summed by layer over its whole tree."""
    selfs = self_times(spans)
    roots = root_of(spans)
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        out[roots[s.sid]][s.layer] += selfs[s.sid]
    return {r: dict(layers) for r, layers in out.items()}


# ---------------------------------------------------------------------------
# job outcomes


@dataclass(frozen=True)
class JobOutcome:
    """Verdict on one job: ``failed`` for a hard failure, ``success`` when
    the output passed the workload's accuracy gate."""

    failed: bool
    success: bool
    detail: str = ""

    def __post_init__(self):
        if self.failed and self.success:
            raise ValueError("a failed job cannot be a success")


def is_harness_failure_row(nl2_error: float, freq_err_total: float) -> bool:
    """The harness records a swallowed exception as nl2 = 1.0, NaN freq error."""
    return nl2_error == 1.0 and math.isnan(freq_err_total)


def sweep_outcome(exit_code: int, rows, ratio_gate: float) -> JobOutcome:
    """Verdict on one ``cstones sweep --trials 1`` job.

    ``rows`` holds (method, nl2_error, freq_err_total) per CSV row; there
    must be exactly one row for each of mds, oracle and bomp.
    """
    if exit_code != 0:
        return JobOutcome(True, False, f"exit code {exit_code}")
    methods = sorted(method for method, _, _ in rows)
    if methods != ["bomp", "mds", "oracle"]:
        return JobOutcome(True, False, f"rows present: {methods}")
    for method, nl2, ferr in rows:
        if is_harness_failure_row(nl2, ferr):
            return JobOutcome(True, False, f"{method}: harness failure row")
        if not math.isfinite(nl2):
            return JobOutcome(True, False, f"{method}: nl2 {nl2}")
    nl2 = {method: err for method, err, _ in rows}
    ratio = nl2["mds"] / nl2["oracle"]
    if not ratio <= ratio_gate:
        return JobOutcome(False, False, f"mds/oracle nl2 ratio {ratio:.3g} > {ratio_gate}")
    return JobOutcome(False, True)


@dataclass(frozen=True)
class Tally:
    attempted: int
    failed: int
    succeeded: int

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted

    @property
    def success_rate(self) -> float:
        return self.succeeded / self.attempted

    @classmethod
    def of(cls, outcomes) -> "Tally":
        outcomes = list(outcomes)
        if not outcomes:
            raise ValueError("no jobs attempted")
        return cls(
            attempted=len(outcomes),
            failed=sum(o.failed for o in outcomes),
            succeeded=sum(o.success for o in outcomes),
        )
