"""Tests of the benchmark's own metric code.

    python3 -m pytest -q bench/test_metrics.py
"""

import contextlib
import io
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import metrics
from metrics import JobOutcome, Span, Tally
from spans import Tracer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


# --- percentiles and the sample-count rule ---------------------------------


@pytest.mark.parametrize("q", [0.0, 0.1, 0.5, 0.83, 0.9, 1.0])
def test_percentile_matches_numpy_linear(q):
    xs = np.random.default_rng(0).lognormal(size=37)
    assert metrics.percentile(xs, q) == pytest.approx(np.percentile(xs, 100 * q))


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        metrics.percentile([], 0.5)
    with pytest.raises(ValueError):
        metrics.percentile([1.0], 1.5)


def test_p90_needs_ten_samples_beyond_it():
    assert metrics.min_samples(0.9) == 100
    assert metrics.min_samples(0.5) == 20
    assert metrics.tail_quantile(100) == 0.9
    assert metrics.tail_quantile(500) == 0.9
    # fewer samples: the highest whole percent with >= 10 samples beyond it
    assert metrics.tail_quantile(99) == 0.89
    assert metrics.tail_quantile(66) == 0.84
    assert metrics.tail_quantile(12) == 0.5  # never below the median
    for n in (20, 37, 66, 99, 100, 250):
        q = metrics.tail_quantile(n)
        assert n * (1 - q) >= metrics.MIN_TAIL - 1e-9


def test_timing_reports_tail_and_count():
    xs = list(range(1, 151))
    t = metrics.Timing.of(xs)
    assert (t.n, t.tail_q) == (150, 0.9)
    assert t.p50 == pytest.approx(75.5)
    assert t.tail == pytest.approx(np.percentile(xs, 90))
    short = metrics.Timing.of(xs[:60])
    assert short.tail_q == 0.83
    assert short.tail == pytest.approx(np.percentile(xs[:60], 83))


# --- machine scaling ---------------------------------------------------------


def test_rolling_median_uses_neighbours_and_shrinks_at_the_ends():
    xs = [1, 9, 2, 3, 100, 4, 5]
    assert metrics.rolling_median(xs, 1) == [5, 2, 3, 3, 4, 5, 4.5]
    assert metrics.rolling_median(xs, 0) == [float(x) for x in xs]


def test_machine_scaling_undoes_a_slow_spell():
    # The same 0.2 s job; the machine runs 1.5x slower for the second half.
    refs = [0.01] * 10 + [0.015] * 10
    times = [0.2] * 10 + [0.3] * 10
    scaled = metrics.machine_scaled(times, refs, nominal=0.01, half_width=2)
    assert scaled == pytest.approx([0.2] * 20)


def test_machine_scaling_ignores_one_odd_reading():
    refs = [0.01, 0.01, 0.05, 0.01, 0.01]
    scaled = metrics.machine_scaled([0.2] * 5, refs, nominal=0.01, half_width=2)
    assert scaled == pytest.approx([0.2] * 5)
    with pytest.raises(ValueError):
        metrics.machine_scaled([0.2] * 5, refs[:4], nominal=0.01)


# --- self time from nested spans -------------------------------------------


def _span(sid, parent, layer, start, end, name="f"):
    return Span(sid, parent, "job0", name, layer, start, end)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, None, "bench", 0.0, 10.0, "job"),
        _span(1, 0, "recovery", 1.0, 4.0),
        _span(2, 1, "estimator", 2.0, 3.0),
        _span(3, 0, "baselines", 5.0, 9.0),
    ]
    selfs = metrics.self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    by_layer = metrics.layer_self_by_root(spans)
    assert by_layer == {0: {"bench": 3.0, "recovery": 2.0, "estimator": 1.0, "baselines": 4.0}}
    assert sum(by_layer[0].values()) == spans[0].duration


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        _span(0, None, "bench", 0.0, 10.0, "job"),
        _span(1, 0, "a", 1.0, 5.0),
        _span(2, 0, "a", 3.0, 6.0),  # overlaps the first child
        _span(3, 0, "a", 9.0, 12.0),  # runs past the parent's end
    ]
    assert metrics.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_self_times_add_up_to_job_wall_time():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.001)
        for _ in range(3):
            traced_leaf()
        return 7

    traced_leaf = tracer.wrap(leaf, "estimator")
    traced_middle = tracer.wrap(middle, "recovery", lambda a, k, out: {"value": out})
    for job in range(2):
        with tracer.root(f"job{job}"):
            assert traced_middle() == 7
    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == 2 and len(tracer.spans) == 10
    assert all(s.job in ("job0", "job1") for s in tracer.spans)
    assert [s.attrs for s in tracer.spans if s.name == "middle"] == [{"value": 7}] * 2
    by_root = metrics.layer_self_by_root(tracer.spans)
    for root in roots:
        layers = by_root[root.sid]
        assert set(layers) == {"bench", "recovery", "estimator"}
        assert sum(layers.values()) == pytest.approx(root.duration, abs=1e-12)
        assert layers["estimator"] >= 0.006


def test_patched_restores_originals_even_on_error():
    class Owner:
        @staticmethod
        def f():
            raise KeyError("boom")

    original = Owner.f
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.patched([(Owner, "f", "x", None)]), tracer.root("job0"):
            Owner.f()
    assert Owner.f is original
    assert [s.attrs.get("error") for s in tracer.spans] == ["KeyError", "KeyError"]


# --- failure counting --------------------------------------------------------


GOOD_ROWS = [("mds", 0.101, 0.002), ("oracle", 0.100, 0.0), ("bomp", 0.2, 0.01)]


def _with(method, nl2, ferr):
    return [(m, nl2, ferr) if m == method else (m, e, f) for m, e, f in GOOD_ROWS]


def test_sweep_success():
    assert metrics.sweep_outcome(0, GOOD_ROWS, 1.5) == JobOutcome(False, True)


def test_harness_failure_row_is_a_failure_not_a_success():
    out = metrics.sweep_outcome(0, _with("mds", 1.0, math.nan), 1.5)
    assert out.failed and not out.success
    assert metrics.is_harness_failure_row(1.0, math.nan)
    # an honest 1.0 error with a frequency error is not the failure convention
    assert not metrics.is_harness_failure_row(1.0, 0.3)
    assert not metrics.is_harness_failure_row(0.5, math.nan)


@pytest.mark.parametrize(
    "exit_code, rows",
    [
        (2, []),
        (0, GOOD_ROWS[:2]),  # a missing row
        (0, GOOD_ROWS + [("mds", 0.1, 0.0)]),  # a duplicated row
        (0, _with("bomp", math.inf, 0.0)),
        (0, _with("oracle", math.nan, 0.0)),
    ],
)
def test_sweep_hard_failures(exit_code, rows):
    out = metrics.sweep_outcome(exit_code, rows, 1.5)
    assert out.failed and not out.success


def test_sweep_accuracy_miss_is_unsuccessful_but_not_failed():
    out = metrics.sweep_outcome(0, _with("mds", 0.2, 0.01), 1.5)
    assert not out.failed and not out.success


def test_swallowed_harness_exception_counts_as_failure(tmp_path, monkeypatch):
    """End to end: the real harness turns a raising recover into its
    nl2 = 1.0 row and exit code 0; the noisy_sweep check must fail the job."""
    import cstones
    import cstones.cli
    import cstones.harness
    import workloads

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    wl = workloads.NoisySweep(workloads.public_api(cstones, cstones.cli), str(tmp_path))
    monkeypatch.setattr(cstones.harness, "recover", broken)
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = wl.run(7)
    assert exit_code == 0
    out = wl.check(7, exit_code)
    assert out.failed and not out.success
    assert "harness failure row" in out.detail


def test_tally_rates():
    outcomes = [JobOutcome(False, True)] * 7 + [JobOutcome(False, False), JobOutcome(True, False)]
    t = Tally.of(outcomes)
    assert (t.attempted, t.failed, t.succeeded) == (9, 1, 7)
    assert t.fail_rate == pytest.approx(1 / 9)
    assert t.success_rate == pytest.approx(7 / 9)
    with pytest.raises(ValueError):
        Tally.of([])
    with pytest.raises(ValueError):
        JobOutcome(True, True)
