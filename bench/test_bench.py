"""Tests of the benchmark's own arithmetic and reference solvers, on short
inputs.  Run with ``python3 -m pytest bench``."""

import math
import statistics

import numpy as np
import pytest

import measure
import reference
from spans import Tracer


def test_percentile_matches_numpy_linear_interpolation():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 10, 101):
        xs = rng.exponential(size=n).tolist()
        for q in (0, 1, 25, 50, 99, 100):
            assert measure.percentile(xs, q) == pytest.approx(np.percentile(xs, q), rel=1e-12)


def test_percentile_of_nothing_is_zero_and_bad_q_raises():
    assert measure.percentile([], 50) == 0.0
    with pytest.raises(ValueError):
        measure.percentile([1.0], 101)


def test_p99_of_ten_thousand_leaves_a_hundred_beyond():
    xs = list(range(10_001))
    p99 = measure.percentile(xs, 99)
    assert sum(x > p99 for x in xs) == 100


def test_intervals_and_rt_factor():
    stamps = [0, 500_000, 1_000_000, 1_500_000]  # ns: a step every 0.5 ms
    assert measure.intervals_us(stamps) == [500.0, 500.0, 500.0]
    assert measure.rt_factor(stamps, dt=1e-3) == pytest.approx(2.0)
    assert measure.rt_factor([0, 2_000_000], dt=1e-3) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        measure.rt_factor([0], dt=1e-3)
    with pytest.raises(ValueError):
        measure.rt_factor([5, 5], dt=1e-3)


def test_covered_length_merges_and_clips():
    assert measure.covered_length([(0, 10), (5, 15), (20, 30)], 0, 100) == 25
    assert measure.covered_length([(0, 10), (20, 30)], 5, 25) == 10
    assert measure.covered_length([(40, 50)], 0, 30) == 0
    assert measure.covered_length([], 0, 30) == 0


def test_nest_finds_innermost_parent_per_thread():
    spans = [
        ("a", 0, 100),  # 0: root
        ("a", 10, 40),  # 1: child of 0
        ("a", 15, 20),  # 2: child of 1
        ("a", 50, 60),  # 3: child of 0
        ("b", 12, 18),  # 4: other thread, root
        ("a", 100, 120),  # 5: follows 0, root
    ]
    assert measure.nest(spans) == [-1, 0, 1, 0, -1, -1]


def test_self_time_subtracts_direct_children_only():
    intervals = [(0, 100), (10, 40), (15, 20), (50, 60)]
    parents = [-1, 0, 1, 0]
    assert measure.self_times(intervals, parents) == [60, 25, 5, 10]


def test_spread_uses_statistics_quantiles():
    xs = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    assert measure.spread(xs) == (q2, q1, q3, (q3 - q1) / q2)


def test_tracer_spans_nest_into_self_time():
    tracer = Tracer()

    def inner(k):
        return k

    traced_inner = tracer.wrap("inner", inner, step_arg=0)
    traced_outer = tracer.wrap("outer", lambda k: traced_inner(k) + traced_inner(k), step_arg=0)
    assert traced_outer(3) == 6
    names = [s[1] for s in tracer.spans]
    assert names == ["inner", "inner", "outer"]
    assert all(s[2] == 3 for s in tracer.spans)
    parents = measure.nest([(s[0], s[3], s[4]) for s in tracer.spans])
    assert parents == [2, 2, -1]
    own = measure.self_times([(s[3], s[4]) for s in tracer.spans], parents)
    outer = tracer.spans[2]
    assert own[2] == (outer[4] - outer[3]) - sum(s[4] - s[3] for s in tracer.spans[:2])


def test_linear_free_response_of_undamped_oscillator_is_cosine():
    w, dt, n = 3.0, 1e-3, 2001
    A = reference.sdof_vortex_state_matrix(2.0, 0.0, w, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0)
    y = reference.linear_free_response(A, [1.0, 0.0], n, dt)
    t = dt * np.arange(n)
    assert np.max(np.abs(y[:, 0] - np.cos(w * t))) < 1e-12


def test_vortex_force_folds_into_damping_and_stiffness():
    m, xi, w, rho, U, D, Y1, Y2, span = 2.0, 0.01, 5.0, 1.25, 9.0, 0.2, 6.5, -2.0, 1.8
    A = reference.sdof_vortex_state_matrix(m, xi, w, rho, U, D, Y1, Y2, span)
    q = 0.5 * rho * U**2 * 2 * D
    x, v = 0.3, -0.7
    acc = (span * q * (Y1 * v / U + Y2 * x / U) - 2 * m * xi * w * v - m * w * w * x) / m
    assert A @ np.array([x, v]) == pytest.approx([v, acc], rel=1e-14)


def test_coupled_state_matrix_without_coupling_is_two_oscillators():
    zero = np.zeros((2, 2))
    A = reference.coupled_state_matrix([2.0, 0.5], [0.01, 0.02], [3.0, 7.0], zero, zero)
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[1, 3] = 1.0
    expected[2, 0], expected[2, 2] = -9.0, -2 * 0.01 * 3.0
    expected[3, 1], expected[3, 3] = -49.0, -2 * 0.02 * 7.0
    assert np.allclose(A, expected, rtol=0, atol=1e-15)


def test_amplitude_law_at_floored_amplitude_is_a_linear_oscillator():
    # D so large that 2a/D sits on its 1e-3 floor and w(a) = w0 to 1e-9:
    # the law reduces to a constant damping ratio xi(floor).
    w0, dt, n = 4.0, 1e-3, 3001
    xi = 1.247e-4 / 1e-3 + 3.65e-3 + 1.264e-2 * 1e-3
    y = reference.amplitude_law_response(
        1.0, w0, 1.0, 1.0, 1e6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.01, 0.0, n, dt
    )
    A = np.array([[0.0, 1.0], [-w0 * w0, -2 * xi * w0]])
    exact = reference.linear_free_response(A, [0.01, 0.0], n, dt)
    assert reference.normalized_rms(exact[:, 0], y[:, 0]) < 1e-8


def test_newmark_phase_bound_matches_average_acceleration_dispersion():
    # Average-acceleration Newmark turns the undamped oscillator into a
    # rotation by W dt per step with tan(W dt / 2) = w dt / 2.
    w, dt, t_end = 20.0, 2e-3, 5.0
    n = round(t_end / dt)
    a0, a1 = 4 / dt**2, 4 / dt
    x, v, acc = 1.0, 0.0, -w * w
    for _ in range(n):
        x_new = (a0 * x + a1 * v + acc) / (w * w + a0)
        acc_new = a0 * (x_new - x) - a1 * v - acc
        v += 0.5 * dt * (acc + acc_new)
        x, acc = x_new, acc_new
    W = 2 / dt * math.atan(w * dt / 2)
    assert x == pytest.approx(math.cos(W * t_end), abs=1e-9)
    assert (w - W) * t_end == pytest.approx(reference.newmark_phase_bound(w, dt, t_end), rel=0.01)


def test_normalized_rms():
    assert reference.normalized_rms([1.0, -1.0], [1.0, -1.0]) == 0.0
    assert reference.normalized_rms([2.0, -2.0], [1.0, -1.0]) == pytest.approx(0.5)
