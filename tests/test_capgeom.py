"""Cap measures against closed forms, scipy's beta function, and Monte Carlo;
probability-bound formulas against direct evaluation."""

import math

import numpy as np
import pytest
import scipy.special

from gapcert import (
    CapQuery,
    DomainError,
    RandomSeed,
    cap_lower_bound,
    cap_measure_exact,
    gap_probability_bound,
    landing_exponent,
    landing_probability_bound,
    sample_sphere,
    step_bounds,
)


def test_euclidean_distance_dominated_by_spherical():
    gen = np.random.default_rng(5)
    xs = gen.standard_normal((10_000, 6))
    ys = gen.standard_normal((10_000, 6))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    dist = np.arccos(np.clip(np.sum(xs * ys, axis=1), -1.0, 1.0))
    eucl = np.linalg.norm(xs - ys, axis=1)
    assert np.abs(eucl - 2.0 * np.sin(dist / 2.0)).max() < 1e-12
    assert np.all(eucl <= dist + 1e-15)
    x, y = xs[0], ys[0]
    assert abs(np.arccos(np.clip(x @ y, -1, 1)) - dist[0]) < 1e-14


def test_cap_query_validation():
    with pytest.raises(DomainError):
        CapQuery(0, 0.3)
    with pytest.raises(DomainError):
        CapQuery(3, 0.0)
    with pytest.raises(DomainError):
        CapQuery(3, math.pi)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 15])
def test_hemisphere_measure_is_half(n):
    assert abs(cap_measure_exact(CapQuery(n, math.pi / 2.0)) - 0.5) < 1e-12


def test_circle_measure_closed_form():
    for delta in np.linspace(0.05, 3.0, 25):
        assert abs(cap_measure_exact(CapQuery(1, float(delta))) - delta / math.pi) < 1e-10


def test_two_sphere_measure_closed_form():
    for delta in np.linspace(0.05, 3.0, 25):
        expected = 0.5 * (1.0 - math.cos(delta))
        assert abs(cap_measure_exact(CapQuery(2, float(delta))) - expected) < 1e-10


def test_three_sphere_measure_closed_form():
    for delta in np.linspace(0.05, 3.0, 25):
        expected = (2.0 * delta - math.sin(2.0 * delta)) / (2.0 * math.pi)
        assert abs(cap_measure_exact(CapQuery(3, float(delta))) - expected) < 1e-10


def test_complement_symmetry():
    for n in (2, 5, 10):
        mu = cap_measure_exact(CapQuery(n, 0.3))
        mu_c = cap_measure_exact(CapQuery(n, math.pi - 0.3))
        assert abs(mu + mu_c - 1.0) < 1e-10


def test_cap_measure_matches_regularized_beta():
    # independent special-function oracle: mu = (1/2) I_{sin^2 delta}(n/2, 1/2)
    for n in (3, 8, 15, 24):
        for delta in np.linspace(0.05, 1.5, 12):
            x = math.sin(float(delta)) ** 2
            expected = 0.5 * scipy.special.betainc(n / 2.0, 0.5, x)
            assert abs(cap_measure_exact(CapQuery(n, float(delta))) - expected) < 1e-10


def test_cap_measure_matches_monte_carlo():
    n, delta, samples = 3, 0.5, 100_000
    pts = sample_sphere(n, samples, RandomSeed(200, 0))
    freq = float(np.mean(pts[:, 0] > math.cos(delta)))
    p = cap_measure_exact(CapQuery(n, delta))
    assert abs(freq - p) < 4.0 * math.sqrt(p * (1.0 - p) / samples)


def test_cap_lower_bound_value():
    got = cap_lower_bound(CapQuery(3, 0.2))
    assert abs(got - 1.6286e-4) < 1e-7  # printed value
    direct = (1.0 / (2.0 * math.sqrt(math.pi))) * 0.1**3 / math.sqrt(3.0)
    assert abs(got - direct) < 1e-18


def test_cap_lower_bound_domain():
    with pytest.raises(DomainError):
        cap_lower_bound(CapQuery(3, 0.3))
    with pytest.raises(DomainError):
        cap_lower_bound(CapQuery(3, 0.25))


def test_cap_bound_monotone_in_delta():
    vals = [cap_lower_bound(CapQuery(4, d)) for d in np.linspace(0.01, 0.24, 30)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[0] > 0.0


def test_exact_exceeds_lower_bound_on_grid():
    for n in (3, 8, 15, 24):
        for delta in np.linspace(0.01, 0.24, 50):
            q = CapQuery(n, float(delta))
            assert cap_measure_exact(q) > cap_lower_bound(q)


def test_landing_exponent():
    assert landing_exponent(3, 2) == 15
    assert landing_exponent(2, 1) == 3
    assert landing_exponent(4, 3) == 42


def test_landing_probability_bound_value():
    got = landing_probability_bound(2, 1, 0.2)
    assert abs(got - 3.44e-8) < 1e-10  # printed value
    direct = (0.2 / 32.0) ** 3 / (4.0 * math.sqrt(math.pi))
    assert abs(got - direct) < 1e-20 * abs(direct) + 1e-22


def test_landing_probability_bound_domain():
    with pytest.raises(DomainError):
        landing_probability_bound(2, 1, 0.25)
    with pytest.raises(DomainError):
        landing_probability_bound(2, 0, 0.1)
    with pytest.raises(DomainError):
        landing_probability_bound(2, 1, 0.0)


def test_step_bounds_values():
    got1 = step_bounds(2, 1, 0.1)
    direct1 = (1.0 / (2.0 * math.sqrt(math.pi))) * 0.05**3 / 2.0
    assert abs(got1 - 1.763e-5) < 1e-8
    assert abs(got1 - direct1) < 1e-18
    got2 = step_bounds(2, 2, 0.01)
    direct2 = (1.0 / (4.0 * math.sqrt(math.pi))) * (0.01 / 8.0) ** 2
    assert abs(got2 - 2.204e-7) < 1e-10
    assert abs(got2 - direct2) < 1e-18


def test_step_bounds_windows():
    with pytest.raises(DomainError):
        step_bounds(2, 1, 0.3)
    # step 2 window is 1/(4^3 sqrt(2)) ~ 0.011
    with pytest.raises(DomainError):
        step_bounds(2, 2, 0.05)
    with pytest.raises(DomainError):
        step_bounds(2, 0, 0.01)


@pytest.mark.parametrize("d,r,eps", [(2, 1, 0.2), (3, 1, 0.1), (3, 2, 0.2), (4, 3, 0.15)])
def test_chain_rule_product_dominates_landing_bound(d, r, eps):
    delta = eps / (4.0**r * math.sqrt(math.factorial(r)))
    product = 1.0
    for i in range(1, r + 1):
        product *= step_bounds(d, i, delta)
    bound = landing_probability_bound(d, r, eps)
    assert product >= bound * (1.0 - 1e-12)


def test_gap_probability_bound_value():
    got = gap_probability_bound(2, 1, 1.0 / 16.0)
    assert abs(got - 1.05e-9) < 1e-11  # printed value
    direct = (1.0 / 512.0) ** 3 / (4.0 * math.sqrt(math.pi))
    assert abs(got - direct) < 1e-20


def test_gap_probability_bound_monotone_and_domains():
    vals = [gap_probability_bound(2, 1, e) for e in np.linspace(0.01, 0.12, 20)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        gap_probability_bound(2, 1, 1.0 / 8.0)
    with pytest.raises(DomainError):
        gap_probability_bound(3, 2, 1.0 / 16.0 + 1e-9)


def test_gap_level_arithmetic():
    from gapcert import certified_gap_level

    assert abs(certified_gap_level(1, 1.0 / 16.0) - 0.5) < 1e-15
    assert abs(certified_gap_level(1, 0.05) - 0.6) < 1e-15
