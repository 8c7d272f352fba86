import math

import numpy as np
import pytest

from qsde.census import count_hits, run_census, uv_from_draws


def draws(seed, n):
    return np.random.Generator(np.random.Philox(seed)).random((n, 5))


def test_sample_normalization_invariant():
    u, v = uv_from_draws(draws(123, 200))
    norm2 = np.sum(u * u, axis=1) + np.sum(v * v, axis=1)
    assert np.max(np.abs(norm2 - 1.0)) <= 1e-12


def test_sample_stream_is_reproducible():
    u1, v1 = uv_from_draws(draws(42, 50))
    u2, v2 = uv_from_draws(draws(42, 50))
    assert np.array_equal(u1, u2) and np.array_equal(v1, v2)


def test_run_census_first_sample_matches_scalar_draws():
    report = run_census(1, seed=42)
    n_flip, n_ad, min_ad = count_hits(*uv_from_draws(draws(42, 1)))
    assert (report.n_flip_hits, report.n_ad_hits) == (n_flip, n_ad)
    assert report.min_distance_to_ad == min_ad


def test_boundary_r_gives_flip_sample():
    u, v = uv_from_draws(np.array([[1.0, 0.11, 0.18, 0.13, 0.64]]))
    assert np.array_equal(v, np.zeros((1, 3)))
    assert float(np.linalg.norm(np.cross(u, v))) == 0.0


def test_injected_amplitude_damping_sample_is_counted():
    # calibration of the detector: a sample on the amplitude-damping surface
    # (theta = -pi/4 coupling, charted as r = 1/sqrt(2), theta = 0,
    # theta' = 3 pi / 2, phi = phi' = 0)
    u, v = uv_from_draws(np.array([[1.0 / math.sqrt(2.0), 0.0, 0.75, 0.0, 0.0]]))
    assert abs(float(np.linalg.norm(np.cross(u[0], v[0]))) - 0.5) <= 1e-15
    n_flip, n_ad, min_ad = count_hits(u, v)
    assert n_ad == 1
    assert n_flip == 0
    assert min_ad <= 1e-15


def test_injected_flip_sample_is_counted():
    # r = 1 in the first of three random samples puts it on the flip surface
    x = draws(7, 3)
    x[0, 0] = 1.0
    n_flip, _, _ = count_hits(*uv_from_draws(x))
    assert n_flip == 1


def test_census_deterministic_and_clean_at_ten_thousand():
    a = run_census(10_000, seed=2024)
    b = run_census(10_000, seed=2024)
    assert a == b
    assert a.n_flip_hits == 0
    assert a.n_ad_hits == 0
    assert a.min_distance_to_ad > 0.0
    assert a.seed == 2024
    assert a.n_samples == 10_000


def test_census_min_distance_shrinks_with_prefix_property():
    # same seed: the first 100 draws are a prefix of the first 10000, so
    # the minimum over the longer run cannot exceed the shorter one's
    small = run_census(100, seed=5)
    large = run_census(10_000, seed=5)
    assert large.min_distance_to_ad <= small.min_distance_to_ad


def test_report_dict_round_trip():
    report = run_census(10, seed=1)
    d = report.to_dict()
    assert d["n_samples"] == 10
    assert set(d) == {
        "n_samples",
        "n_flip_hits",
        "n_ad_hits",
        "flip_tolerance",
        "ad_tolerance",
        "min_distance_to_ad",
        "seed",
    }


@pytest.mark.parametrize("field", ["flip_tol", "ad_tol"])
def test_run_census_rejects_negative_tolerance(field):
    with pytest.raises(ValueError, match=field):
        run_census(10, seed=1, **{field: -1.0})


def test_run_census_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        run_census(10, seed=-1)
