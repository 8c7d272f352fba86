import math
import tracemalloc

import numpy as np
import pytest

from helpers import census_one_shot
from qsde.census import CHUNK_ROWS, count_hits, cross_norm, run_census, uv_from_draws
from qsde.channel import AD_TOL, FLIP_TOL, Coupling, Flip, classify
from qsde.sde import predict_dissipative


def draws(seed, n):
    return np.random.Generator(np.random.Philox(seed)).random((n, 5))


def np_cross_norm(u, v):
    return np.linalg.norm(np.cross(u, v), axis=1)


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
    n_flip, n_ad, min_ad = count_hits(np_cross_norm(*uv_from_draws(draws(42, 1))))
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
    n_flip, n_ad, min_ad = count_hits(np_cross_norm(u, v))
    assert n_ad == 1
    assert n_flip == 0
    assert min_ad <= 1e-15


def test_injected_flip_sample_is_counted():
    # r = 1 in the first of three random samples puts it on the flip surface
    x = draws(7, 3)
    x[0, 0] = 1.0
    n_flip, _, _ = count_hits(np_cross_norm(*uv_from_draws(x)))
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


def test_fused_kernel_is_np_cross_and_norm_bit_for_bit():
    # a report shows only its closest sample; this pins every sample's |u x v|
    u, v = uv_from_draws(draws(11, 100_000))
    assert np.array_equal(cross_norm(*u.T, *v.T), np_cross_norm(u, v))


@pytest.mark.parametrize("n", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 7])
@pytest.mark.parametrize("seed", [0, 42, 2024])
def test_streamed_census_equals_the_one_shot_reference(n, seed):
    # chunked draws and the fused |u x v| kernel keep every sample's arithmetic
    assert run_census(n, seed).to_dict() == census_one_shot(n, seed)


def test_census_prefix_crosses_chunk_boundaries():
    # each run is a prefix of the longest: its report is that prefix's, exactly
    n_max = 2 * CHUNK_ROWS + 3
    w_norm = np_cross_norm(*uv_from_draws(draws(9, n_max)))
    for n in (CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS, n_max):
        report = run_census(n, seed=9)
        assert (report.n_flip_hits, report.n_ad_hits, report.min_distance_to_ad) == count_hits(w_norm[:n])


def test_census_memory_does_not_grow_with_n():
    # one pass over all draws at once traced ~145 MB at this n
    tracemalloc.start()
    try:
        run_census(1_000_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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


def test_report_echoes_the_classifier_tolerances():
    report = run_census(10, seed=1)
    assert (report.flip_tolerance, report.ad_tolerance) == (FLIP_TOL, AD_TOL)


def _coupling_with_w(m):
    # u = (a, 0, 0), v = (0, b, 0) with a^2 + b^2 = 1 and |u x v| = a b = m
    a = math.sqrt(0.5 * (1.0 + math.sqrt(1.0 - 4.0 * m * m)))
    return np.array([a, 0.0, 0.0]), np.array([0.0, m / a, 0.0])


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_census_flip_surface_is_the_classifiers(scale):
    u, v = _coupling_with_w(scale * FLIP_TOL)
    n_flip, _, _ = count_hits(np_cross_norm(u[None, :], v[None, :]))
    assert n_flip == int(isinstance(classify(Coupling(u, v)), Flip))
    assert n_flip == int(scale < 1.0)


@pytest.mark.parametrize("offset", [-2.0, -0.5, 0.0])
def test_census_amplitude_damping_surface_is_the_criterions(offset):
    # |u x v| <= 1/2 for every unit coupling, so the surface is approached from below
    u, v = _coupling_with_w(0.5 + offset * AD_TOL)
    c = Coupling(u, v)
    _, n_ad, _ = count_hits(np_cross_norm(u[None, :], v[None, :]))
    assert n_ad == int(predict_dissipative(c, c).predicted == "not-covered")
    assert n_ad == int(abs(offset) < 1.0)


def test_run_census_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        run_census(10, seed=-1)
