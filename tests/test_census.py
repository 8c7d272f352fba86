import math
import tracemalloc

import numpy as np
import pytest

from helpers import census_one_shot, uv_from_draws
from qsde import census
from qsde.census import (
    _FIRST_ROWS,
    _SLACK,
    CHUNK_ROWS,
    _chart,
    _sieve,
    count_hits,
    cross_norm,
    run_census,
)
from qsde.channel import AD_TOL, FLIP_TOL, Coupling, Flip, classify
from qsde.errors import InvalidInput
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


# every chunk boundary (the first chunk, then CHUNK_ROWS at a time) and sizes inside chunks
BOUNDARIES = [b + d for b in (_FIRST_ROWS, _FIRST_ROWS + CHUNK_ROWS) for d in (-1, 0, 1)]


@pytest.mark.parametrize("n", sorted({1, 8191, 8192, 8193, 24583, 2**18 + 5, *BOUNDARIES}))
@pytest.mark.parametrize("seed", [0, 42, 2024])
def test_streamed_census_equals_the_one_shot_reference(n, seed):
    # chunked draws, the sieve and the fused |u x v| kernel keep every sample's arithmetic
    assert run_census(n, seed).to_dict() == census_one_shot(n, seed)


def test_census_prefix_crosses_chunk_boundaries():
    # each run is a prefix of the longest: its report is that prefix's, exactly
    n_max = _FIRST_ROWS + 2 * CHUNK_ROWS + 3
    w_norm = np_cross_norm(*uv_from_draws(draws(9, n_max)))
    for n in (*BOUNDARIES, _FIRST_ROWS + 2 * CHUNK_ROWS, n_max):
        report = run_census(n, seed=9)
        assert (report.n_flip_hits, report.n_ad_hits, report.min_distance_to_ad) == count_hits(w_norm[:n])


def test_count_hits_of_no_rows():
    # a chunk's sieve may keep no rows
    assert count_hits(np.empty(0)) == (0, 0, math.inf)


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


def test_run_census_rejects_non_integers_by_name():
    for field, call in (("n", lambda v: run_census(v)), ("seed", lambda v: run_census(10, seed=v))):
        for value in (True, False, np.bool_(True), 10.5, math.nan, math.inf, "10", None, 1j):
            with pytest.raises(InvalidInput) as info:
                call(value)
            assert info.value.field == field
            assert info.value.message == f"expected an integer, got {value!r}"


def test_run_census_reports_numpy_and_integral_inputs_as_int():
    reference = run_census(10, seed=3)
    for n, seed in ((np.int64(10), np.uint8(3)), (np.int32(10), np.int64(3)), (10.0, np.float32(3.0))):
        report = run_census(n, seed=seed)
        assert report == reference
        assert type(report.n_samples) is int and type(report.seed) is int


# The sieve: two bounds on |u x v| from the raw draws pick the rows of a chunk
# that are charted in float64. With R = x0, s = sqrt(1 - R^2), a = |x3 - 1/2|
# and b = |x4 - 1/2|: sqrt(2) R s (a - b)^2 <= |u x v| <= R s.


def _adversarial_draws(n, seed):
    # rows where the bounds are tight or the chart is ill-conditioned
    x = draws(seed, n)
    rng = np.random.default_rng(seed)
    k = n // 6
    x[:k, 2], x[:k, 4] = x[:k, 1], x[:k, 3]  # u || v
    x[k : 2 * k, 2] = (x[k : 2 * k, 1] + 0.5) % 1.0  # u = -v, on the equator
    x[k : 2 * k, 3:] = 0.0
    x[2 * k : 3 * k, 4] = x[2 * k : 3 * k, 3]  # p = p'
    x[3 * k : 4 * k, 4] = 1.0 - x[3 * k : 4 * k, 3]  # p' = pi - p
    x[4 * k : 5 * k, 0] = 1.0 - rng.integers(1, 2**20, k) * 2.0**-53  # R -> 1
    x[5 * k :, 0] = 1.0 / math.sqrt(2.0) + rng.uniform(-5e-7, 5e-7, n - 5 * k)  # R s -> 1/2
    return x


def test_screen_error_is_at_most_a_tenth_of_its_margin():
    # both sieve bounds hold on the float64 |u x v| within _SLACK / 10
    x = np.concatenate([draws(31, 1_000_000), _adversarial_draws(300_000, 32)])
    w = cross_norm(*_chart(x))
    rs = x[:, 0] * np.sqrt(1.0 - x[:, 0] ** 2)
    d = np.abs(x[:, 3] - 0.5) - np.abs(x[:, 4] - 0.5)
    assert float(np.max(w - rs)) <= _SLACK / 10.0
    assert float(np.max(math.sqrt(2.0) * rs * d * d - w)) <= _SLACK / 10.0


def _row_with_w(m, x3=0.0):
    # u = R (cos p, 0, sin p) and v = (0, s, 0) are orthogonal, so |u x v| =
    # R sqrt(1 - R^2) = m: the small root of R^2 for the flip band, the large
    # one for amplitude damping; x3 != 1/2 puts a - b away from 0
    root = math.sqrt(1.0 - 4.0 * m * m)
    r2 = 2.0 * m * m / (1.0 + root) if m < 0.25 else 0.5 * (1.0 + root)
    return [math.sqrt(r2), 0.0, 0.25, x3, 0.0]


PLANTED = [
    ([1.0, 0.11, 0.18, 0.13, 0.64], "flip"),  # r = 1: v = 0
    ([1.0 / math.sqrt(2.0), 0.0, 0.75, 0.0, 0.0], "ad"),  # the amplitude-damping calibration row
] + [
    (_row_with_w(w, x3), hit)
    for x3 in (0.0, 0.3)
    for w, hit in (
        (0.999 * FLIP_TOL, "flip"),
        (1.001 * FLIP_TOL, None),
        (0.5 - 0.999 * AD_TOL, "ad"),
        (0.5 - 1.001 * AD_TOL, None),
    )
]
CLOSEST = [1e-12, 1e-9, 1e-6, 1e-4, math.inf]


def _ad_band_edges():
    # rows about one ulp of R apart around both R with R s = 1/2 - AD_TOL,
    # where float64 rounding alone decides whether |u x v| is in the band
    root = math.sqrt(1.0 - 4.0 * (0.5 - AD_TOL) ** 2)
    edges = (math.sqrt(0.5 * (1.0 - root)), math.sqrt(0.5 * (1.0 + root)))
    x = np.zeros((2 * 200_001, 5))
    x[:, 0] = np.concatenate([np.linspace(r - 1e-11, r + 1e-11, 200_001) for r in edges])
    x[:, 2:4] = 0.25, 0.3
    return x


def test_screen_margin_covers_the_amplitude_damping_band():
    # whatever the closest approach so far, every row within AD_TOL of 1/2 is
    # kept, up to the rows that float64 rounding puts on the band's edge
    # (without _SLACK the sieve drops some of those)
    x = np.array([_row_with_w(0.5 - f * AD_TOL, x3) for f in np.linspace(0.0, 0.999, 101) for x3 in (0.2, 0.3)])
    assert (np.abs(cross_norm(*_chart(x)) - 0.5) <= AD_TOL).all()
    edges = _ad_band_edges()
    hits = edges[np.abs(cross_norm(*_chart(edges)) - 0.5) <= AD_TOL]
    assert 0 < len(hits) < len(edges)
    for closest in (0.0, *CLOSEST):
        assert _sieve(x, closest).all()
        assert _sieve(hits, closest).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_screen_keeps_every_row_that_decides_the_chunk(seed):
    x = np.concatenate([draws(seed, CHUNK_ROWS), _adversarial_draws(60_000, seed)])
    at = np.random.default_rng(seed).choice(CHUNK_ROWS, len(PLANTED), replace=False)
    x[at] = [row for row, _ in PLANTED]
    w64 = cross_norm(*_chart(x))
    # each planted row lands on the side of its band it was built for
    assert [bool(w64[i] <= FLIP_TOL) for i in at] == [hit == "flip" for _, hit in PLANTED]
    assert [bool(abs(w64[i] - 0.5) <= AD_TOL) for i in at] == [hit == "ad" for _, hit in PLANTED]
    exact = count_hits(w64)
    for closest in CLOSEST:
        keep = _sieve(x, closest)
        assert keep[at].all()
        # every hit and every row nearer 1/2 than the closest approach so far is kept
        assert keep[(w64 <= FLIP_TOL) | (np.abs(w64 - 0.5) <= max(closest, AD_TOL))].all()
        flip, ad, nearest = count_hits(cross_norm(*_chart(x[keep])))
        assert (flip, ad, min(closest, nearest)) == (*exact[:2], min(closest, exact[2]))


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_screen_leaves_float64_a_handful_of_rows(seed, monkeypatch):
    kept = []

    def counting_sieve(x, closest):
        keep = _sieve(x, closest)
        kept.append(int(np.count_nonzero(keep)))
        return keep

    monkeypatch.setattr(census, "_sieve", counting_sieve)
    n = 2_000_000
    run_census(n, seed)
    # the first chunk is decided whole; after it the float64 pass, the slow
    # one, sees a few rows in a thousand
    assert kept[0] == _FIRST_ROWS
    assert sum(kept) <= n // 256


@pytest.mark.parametrize("density", [0.0005, 0.1, 0.5, 0.9])
def test_float64_chart_and_kernel_are_row_by_row_bit_for_bit(density):
    # the sieve's bit-identity rests on this: a row's |u x v| does not depend
    # on which other rows are charted with it
    x = draws(13, 3 * CHUNK_ROWS + 7)
    w = cross_norm(*_chart(x))
    rng = np.random.default_rng(int(density * 1e4))
    for _ in range(5):
        mask = rng.random(len(x)) < density
        mask[rng.integers(len(x))] = True
        assert np.array_equal(w[mask], cross_norm(*_chart(x[mask])))
    for i in rng.integers(0, len(x), 20):
        assert np.array_equal(w[i : i + 1], cross_norm(*_chart(x[i : i + 1])))
