"""Monte Carlo census of the coupling space.

The space of unit couplings {(u, v) : |u|^2 + |v|^2 = 1} is sampled through
the five-parameter chart

    u = R (cos(t) cos(p), sin(t) cos(p), sin(p)),
    v = sqrt(1 - R^2) (cos(t') cos(p'), sin(t') cos(p'), sin(p')),

with R, t, t', p, p' drawn uniformly from [0,1], [0,2pi], [0,2pi], [0,pi],
[0,pi]. The census counts hits of the two sudden-death-exempt surfaces:
flip couplings (|u x v| = 0) and amplitude-damping couplings
(|u x v| = 1/2). Both have lower dimension than the chart, so the sampler
hits the surfaces themselves with probability zero. A hit is a sample
within FLIP_TOL or AD_TOL of a surface, and those bands have positive
measure: each holds about 2 x 1e-9 of the chart (1.8 and 2.0 times the
tolerance, estimated from the share of 1e7 samples within bands of
1e-3 to 1e-6). A run of n samples therefore expects about 2e-9 n hits on
each surface: none at n = 1e5, and one in a few hundred runs at n = 2e6.
Counts far above that are a bug.

The draws are streamed through the chart CHUNK_ROWS rows at a time, so
memory is flat in n. Each chunk is screened, then decided. The screen
computes every row's |u x v| in float32, which is off from the float64
value by at most SCREEN_TOL. It keeps only the rows that could still be a
hit or the chunk's closest approach to 1/2, a few per chunk. The decision
charts those rows again in float64 and counts them. Every float64 step
works row by row, so a kept row gets the bits it would get in a pass over
all draws, and every row that can change the report is kept: the report
is the float64 one, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .channel import AD_TOL, FLIP_TOL
from .errors import InvalidInput

_DRAWS_PER_SAMPLE = 5
# Rows drawn and screened at a time. A chunk's draws take 320 KiB and each
# float32 temporary 32 KiB, so its working set stays in cache. On a 2-vCPU VM,
# in two sets of seven alternating run_census(2e6) timings per size, 8192 rows
# gave 7.3-7.4 M samples/s, and no other size from 2048 to 65536 was faster in
# both sets (4.8-7.4 M/s).
CHUNK_ROWS = 8192
# The largest n whose every count is exact in a double. At a few million
# samples per second it is decades of sampling, so no run that could finish
# is refused.
MAX_SAMPLES = 2**53
# Screen margin: a bound on |w32 - w64|, the float32 |u x v| of a row against
# its float64 one, 23 times over. With e = 2**-24, float32's unit roundoff,
# and to first order in e:
# - an angle 2 pi x or pi x rounds x, the constant and the product, so it is
#   off by at most 3 e 2 pi = 6 pi e (t, t') or 3 pi e (p, p');
# - numpy's accuracy tests hold float32 sin and cos to 2 ULP of the rounded
#   result; take 4 ULP <= 8 e, so cos(t) is off by (6 pi + 8) e, cos(p) by
#   (3 pi + 8) e;
# - r, and s = sqrt(1 - r^2) taken in float64, are rounded once: e relative;
# - ux = r (cos(t) cos(p)) adds two product roundings: |dux| <=
#   r (1 + 9 pi + 16 + 2) e = 47.3 r e, as for uy; uz = r sin(p) has
#   (1 + 3 pi + 8 + 1) e = 19.4 r e; so |du| <= 69.6 r e, and |dv| <= 69.6 s e;
# - |d(u x v)| <= |du| |v| + |u| |dv| <= 2 r s 69.6 e <= 69.6 e, as r s <= 1/2;
#   each cross component rounds two products and their difference, at most
#   2 r s e <= e each, sqrt(3) e as a vector;
# - the norm rounds three squares, two sums and a root: 2.5 e relative on
#   |u x v| <= 1/2, at most 1.5 e.
# The sum is 72.8 e = 4.4e-6. Underflow adds at most 2**-149 per operation,
# and the float64 reference's own rounding is 2**29 times smaller than the
# float32 terms; the margin absorbs both and the float32 rounding of the
# screen's thresholds. tests/test_census.py measures the largest |w32 - w64|.
SCREEN_TOL = 1e-4


@dataclass(frozen=True)
class CensusReport:
    """Hit counts of the exempt surfaces for one census run.

    ``flip_tolerance`` and ``ad_tolerance`` echo channel.FLIP_TOL and AD_TOL.
    """

    n_samples: int
    n_flip_hits: int
    n_ad_hits: int
    flip_tolerance: float
    ad_tolerance: float
    min_distance_to_ad: float
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def _chart(x: np.ndarray, dtype=np.float64) -> tuple[np.ndarray, ...]:
    """(ux, uy, uz, vx, vy, vz) in ``dtype`` for an (n, 5) float64 array of uniform [0, 1) draws.

    s = sqrt(1 - R^2) is always taken in float64 and then rounded: it is
    ill-conditioned as R -> 1, where from a float32 R it is off by up to
    2.4e-4 (all of s, once R rounds to 1).
    """
    s = np.sqrt(np.clip(1.0 - x[:, 0] * x[:, 0], 0.0, None)).astype(dtype, copy=False)
    x = x.astype(dtype, copy=False)
    r = x[:, 0]
    theta = 2.0 * np.pi * x[:, 1]
    theta_prime = 2.0 * np.pi * x[:, 2]
    phi = np.pi * x[:, 3]
    phi_prime = np.pi * x[:, 4]
    cos_phi = np.cos(phi)
    cos_phi_prime = np.cos(phi_prime)
    return (
        r * (np.cos(theta) * cos_phi),
        r * (np.sin(theta) * cos_phi),
        r * np.sin(phi),
        s * (np.cos(theta_prime) * cos_phi_prime),
        s * (np.sin(theta_prime) * cos_phi_prime),
        s * np.sin(phi_prime),
    )


def uv_from_draws(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map an (n, 5) array of uniform [0, 1) draws through the chart to (u, v) rows."""
    ux, uy, uz, vx, vy, vz = _chart(x)
    return np.stack([ux, uy, uz], axis=1), np.stack([vx, vy, vz], axis=1)


def cross_norm(ux, uy, uz, vx, vy, vz) -> np.ndarray:
    """|u x v| per sample, bit for bit np.linalg.norm(np.cross(u, v), axis=1).

    The components are np.cross's products and differences, and the squares
    are summed in np.linalg.norm's order.
    """
    w0 = uy * vz - uz * vy
    w1 = uz * vx - ux * vz
    w2 = ux * vy - uy * vx
    return np.sqrt(w0 * w0 + w1 * w1 + w2 * w2)


def count_hits(w_norm: np.ndarray) -> tuple[int, int, float]:
    """(flip hits, amplitude-damping hits, min ||u x v| - 1/2|) over an array of |u x v|.

    A hit lies within FLIP_TOL of |u x v| = 0 or AD_TOL of |u x v| = 1/2,
    the surfaces classify and predict_dissipative use.
    """
    ad_dist = np.abs(w_norm - 0.5)
    return (
        int(np.count_nonzero(w_norm <= FLIP_TOL)),
        int(np.count_nonzero(ad_dist <= AD_TOL)),
        float(ad_dist.min()),
    )


def _screen(draws: np.ndarray) -> np.ndarray:
    """Mask of the rows of a chunk whose float64 |u x v| can change its count_hits.

    With |w32 - w64| <= SCREEN_TOL per row, a flip hit has w32 <= FLIP_TOL +
    SCREEN_TOL. Let m be the chunk's smallest |w32 - 1/2|. The row closest
    to 1/2 in float64 has |w32 - 1/2| <= m + 2 SCREEN_TOL, and so does an
    amplitude-damping hit, whose |w32 - 1/2| is at most AD_TOL + SCREEN_TOL
    <= 2 SCREEN_TOL. The row at m always qualifies, so the mask is never
    empty.
    """
    w = cross_norm(*_chart(draws, np.float32))
    ad_dist = np.abs(w - 0.5)
    return (w <= FLIP_TOL + SCREEN_TOL) | (ad_dist <= float(ad_dist.min()) + 2.0 * SCREEN_TOL)


def _integer(value, field: str) -> int:
    """value as an int: an integer, numpy's too, or an integral float; never a bool or text."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise InvalidInput(field, f"expected an integer, got {value!r}")


def run_census(n: int, seed: int = 0) -> CensusReport:
    """Count exempt-surface hits over n chart-uniform samples.

    The draws come from one Philox stream seeded with ``seed``, five per
    sample, so a run of n samples is a prefix of any longer run. They are
    drawn, screened and counted CHUNK_ROWS samples at a time; the report is
    the one a single float64 pass over all n samples gives, bit for bit.
    """
    n = _integer(n, "n")
    seed = _integer(seed, "seed")
    if n < 1:
        raise InvalidInput("n", "n must be >= 1")
    if n > MAX_SAMPLES:
        raise InvalidInput("n", f"n must be <= {MAX_SAMPLES}")
    if seed < 0:
        raise InvalidInput("seed", f"seed must be >= 0, got {seed!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    n_flip = n_ad = 0
    min_ad = math.inf
    for start in range(0, n, CHUNK_ROWS):
        draws = rng.random((min(CHUNK_ROWS, n - start), _DRAWS_PER_SAMPLE))
        flip, ad, closest = count_hits(cross_norm(*_chart(draws[_screen(draws)])))
        n_flip += flip
        n_ad += ad
        min_ad = min(min_ad, closest)
    return CensusReport(
        n_samples=n,
        n_flip_hits=n_flip,
        n_ad_hits=n_ad,
        flip_tolerance=FLIP_TOL,
        ad_tolerance=AD_TOL,
        min_distance_to_ad=min_ad,
        seed=seed,
    )
