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
memory is flat in n.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .channel import AD_TOL, FLIP_TOL
from .errors import InvalidInput

_DRAWS_PER_SAMPLE = 5
# Rows drawn and reduced at a time. A chunk's float64 temporaries are 64 KiB
# each, so its working set stays in cache. On a 2-vCPU VM, 8192 rows gave the
# highest census-sweep throughput of the sizes from 8192 to 262144, and in
# direct timings of run_census 2048 and 4096 rows were no faster.
CHUNK_ROWS = 8192
# The largest n whose every count is exact in a double. At a few million
# samples per second it is decades of sampling, so no run that could finish
# is refused.
MAX_SAMPLES = 2**53


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


def _chart(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """(ux, uy, uz, vx, vy, vz) of the chart for an (n, 5) array of uniform [0, 1) draws."""
    r = x[:, 0]
    theta = 2.0 * np.pi * x[:, 1]
    theta_prime = 2.0 * np.pi * x[:, 2]
    phi = np.pi * x[:, 3]
    phi_prime = np.pi * x[:, 4]
    cos_phi = np.cos(phi)
    cos_phi_prime = np.cos(phi_prime)
    s = np.sqrt(np.clip(1.0 - r * r, 0.0, None))
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


def run_census(n: int, seed: int = 0) -> CensusReport:
    """Count exempt-surface hits over n chart-uniform samples.

    The draws come from one Philox stream seeded with ``seed``, five per
    sample, so a run of n samples is a prefix of any longer run. They are
    drawn and counted CHUNK_ROWS samples at a time; the report is the one a
    single pass over all n samples gives, bit for bit.
    """
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
        flip, ad, closest = count_hits(cross_norm(*_chart(draws)))
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
