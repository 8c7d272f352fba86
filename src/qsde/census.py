"""Monte Carlo census of the coupling space.

The space of unit couplings {(u, v) : |u|^2 + |v|^2 = 1} is sampled through
the five-parameter chart

    u = R (cos(t) cos(p), sin(t) cos(p), sin(p)),
    v = sqrt(1 - R^2) (cos(t') cos(p'), sin(t') cos(p'), sin(p')),

with R, t, t', p, p' drawn uniformly from [0,1], [0,2pi], [0,2pi], [0,pi],
[0,pi]. The census counts hits of the two sudden-death-exempt surfaces:
flip couplings (|u x v| = 0) and amplitude-damping couplings
(|u x v| = 1/2). Both have lower dimension than the chart, so a continuous
sampler never hits them; a nonzero count at tolerance 1e-9 is a bug.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .channel import AD_TOL, FLIP_TOL
from .errors import InvalidInput

_DRAWS_PER_SAMPLE = 5


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


def uv_from_draws(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map an (n, 5) array of uniform [0, 1) draws through the chart to (u, v) rows."""
    r = x[:, 0]
    theta = 2.0 * np.pi * x[:, 1]
    theta_prime = 2.0 * np.pi * x[:, 2]
    phi = np.pi * x[:, 3]
    phi_prime = np.pi * x[:, 4]
    u = r[:, None] * np.stack(
        [np.cos(theta) * np.cos(phi), np.sin(theta) * np.cos(phi), np.sin(phi)],
        axis=1,
    )
    s = np.sqrt(np.clip(1.0 - r * r, 0.0, None))
    v = s[:, None] * np.stack(
        [
            np.cos(theta_prime) * np.cos(phi_prime),
            np.sin(theta_prime) * np.cos(phi_prime),
            np.sin(phi_prime),
        ],
        axis=1,
    )
    return u, v


def count_hits(u: np.ndarray, v: np.ndarray) -> tuple[int, int, float]:
    """(flip hits, amplitude-damping hits, min ||u x v| - 1/2|) over (u, v) rows.

    A hit lies within FLIP_TOL of |u x v| = 0 or AD_TOL of |u x v| = 1/2,
    the surfaces classify and predict_dissipative use.
    """
    w_norm = np.linalg.norm(np.cross(u, v), axis=1)
    ad_dist = np.abs(w_norm - 0.5)
    return (
        int(np.count_nonzero(w_norm <= FLIP_TOL)),
        int(np.count_nonzero(ad_dist <= AD_TOL)),
        float(ad_dist.min()),
    )


def run_census(n: int, seed: int = 0) -> CensusReport:
    """Count exempt-surface hits over n chart-uniform samples.

    The draws come from one Philox stream seeded with ``seed``, five per
    sample, so a run of n samples is a prefix of any longer run.
    """
    if n < 1:
        raise InvalidInput("n", "n must be >= 1")
    if seed < 0:
        raise InvalidInput("seed", f"seed must be >= 0, got {seed!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    u, v = uv_from_draws(rng.random((n, _DRAWS_PER_SAMPLE)))
    n_flip, n_ad, min_ad = count_hits(u, v)
    return CensusReport(
        n_samples=n,
        n_flip_hits=n_flip,
        n_ad_hits=n_ad,
        flip_tolerance=FLIP_TOL,
        ad_tolerance=AD_TOL,
        min_distance_to_ad=min_ad,
        seed=seed,
    )
