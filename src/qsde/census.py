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

The draws are streamed CHUNK_ROWS rows at a time, so memory is flat in n,
and each chunk is sieved before it is charted. With R = x0, s = sqrt(1 - R^2)
and a, b = |x3 - 1/2|, |x4 - 1/2| (so sin(p) = cos(pi a)), two exact bounds
on |u x v| need only the raw draws:

    |u x v| <= R s, and
    |u x v| = R s sin(angle(u, v)) >= R s |sin(p) - sin(p')| / sqrt(2)
            >= sqrt(2) R s (a - b)^2,

the second because the unit vectors' z-components sin(p), sin(p') are >= 0,
min(|u^ - v^|, |u^ + v^|) <= sqrt(2) sin(angle) and |cos(pi a) - cos(pi b)|
>= 2 (a - b)^2 on [0, 1/2]. So a row can be a flip hit only if sqrt(2) R s
(a - b)^2 <= FLIP_TOL, and can be an amplitude-damping hit or come closer to
1/2 than the closest approach decided so far only if 1/2 - R s <=
max(closest, AD_TOL). Only those rows are charted in float64 and counted:
all of the small first chunk, which gives the sieve its running closest
approach, then fewer as it shrinks: under 3 in 1000 rows over n = 2e6. The
kept rows of several chunks are charted together, once _FIRST_ROWS of them
have gathered; meanwhile the sieve runs on the last batch's closest, which
can only be larger and so keeps a superset of the rows that matter. Every
float64 step works row by row, so a kept row gets the bits it would get in a
pass over all draws: the report is the one-pass float64 one, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .channel import AD_TOL, FLIP_TOL
from .errors import InvalidInput

_DRAWS_PER_SAMPLE = 5
# Rows drawn and sieved at a time. A chunk's draws take 640 KiB and each
# float64 temporary 128 KiB, so its working set stays in the 2 MiB of L2 per
# core. On a 2-vCPU VM, in two sets of seven alternating run_census(2e6)
# timings per size, 16384 rows gave 11.5 and 12.3 M samples/s, faster in both
# sets than 4096, 8192, 32768 and 65536 (10.2-11.6 M/s).
CHUNK_ROWS = 16384
# Rows of the first chunk. The sieve keeps every row until some closest
# approach is known, so a small first chunk gives it one for the cost of
# charting 256 rows, not a whole chunk: with a first chunk of CHUNK_ROWS,
# an n = 1e4 call took 5.6 ms instead of 1.4 ms. Later kept rows are charted
# once this many have gathered, so the fixed cost of charting (about 40 numpy
# calls) is paid every few chunks, not every chunk.
_FIRST_ROWS = 256
# Absolute margin on both sieve bounds, far above their float64 rounding and
# that of the chart and kernel (a few 1e-16; a and a - b are exact on
# Philox's multiples of 2**-53).
_SLACK = 1e-12
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
    """(ux, uy, uz, vx, vy, vz) for an (n, 5) array of uniform [0, 1) draws."""
    r = x[:, 0]
    s = np.sqrt(np.clip(1.0 - r * r, 0.0, None))
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
    the surfaces classify and predict_dissipative use. An empty array has no
    hits and an infinite minimum.
    """
    ad_dist = np.abs(w_norm - 0.5)
    return (
        int(np.count_nonzero(w_norm <= FLIP_TOL)),
        int(np.count_nonzero(ad_dist <= AD_TOL)),
        float(ad_dist.min(initial=math.inf)),
    )


def _sieve(x: np.ndarray, closest: float) -> np.ndarray:
    """Mask of the rows of draws x that can be a hit or come within ``closest`` of |u x v| = 1/2.

    The two bounds of the module docstring, squared, with _SLACK; with
    closest = inf every row is kept.
    """
    rs2 = x[:, 0] * x[:, 0]
    rs2 *= 1.0 - rs2  # (R s)^2
    flip = np.abs(x[:, 3] - 0.5)
    flip -= np.abs(x[:, 4] - 0.5)  # a - b
    flip *= flip
    flip *= flip
    flip *= rs2  # (R s)^2 (a - b)^4
    keep = rs2 >= max(0.5 - max(closest, AD_TOL) - _SLACK, 0.0) ** 2
    keep |= flip <= 0.5 * (FLIP_TOL + _SLACK) ** 2
    return keep


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
    drawn into one reused buffer and sieved CHUNK_ROWS samples at a time,
    and the kept samples are counted in batches; the report is the one a
    single float64 pass over all n samples gives, bit for bit.
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
    buffer = np.empty((min(n, CHUNK_ROWS), _DRAWS_PER_SAMPLE))
    n_flip = n_ad = 0
    min_ad = math.inf
    kept, held = [], 0
    done, rows = 0, _FIRST_ROWS
    while done < n:
        draws = rng.random(out=buffer[: min(rows, n - done)])
        kept.append(draws[_sieve(draws, min_ad)])
        held += len(kept[-1])
        done, rows = done + len(draws), CHUNK_ROWS
        # decide the kept rows of several chunks at once; until then the sieve
        # runs on a stale, larger min_ad, which only keeps more rows
        if held >= _FIRST_ROWS or done == n:
            flip, ad, closest = count_hits(cross_norm(*_chart(np.concatenate(kept))))
            n_flip += flip
            n_ad += ad
            min_ad = min(min_ad, closest)
            kept, held = [], 0
    return CensusReport(
        n_samples=n,
        n_flip_hits=n_flip,
        n_ad_hits=n_ad,
        flip_tolerance=FLIP_TOL,
        ad_tolerance=AD_TOL,
        min_distance_to_ad=min_ad,
        seed=seed,
    )
