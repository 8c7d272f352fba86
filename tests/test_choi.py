import math

import numpy as np
import pytest

from qsde.channel import Coupling, bloch_to_rho, evolve, family_appc, kraus_flip
from qsde.choi import (
    choi_of_channel,
    completeness_residual,
    kraus_of_choi,
    kraus_of_coupling,
)
from qsde.errors import NotPSD
from qsde.linalg import IDENTITY_2, herm_eig, psd_factor, psd_spectrum

from helpers import (
    apply_channel,
    assert_same_bits,
    branch_cases,
    choi_six_evolves,
    partial_trace_second,
    random_coupling,
    random_density2,
    rho_to_bloch,
)

AXIAL = [np.array(p, dtype=float) for p in
         [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]]


def test_identity_channel_choi_spectrum():
    choi = choi_of_channel(family_appc(-math.pi / 4), 0.0)
    vals = herm_eig(choi)[0]
    assert np.allclose(vals, [2.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_identity_channel_single_kraus():
    kraus, _ = kraus_of_choi(choi_of_channel(family_appc(-math.pi / 4), 0.0))
    assert kraus.shape == (1, 2, 2)
    # proportional to the identity up to a global phase
    k = kraus[0] / kraus[0][0, 0]
    assert np.allclose(k, IDENTITY_2, atol=1e-12)


def test_dephasing_choi_becomes_rank_two():
    flip_z = Coupling(u=np.array([0.0, 0.0, 1.0]), v=np.zeros(3))
    vals = herm_eig(choi_of_channel(flip_z, 30.0))[0]
    assert np.allclose(vals, [1.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_amplitude_damping_choi_limit_stays_trace_preserving():
    c = family_appc(-math.pi / 4)
    choi = choi_of_channel(c, 25.0)
    assert np.max(np.abs(partial_trace_second(choi) - IDENTITY_2)) <= 1e-9
    # every input collapses to the pure fixed point 2w
    kraus, _ = kraus_of_choi(choi)
    rng = np.random.default_rng(1)
    for _ in range(5):
        out = rho_to_bloch(apply_channel(kraus, random_density2(rng)))
        assert np.max(np.abs(out - np.array([0.0, 0.0, -1.0]))) <= 1e-6


def test_generic_dissipative_choi_has_more_than_two_kraus():
    choi = choi_of_channel(family_appc(-math.pi / 5), 0.5)
    vals = herm_eig(choi)[0]
    assert int((vals > 1e-10).sum()) > 2


@pytest.mark.parametrize("gamma_t", [0.1, 0.4, 1.5])
def test_flip_kraus_from_choi_matches_bloch_map(gamma_t):
    axis = np.array([1.0, 2.0, -0.5])
    axis /= np.linalg.norm(axis)
    c = Coupling(u=axis, v=np.zeros(3))
    kraus, _ = kraus_of_choi(choi_of_channel(c, gamma_t))
    for r0 in AXIAL:
        via_kraus = rho_to_bloch(apply_channel(kraus, bloch_to_rho(r0)))
        assert np.max(np.abs(via_kraus - evolve(r0, c, gamma_t))) <= 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_round_trip_matches_bloch_map(seed):
    rng = np.random.default_rng(600 + seed)
    c = random_coupling(rng)
    t = 3.0 * rng.random()
    kraus, _ = kraus_of_choi(choi_of_channel(c, t))
    assert len(kraus) <= 4
    assert completeness_residual(kraus) <= 1e-9
    for _ in range(5):
        rho = random_density2(rng)
        direct = bloch_to_rho(evolve(rho_to_bloch(rho), c, t))
        assert np.max(np.abs(apply_channel(kraus, rho) - direct)) <= 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_choi_is_psd_and_trace_preserving(seed):
    rng = np.random.default_rng(700 + seed)
    c = random_coupling(rng)
    for t in (0.0, 0.3, 2.0, 10.0):
        choi = choi_of_channel(c, t)
        assert float(herm_eig(choi)[0][-1]) >= -1e-9
        assert np.max(np.abs(partial_trace_second(choi) - IDENTITY_2)) <= 1e-9
        assert abs(np.trace(choi) - 2.0) <= 1e-9


def test_apply_channel_identity():
    rng = np.random.default_rng(2)
    rho = random_density2(rng)
    assert np.array_equal(apply_channel([IDENTITY_2], rho), rho)


def test_apply_channel_phase_flip_scales_coherence():
    plus = bloch_to_rho(np.array([1.0, 0.0, 0.0]))
    t = 0.8
    out = apply_channel(kraus_flip(np.array([0.0, 0.0, 1.0]), 1.0, t), plus)
    assert abs(rho_to_bloch(out)[0] - math.exp(-4.0 * t)) <= 1e-12


def test_amplitude_damping_pumps_maximally_mixed_state():
    c = family_appc(-math.pi / 4)
    w = np.cross(c.u, c.v)
    w_hat = w / np.linalg.norm(w)
    for t in (0.2, 1.0, 3.0):
        kraus = kraus_of_coupling(c, t)
        out = rho_to_bloch(apply_channel(kraus, 0.5 * IDENTITY_2.copy()))
        expected = (1.0 - math.exp(-4.0 * t)) * 2.0 * float(np.linalg.norm(w))
        assert abs(float(out @ w_hat) - expected) <= 1e-9


def test_kraus_of_choi_rejects_non_psd():
    # trace-preserving (tr_2 = 1) but indefinite
    bad = np.diag([1.5, -0.5, 0.5, 0.5]).astype(complex)
    with pytest.raises(NotPSD):
        kraus_of_choi(bad)


def test_kraus_of_coupling_uses_two_operators_for_flips():
    c = Coupling(u=np.array([0.0, 1.0, 0.0]), v=np.zeros(3))
    kraus = kraus_of_coupling(c, 0.5)
    assert kraus.shape == (2, 2, 2)
    assert completeness_residual(kraus) <= 1e-12


def test_kraus_of_choi_decomposes_each_choi_matrix_once(monkeypatch):
    import qsde.choi
    import qsde.linalg

    calls = []
    original = qsde.linalg.herm_eig

    def counting(m):
        calls.append(1)
        return original(m)

    # both names: the one choi calls, and linalg's own, so a decomposition in a linalg helper counts too
    monkeypatch.setattr(qsde.choi, "herm_eig", counting)
    monkeypatch.setattr(qsde.linalg, "herm_eig", counting)
    for theta, t in ((-math.pi / 5, 0.5), (0.3, 1.2), (-math.pi / 4, 0.0)):
        calls.clear()
        kraus_of_choi(choi_of_channel(family_appc(theta), t))
        assert len(calls) == 1


def test_choi_dust_is_clipped():
    # trace 2 and tr_2 = 1, smallest eigenvalue -1e-10: dust, not an error
    dusty = np.diag([1.0 + 1e-10, -1e-10, 0.5, 0.5]).astype(complex)
    kraus, _ = kraus_of_choi(dusty)
    assert kraus.shape == (3, 2, 2)


@pytest.mark.parametrize("seed", range(4))
def test_kraus_of_choi_keeps_exactly_the_unsnapped_columns(seed):
    # a kept operator is sqrt(eigenvalue) times a unit vector with eigenvalue
    # >= 64 eps lam_max >= 32 eps (the trace is 2), so its max-abs is at least
    # sqrt(32 eps) / 2; every other column is exactly zero and dropped. The
    # stack holds the kept columns of S un-stacked, K_i[a, b] = S[a + 2 b, i].
    rng = np.random.default_rng(1700 + seed)
    couplings = [random_coupling(rng) for _ in range(5)] + [family_appc(-math.pi / 4)]
    for c in couplings:
        for t in (0.0, 1e-3, 0.3, 3.0, 1e3):
            choi = choi_of_channel(c, t)
            kraus, _ = kraus_of_choi(choi)
            values, vectors = herm_eig(choi)
            s = psd_factor(values, vectors)
            rank = np.count_nonzero(psd_spectrum(values) > 0.0)
            assert kraus.shape == (rank, 2, 2)
            assert_same_bits(kraus, np.array([s[:, i].reshape(2, 2, order="F") for i in range(rank)]))
            assert min(float(np.max(np.abs(k))) for k in kraus) >= math.sqrt(32.0 * np.finfo(float).eps) / 2.0


@pytest.mark.parametrize("name, c1, c2, t", branch_cases(), ids=[case[0] for case in branch_cases()])
def test_choi_of_channel_is_the_six_evolve_assembly_bit_for_bit(name, c1, c2, t):
    # one evolve of the six axial states, written into the blocks, against six
    # evolve calls, six (1 + r . sigma) / 2 and np.block
    for c in (c1, c2):
        assert_same_bits(choi_of_channel(c, t), choi_six_evolves(c, t))
