import numpy as np
import pytest

from isacopt import (ConfigError, IrsPhase, Precoder, build_omega,
                     effective_comm_channel, effective_radar_channel,
                     quartic_kernels, weighted_snr)
from isacopt.scene import ChannelSet, complex_normal

from conftest import random_scene, small_config
from reference import decompose_objective, quartic_kernels_reference


class TestEffectiveRadarChannel:
    def test_zero_alpha_gives_zero(self, rng):
        cfg, ch, p, theta = random_scene(rng, alpha=0.0)
        np.testing.assert_array_equal(effective_radar_channel(theta, ch, cfg),
                                      np.zeros((cfg.n_tx, cfg.n_tx)))

    def test_scalar_case(self, rng):
        cfg = small_config(l_rows=1, l_cols=1, n_tx=1, k=1, alpha=0.3 + 0.1j)
        g = np.array([[2.0 + 1.0j]])
        steer = np.array([1.0 + 0.0j])
        ch = ChannelSet(g=g, h=np.array([[0.0j]]), f=np.array([[0.0j]]),
                        steer=steer)
        phi = 0.77
        theta = IrsPhase(np.array([np.exp(1j * phi)]))
        c_r = effective_radar_channel(theta, ch, cfg)
        expected = cfg.alpha * g[0, 0] ** 2 * np.exp(2j * phi)
        assert c_r[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_matches_five_factor_product(self, rng):
        cfg, ch, p, theta = random_scene(rng, l_rows=2, l_cols=2, n_tx=2)
        th_mat = np.diag(theta.theta)
        r_mat = np.outer(ch.steer, ch.steer)
        brute = cfg.alpha * ch.g.T @ th_mat @ r_mat @ th_mat @ ch.g
        np.testing.assert_allclose(effective_radar_channel(theta, ch, cfg),
                                   brute, rtol=1e-12, atol=1e-14)

    def test_rank_at_most_one(self, rng):
        cfg, ch, p, theta = random_scene(rng)
        s = np.linalg.svd(effective_radar_channel(theta, ch, cfg),
                          compute_uv=False)
        assert s[1] <= 1e-12 * max(s[0], 1.0)

    def test_dimension_mismatch(self, rng):
        cfg, ch, p, theta = random_scene(rng)
        bad = IrsPhase(np.ones(cfg.n_irs + 1, dtype=complex))
        with pytest.raises(ConfigError):
            effective_radar_channel(bad, ch, cfg)


class TestEffectiveCommChannel:
    def test_zero_h_gives_f(self, rng):
        cfg, ch, p, theta = random_scene(rng)
        ch.h = np.zeros_like(ch.h)
        np.testing.assert_allclose(effective_comm_channel(theta, ch), ch.f)

    def test_identity_phases_zero_f(self, rng):
        cfg, ch, p, theta = random_scene(rng)
        ch.f = np.zeros_like(ch.f)
        ones = IrsPhase(np.ones(cfg.n_irs, dtype=complex))
        np.testing.assert_allclose(effective_comm_channel(ones, ch),
                                   ch.h @ ch.g, rtol=1e-12)

    def test_matches_triple_loop(self, rng):
        cfg, ch, p, theta = random_scene(rng, l_rows=2, l_cols=2)
        out = effective_comm_channel(theta, ch)
        k, n = ch.f.shape
        for i in range(k):
            for j in range(n):
                acc = ch.f[i, j]
                for l in range(cfg.n_irs):
                    acc += ch.h[i, l] * theta.theta[l] * ch.g[l, j]
                assert out[i, j] == pytest.approx(acc, rel=1e-12)


class TestWeightedSnrAndOmega:
    def test_pure_radar_zero_alpha(self, rng):
        cfg, ch, p, theta = random_scene(rng, beta=1.0, alpha=0.0)
        assert weighted_snr(p, theta, ch, cfg) == 0.0

    def test_pure_comm_zero_channels(self, rng):
        cfg, ch, p, theta = random_scene(rng, beta=0.0)
        ch.f = np.zeros_like(ch.f)
        ch.h = np.zeros_like(ch.h)
        assert weighted_snr(p, theta, ch, cfg) == 0.0

    def test_matches_omega_quadratic_form(self, rng):
        for _ in range(10):
            cfg, ch, p, theta = random_scene(rng)
            direct = weighted_snr(p, theta, ch, cfg)
            omega = build_omega(theta, ch, cfg)
            via_omega = float(np.real(np.vdot(p.p, omega @ p.p)))
            assert via_omega == pytest.approx(direct, rel=1e-10)

    def test_omega_hermitian_psd(self, rng):
        for _ in range(5):
            cfg, ch, p, theta = random_scene(rng)
            omega = build_omega(theta, ch, cfg)
            np.testing.assert_allclose(omega, omega.conj().T, atol=1e-12)
            w = np.linalg.eigvalsh(omega)
            assert w[0] >= -1e-10 * np.linalg.norm(omega)

    def test_omega_single_term_when_beta_zero(self, rng):
        cfg, ch, p, theta = random_scene(rng, beta=0.0)
        c_c = effective_comm_channel(theta, ch)
        expected = (c_c.conj().T @ c_c) / cfg.sigma2_comm
        np.testing.assert_allclose(build_omega(theta, ch, cfg), expected,
                                   rtol=1e-12)


class TestDecomposeObjective:
    def test_beta_one_leaves_only_quartic(self, rng):
        cfg, ch, p, theta = random_scene(rng, beta=1.0)
        br = decompose_objective(p, theta, ch, cfg)
        assert br.g0 == 0.0 and br.g1 == 0.0 and br.g2 == 0.0
        assert br.g4 == pytest.approx(weighted_snr(p, theta, ch, cfg), rel=1e-10)

    def test_zero_f_kills_g0_g1(self, rng):
        cfg, ch, p, theta = random_scene(rng)
        ch.f = np.zeros_like(ch.f)
        br = decompose_objective(p, theta, ch, cfg)
        assert br.g0 == 0.0 and br.g1 == 0.0

    def test_sum_matches_weighted_snr(self, rng):
        for _ in range(20):
            cfg, ch, p, theta = random_scene(rng, l_rows=1, l_cols=5, n_tx=3, k=2)
            br = decompose_objective(p, theta, ch, cfg)
            assert br.total == pytest.approx(br.g0 + br.g1 + br.g2 + br.g4,
                                             rel=1e-14)
            assert br.total == pytest.approx(weighted_snr(p, theta, ch, cfg),
                                             rel=1e-9)

    def test_g1_conjugate_pair_is_real(self, rng):
        # evaluate the pair of cross traces explicitly; imaginary parts cancel
        cfg, ch, p, theta = random_scene(rng)
        th_mat = np.diag(theta.theta)
        pp = p.p @ p.p.conj().T
        t1 = np.trace(ch.g.conj().T @ th_mat.conj().T @ ch.h.conj().T @ ch.f @ pp)
        t2 = np.trace(ch.f.conj().T @ ch.h @ th_mat @ ch.g @ pp)
        assert abs((t1 + t2).imag) < 1e-10 * max(1.0, abs(t1 + t2))
        br = decompose_objective(p, theta, ch, cfg)
        coef = (1 - cfg.beta) / cfg.sigma2_comm
        assert br.g1 == pytest.approx(coef * (t1 + t2).real, rel=1e-9, abs=1e-12)


class TestQuarticKernels:
    def test_zero_input(self, rng):
        v = complex_normal(rng, 3, 3)
        w = complex_normal(rng, 3, 3)
        y, z = quartic_kernels(np.zeros((3, 3), dtype=complex), v, w)
        assert not y.any() and not z.any()

    @pytest.mark.parametrize("l", [2, 6])
    def test_matches_explicit_kronecker(self, rng, l):
        x = complex_normal(rng, l, l)
        v = complex_normal(rng, l, l)
        w = complex_normal(rng, l, l)
        y, z = quartic_kernels(x, v, w)
        y_ref, z_ref = quartic_kernels_reference(x, v, w)
        assert np.linalg.norm(y - y_ref) <= 1e-11 * np.linalg.norm(y_ref)
        assert np.linalg.norm(z - z_ref) <= 1e-11 * np.linalg.norm(z_ref)

    def test_trace_identity(self, rng):
        # tr(X^H W X V^T) equals the lifted quadratic form for L <= 6
        for l in (2, 4, 6):
            x = complex_normal(rng, l, l)
            v = complex_normal(rng, l, l)
            w = complex_normal(rng, l, l)
            lhs = np.trace(x.conj().T @ w @ x @ v.T)
            xv = x.ravel(order="F")
            rhs = xv.conj() @ np.kron(v, w) @ xv
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_lifted_operator_is_hermitian_psd(self, rng):
        for l in (2, 3, 4):
            g = complex_normal(rng, l, 2)
            p = complex_normal(rng, 2, 2)
            gp = g @ p
            v = (gp @ gp.conj().T).T
            w = g.conj() @ g.T
            q = np.kron(v, w)
            np.testing.assert_allclose(q, q.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(q)[0] >= -1e-10 * np.linalg.norm(q)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ConfigError):
            quartic_kernels(np.ones((2, 2)), np.ones((3, 3)), np.ones((3, 3)))
        with pytest.raises(ConfigError):
            quartic_kernels_reference(np.ones((9, 9)), np.ones((9, 9)),
                                      np.ones((9, 9)))


class TestG4ThreeWays:
    def test_trace_vec_and_kernel_paths_agree(self, rng):
        for _ in range(5):
            cfg, ch, p, theta = random_scene(rng, l_rows=2, l_cols=2, n_tx=2)
            coef = cfg.beta * abs(cfg.alpha) ** 2 / cfg.sigma2_radar
            th_mat = np.diag(theta.theta)
            pp = p.p @ p.p.conj().T
            # (i) five-factor trace form
            x = th_mat @ np.outer(ch.steer, ch.steer) @ th_mat
            g4_trace = coef * np.real(np.trace(
                ch.g.T @ x @ ch.g @ pp @ ch.g.conj().T @ x.conj().T @ ch.g.conj()))
            # (ii) lifted vec form
            v = (ch.g @ pp @ ch.g.conj().T).T
            w = ch.g.conj() @ ch.g.T
            xv = x.ravel(order="F")
            g4_vec = coef * np.real(xv.conj() @ np.kron(v, w) @ xv)
            # (iii) kernel-product form used by the decomposition
            g4_kernel = decompose_objective(p, theta, ch, cfg).g4
            assert g4_trace == pytest.approx(g4_vec, rel=1e-9)
            assert g4_kernel == pytest.approx(g4_vec, rel=1e-9)


class TestGlobalPhaseInvariance:
    def test_g2_invariant_under_global_rotation(self, rng):
        cfg, ch, p, theta = random_scene(rng)
        for phi in (0.3, 1.7, 4.4):
            rotated = IrsPhase(np.exp(1j * phi) * theta.theta)
            g2_a = decompose_objective(p, theta, ch, cfg).g2
            g2_b = decompose_objective(p, rotated, ch, cfg).g2
            assert g2_b == pytest.approx(g2_a, rel=1e-10)


class TestIrsPhaseType:
    def test_rejects_non_unit_modulus(self):
        with pytest.raises(ConfigError):
            IrsPhase(np.array([1.0 + 0.0j, 0.5 + 0.0j]))

    def test_accepts_constructed_phases(self, rng):
        IrsPhase(np.exp(2j * np.pi * rng.random(7)))


class TestPrecoderType:
    def test_power(self, rng):
        p = Precoder(np.eye(3, 2, dtype=complex))
        assert p.power() == pytest.approx(2.0)
