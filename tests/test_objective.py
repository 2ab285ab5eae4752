import numpy as np
import pytest

from isacopt import (ChannelConstants, ConfigError, IrsPhase, Precoder,
                     SceneConfig, build_omega, default_beampattern_target,
                     make_channels, quartic_kernels, snr_radar, solve_relaxed,
                     weighted_snr)
from isacopt.scene import ChannelSet, complex_normal

from conftest import (eigh_rows, omega_rows, random_phases, random_scene,
                      small_config)
from reference import (decompose_objective, effective_comm_channel,
                       effective_radar_channel, quartic_kernels_reference)


def run_rows(theta, ch, cfg):
    """The effective channels a run forms at theta."""
    return ChannelConstants(ch, cfg).channels(theta)


def run_radar_channel(theta, ch, cfg):
    """alpha t t^T from the row t the run forms at theta."""
    t = run_rows(theta, ch, cfg).t
    return cfg.alpha * np.outer(t, t)


class TestEffectiveRadarChannel:
    def test_zero_alpha_gives_zero(self, rng):
        cfg, ch, p, theta = random_scene(rng, alpha=0.0)
        for c_r in (run_radar_channel(theta, ch, cfg),
                    effective_radar_channel(theta, ch, cfg)):
            np.testing.assert_array_equal(c_r, np.zeros((cfg.n_tx, cfg.n_tx)))

    def test_scalar_case(self, rng):
        cfg = small_config(l_rows=1, l_cols=1, n_tx=1, k=1, alpha=0.3 + 0.1j)
        g = np.array([[2.0 + 1.0j]])
        steer = np.array([1.0 + 0.0j])
        ch = ChannelSet(g=g, h=np.array([[0.0j]]), f=np.array([[0.0j]]),
                        steer=steer)
        phi = 0.77
        theta = IrsPhase(np.array([np.exp(1j * phi)]))
        expected = cfg.alpha * g[0, 0] ** 2 * np.exp(2j * phi)
        for c_r in (run_radar_channel(theta, ch, cfg),
                    effective_radar_channel(theta, ch, cfg)):
            assert c_r[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_matches_five_factor_product(self, rng):
        cfg, ch, p, theta = random_scene(rng, l_rows=2, l_cols=2, n_tx=2)
        th_mat = np.diag(theta.theta)
        r_mat = np.outer(ch.steer, ch.steer)
        brute = cfg.alpha * ch.g.T @ th_mat @ r_mat @ th_mat @ ch.g
        for c_r in (run_radar_channel(theta, ch, cfg),
                    effective_radar_channel(theta, ch, cfg)):
            np.testing.assert_allclose(c_r, brute, rtol=1e-12, atol=1e-14)

    def test_rank_at_most_one(self, rng):
        cfg, ch, p, theta = random_scene(rng)
        s = np.linalg.svd(run_radar_channel(theta, ch, cfg),
                          compute_uv=False)
        assert s[1] <= 1e-12 * max(s[0], 1.0)

    def test_dimension_mismatch(self, rng):
        cfg, ch, p, theta = random_scene(rng)
        bad = IrsPhase(np.ones(cfg.n_irs + 1, dtype=complex))
        with pytest.raises(ConfigError):
            snr_radar(p, bad, ch, cfg)


class TestEffectiveCommChannel:
    def test_zero_h_gives_f(self, rng):
        cfg, ch, p, theta = random_scene(rng)
        ch.h = np.zeros_like(ch.h)
        for c_c in (run_rows(theta, ch, cfg).comm,
                    effective_comm_channel(theta, ch)):
            np.testing.assert_allclose(c_c, ch.f)

    def test_identity_phases_zero_f(self, rng):
        cfg, ch, p, theta = random_scene(rng)
        ch.f = np.zeros_like(ch.f)
        ones = IrsPhase(np.ones(cfg.n_irs, dtype=complex))
        for c_c in (run_rows(ones, ch, cfg).comm,
                    effective_comm_channel(ones, ch)):
            np.testing.assert_allclose(c_c, ch.h @ ch.g, rtol=1e-12)

    def test_matches_triple_loop(self, rng):
        cfg, ch, p, theta = random_scene(rng, l_rows=2, l_cols=2)
        out = run_rows(theta, ch, cfg).comm
        np.testing.assert_array_equal(out, effective_comm_channel(theta, ch))
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


class TestEffectiveChannels:
    """Omega's top eigenpair from its rows against a dense eigh."""

    @staticmethod
    def _check(cfg, ch, theta) -> bool:
        """Compare at one scene; True if the eigenvector was compared."""
        return TestEffectiveChannels._check_rows(
            run_rows(theta, ch, cfg), build_omega(theta, ch, cfg))

    @staticmethod
    def _check_rows(rows, omega) -> bool:
        """Compare an ``OmegaRows`` with its dense Omega; True if the
        eigenvector was compared."""
        lam, top, norm = rows.top_eigenpair()
        w, u = np.linalg.eigh(omega)
        assert abs(lam - w[-1]) <= 1e-13 * w[-1]
        assert abs(norm - np.linalg.norm(omega)) <= 1e-13 * np.linalg.norm(omega)
        assert abs(np.linalg.norm(top) - 1.0) <= 1e-14
        if w[-1] - w[-2] <= 1e-6 * w[-1]:
            return False
        assert abs(np.vdot(u[:, -1], top)) >= 1.0 - 1e-12
        return True

    @pytest.mark.kernels
    @pytest.mark.parametrize("beta", [0.0, 0.01, 0.5, 0.99, 1.0])
    def test_matches_dense_eigh(self, beta):
        # beta = 0 and 1 leave one weight zero, and so Omega's rank K or 1
        compared = 0
        for seed in range(20):
            rng = np.random.default_rng([31, seed])
            cfg = SceneConfig(beta=beta)
            ch = make_channels(cfg, rng)
            compared += self._check(cfg, ch, random_phases(rng, cfg.n_irs))
        assert compared >= 10

    def test_matches_dense_eigh_with_as_many_users_as_antennas(self):
        # 1 + K rows for N columns: the Gram matrix is singular
        compared = 0
        for seed in range(20):
            rng = np.random.default_rng([32, seed])
            cfg, ch, _, theta = random_scene(rng, l_rows=2, l_cols=3, n_tx=4,
                                             k=4)
            compared += self._check(cfg, ch, theta)
        assert compared >= 10

    @pytest.mark.parametrize("case", ["random", "zero_rows", "zero_weight",
                                      "zero"])
    def test_omega_rows_match_dense_eigh(self, case):
        # fewer rows than N, as many and more, with some rows or weights 0
        compared = 0
        for seed in range(20):
            rng = np.random.default_rng([33, seed])
            n, r = 6, int(rng.integers(1, 10))
            x = complex_normal(rng, r, n)
            d = rng.uniform(0.1, 10.0, r)
            if case == "zero_rows":
                x[rng.random(r) < 0.5] = 0.0
            elif case == "zero_weight":
                d[rng.integers(r)] = 0.0
            elif case == "zero":
                d[:] = 0.0
            rows, omega = omega_rows(x, d)
            compared += self._check_rows(rows, omega)
        if case == "zero":
            lam, top, norm = rows.top_eigenpair()
            assert lam == norm == 0.0
            np.testing.assert_array_equal(top, np.eye(n)[-1])
        else:
            assert compared >= 10

    def test_rows_are_the_channels(self, rng):
        # one (1 + K) x N array, bit-equal to the channels formed apart
        for _ in range(5):
            cfg, ch, _, theta = random_scene(rng, l_rows=2, l_cols=3, n_tx=4,
                                             k=3)
            channels = run_rows(theta, ch, cfg)
            assert channels.rows.shape == (1 + cfg.n_users, cfg.n_tx)
            np.testing.assert_array_equal(channels.t,
                                          ch.g.T @ (theta.theta * ch.steer))
            np.testing.assert_array_equal(
                channels.comm, ch.f + (ch.h * theta.theta) @ ch.g)
            assert np.shares_memory(channels.t, channels.rows)
            assert np.shares_memory(channels.comm, channels.rows)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_zero_channels(self, rng, beta):
        # Omega = 0: no 0/0 (a RuntimeWarning fails the test), and the same
        # S as the dense Omega's eigh factor (the rows of I, weights 0), from
        # its last unit eigenvector
        cfg, ch, _, theta = random_scene(rng, n_tx=4, beta=beta)
        zero = ChannelSet(g=np.zeros_like(ch.g), h=np.zeros_like(ch.h),
                          f=np.zeros_like(ch.f), steer=ch.steer)
        channels = run_rows(theta, zero, cfg)
        lam, top, norm = channels.top_eigenpair()
        assert lam == 0.0 and norm == 0.0
        np.testing.assert_array_equal(top, np.eye(cfg.n_tx)[-1])
        r_d = default_beampattern_target(cfg)
        s = solve_relaxed(channels, cfg)
        dense = solve_relaxed(eigh_rows(build_omega(theta, zero, cfg)), cfg)
        np.testing.assert_array_equal(s.s, dense.s)
        assert s.dual_bound == dense.dual_bound == 0.0


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

    def test_rejects_an_empty_vector(self):
        with pytest.raises(ConfigError, match="empty vector"):
            IrsPhase(np.array([], dtype=complex))

    def test_accepts_constructed_phases(self, rng):
        IrsPhase(np.exp(2j * np.pi * rng.random(7)))

    def test_non_unit_phase_still_raises(self, rng):
        # unit skips the check (exp(j angles) and x / |x| are unit-modulus
        # by construction); phases from anywhere else are still checked
        angles = 2 * np.pi * rng.random(7)
        unit = np.exp(1j * angles)
        trusted = IrsPhase.unit(unit)
        assert trusted.theta is unit
        IrsPhase(trusted.theta)
        with pytest.raises(ConfigError, match="unit modulus"):
            IrsPhase(trusted.theta * (1.0 + 1e-9))
        with pytest.raises(ConfigError, match="unit modulus"):
            IrsPhase([1.0, np.nan])


class TestPrecoderType:
    def test_power(self, rng):
        p = Precoder(np.eye(3, 2, dtype=complex))
        assert p.power() == pytest.approx(2.0)
