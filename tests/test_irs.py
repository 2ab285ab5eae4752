import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isacopt.irs as irs
from isacopt import (ChannelConstants, IrsPhase, Precoder,
                     build_quadratic_terms, irs_phase_update, make_channels,
                     solve_irs_manifold, solve_irs_minorization)
from isacopt.errors import MonotonicityError
from isacopt.irs import (SurrogateFactors, ascent_anchor,
                         build_quartic_surrogate, linear_surrogate_vectors)
from isacopt.objective import (comm_coefficient, quartic_coefficient,
                               snr_comm, snr_radar, weighted_snr)
from isacopt.scene import ChannelSet, complex_normal

from conftest import (paper_scene, random_phases, random_scene,
                      scored_start, small_config)
from reference import (anchor_for, anchored_surrogate_value,
                       decompose_objective, dense_ascent_anchor, dense_form,
                       dense_linearization, dense_quadratic_terms,
                       extended_objective, factors_mu, gradient_at,
                       hadamard_u3, plain_linearization, plain_minorization,
                       quartic_at, quartic_surrogate_constant,
                       rejecting_extrapolations, wirtinger_gradient)


def surrogate_value(theta, u1, u2):
    return float(np.real(theta.conj() @ u1 @ theta.conj() + theta @ u2 @ theta))


class TestQuarticSurrogate:
    def test_beta_zero_vanishes(self, rng):
        cfg, ch, p, theta = random_scene(rng, beta=0.0)
        u1, u2 = build_quartic_surrogate(theta, p, ch, cfg)
        assert not u1.any() and not u2.any()

    def test_tangency_with_constant_restored(self, rng):
        for _ in range(10):
            cfg, ch, p, theta = random_scene(rng, l_rows=1, l_cols=3)
            u1, u2 = build_quartic_surrogate(theta, p, ch, cfg)
            constant = quartic_surrogate_constant(theta, p, ch, cfg)
            g4 = decompose_objective(p, theta, ch, cfg).g4
            assert surrogate_value(theta.theta, u1, u2) - constant \
                == pytest.approx(g4, rel=1e-9, abs=1e-12)

    def test_constant_matches_explicit_kronecker(self, rng):
        cfg, ch, p, theta = random_scene(rng, l_rows=2, l_cols=2)
        th = theta.theta
        x_t = (th[:, None] * np.outer(ch.steer, ch.steer)) * th[None, :]
        gp = ch.g @ p.p
        v = (gp @ gp.conj().T).T
        w = ch.g.conj() @ ch.g.T
        q = np.kron(v, w)
        xv = x_t.ravel(order="F")
        expected = quartic_coefficient(cfg) * float(np.real(xv.conj() @ q @ xv))
        assert quartic_surrogate_constant(theta, p, ch, cfg) \
            == pytest.approx(expected, rel=1e-10)

    def test_minorizes_quartic_term_globally(self, rng):
        cfg, ch, p, theta_t = random_scene(rng, l_rows=2, l_cols=2)
        u1, u2 = build_quartic_surrogate(theta_t, p, ch, cfg)
        constant = quartic_surrogate_constant(theta_t, p, ch, cfg)
        for _ in range(1000):
            theta = random_phases(rng, cfg.n_irs)
            g4 = decompose_objective(p, theta, ch, cfg).g4
            bound = surrogate_value(theta.theta, u1, u2) - constant
            assert g4 >= bound - 1e-9 * max(1.0, abs(g4))


class TestQuadraticTerms:
    def test_beta_one_vanishes(self, rng):
        cfg, ch, p, theta = random_scene(rng, beta=1.0)
        u3, mu = dense_quadratic_terms(p, ch, cfg)
        assert not u3.any() and not mu.any()

    def test_rows_match_the_hadamard_form(self, rng):
        # U3 as rows h_k o gp_j over the nonzero precoder columns, each of
        # weight cc, against cc (H^H H) o (GP (GP)^H)^T; a zero column of P
        # adds no row
        for zero_cols in (0, 1):
            cfg, ch, p, _ = random_scene(rng, l_rows=2, l_cols=3, k=3)
            pp = p.p.copy()
            pp[:, :zero_cols] = 0.0
            p = Precoder(pp)
            a, _ = build_quadratic_terms(p, ch, cfg)
            assert a.rows.shape == (3 * (3 - zero_cols), cfg.n_irs)
            assert np.all(a.weights == comm_coefficient(cfg))
            want = hadamard_u3(p, ch, cfg)
            np.testing.assert_allclose(dense_form(a), want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())

    def test_u3_hermitian_psd(self, rng):
        for _ in range(5):
            cfg, ch, p, _ = random_scene(rng)
            u3, _ = dense_quadratic_terms(p, ch, cfg)
            np.testing.assert_allclose(u3, u3.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(u3)[0] >= -1e-10 * max(
                1.0, np.linalg.norm(u3))

    def test_quadratic_form_matches_g2(self, rng):
        cfg, ch, p, _ = random_scene(rng)
        u3, _ = dense_quadratic_terms(p, ch, cfg)
        for _ in range(100):
            theta = random_phases(rng, cfg.n_irs)
            form = float(np.real(theta.theta.conj() @ u3 @ theta.theta))
            g2 = decompose_objective(p, theta, ch, cfg).g2
            assert form == pytest.approx(g2, rel=1e-10, abs=1e-12)

    def test_linear_form_matches_g1(self, rng):
        cfg, ch, p, _ = random_scene(rng)
        _, mu = build_quadratic_terms(p, ch, cfg)
        for _ in range(100):
            theta = random_phases(rng, cfg.n_irs)
            form = float(np.real(theta.theta.conj() @ mu.conj()
                                 + theta.theta @ mu))
            g1 = decompose_objective(p, theta, ch, cfg).g1
            assert form == pytest.approx(g1, rel=1e-10, abs=1e-12)

    def test_mu_is_diagonal_of_u4(self, rng):
        cfg, ch, p, _ = random_scene(rng)
        _, mu = build_quadratic_terms(p, ch, cfg)
        gp = ch.g @ p.p
        x = gp @ (ch.f @ p.p).conj().T
        cc = comm_coefficient(cfg)
        u4 = cc * (x @ ch.h)
        # mu sums the K products of each diagonal entry in its own order:
        # the two agree to the rounding of a K-term complex dot product
        scale = cc * np.sum(np.abs(x) * np.abs(ch.h.T), axis=1)
        err = 4.0 * (ch.h.shape[0] + 2) * np.finfo(float).eps * scale
        assert np.all(np.abs(mu - np.diagonal(u4)) <= err)


class TestLinearSurrogateVectors:
    def test_all_zero(self, rng):
        theta = random_phases(rng, 4)
        z = np.zeros((4, 4), dtype=complex)
        nu, eta = linear_surrogate_vectors(theta, z, z, z, np.zeros(4, complex))
        assert not nu.any() and not eta.any()

    def test_identity_quadratic_fixed_point(self, rng):
        theta = random_phases(rng, 5)
        z = np.zeros((5, 5), dtype=complex)
        nu, eta = linear_surrogate_vectors(theta, z, z, np.eye(5, dtype=complex),
                                           np.zeros(5, complex))
        np.testing.assert_allclose(nu, theta.theta, atol=1e-14)
        np.testing.assert_allclose(eta, theta.theta.conj(), atol=1e-14)
        out = irs_phase_update(nu)
        np.testing.assert_allclose(out.theta, theta.theta, atol=1e-12)

    def test_value_at_expansion_point(self, rng):
        cfg, ch, p, theta = random_scene(rng)
        u1, u2 = build_quartic_surrogate(theta, p, ch, cfg)
        u3, mu = dense_quadratic_terms(p, ch, cfg)
        nu, eta = linear_surrogate_vectors(theta, u1, u2, u3, mu)
        th = theta.theta
        got = float(np.real(th.conj() @ nu + th @ eta))
        expected = (2.0 * surrogate_value(th, u1, u2)
                    + 2.0 * float(np.real(th.conj() @ u3 @ th))
                    + 2.0 * float(np.real(th.conj() @ mu.conj())))
        assert got == pytest.approx(expected, rel=1e-10)


class TestPhaseUpdate:
    def test_phase_extraction(self):
        nu = np.array([1j, -1.0 + 0j])
        out = irs_phase_update(nu)
        np.testing.assert_allclose(out.theta,
                                   [np.exp(1j * np.pi / 2), np.exp(1j * np.pi)],
                                   atol=1e-15)

    def test_positive_real_gives_ones(self, rng):
        s = rng.uniform(0.1, 2.0, size=6).astype(complex)
        out = irs_phase_update(s)
        np.testing.assert_allclose(out.theta, np.ones(6), atol=1e-15)

    def test_attains_analytic_maximum_and_beats_random(self, rng):
        nu = complex_normal(rng, 8)
        out = irs_phase_update(nu)
        attained = float(np.real(out.theta.conj() @ nu))
        assert attained == pytest.approx(float(np.abs(nu).sum()), rel=1e-12)
        for _ in range(10_000):
            theta = np.exp(2j * np.pi * rng.random(8))
            value = float(np.real(theta.conj() @ nu))
            assert value <= attained + 1e-9

    @pytest.mark.kernels
    def test_exact_unit_modulus(self, rng):
        for l in (36, 50):      # 36: the paper's surface
            nu = complex_normal(rng, l)
            out = irs_phase_update(nu)
            assert np.max(np.abs(np.abs(out.theta) - 1.0)) <= 1e-15
            assert out.theta.tobytes() == np.exp(1j * np.angle(nu)).tobytes()

    def test_scale_free(self, rng):
        # no absolute cut-off: nu and 2^k nu give the same bits
        nu = complex_normal(rng, 200)
        nu[:4] = [0.0, 4e-15, 5e-15j, -6e-15]
        want = irs_phase_update(nu).theta.tobytes()
        for k in range(-900, 901):
            assert irs_phase_update(nu * 2.0 ** k).theta.tobytes() == want

    def test_zero_entries_give_unit_phases(self, rng):
        nu = complex_normal(rng, 8)
        nu[[0, 3, 5, 7]] = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0),
                            complex(-0.0, -0.0)]
        out = irs_phase_update(nu).theta
        assert np.max(np.abs(np.abs(out) - 1.0)) <= 1e-15
        assert out[0] == 1.0


class TestMinorizationSolver:
    def test_monotone_ascent_long_run(self, rng, monkeypatch):
        monkeypatch.setattr(irs, "_INNER_TOL", 0.0)
        for _ in range(8):
            cfg, ch, p, theta0 = random_scene(rng, l_rows=2, l_cols=3)
            _, trace = solve_irs_minorization(
                p, scored_start(theta0, p, ch, cfg), inner_max=100)
            objs = trace.objectives
            for a, b in zip(objs, objs[1:]):
                assert b >= a - 1e-9 * abs(a)

    def test_monotone_with_a_dead_element(self, monkeypatch):
        # element 2 neither receives (zero row of G) nor reaches a user
        # (zero column of H): its gradient entry is exactly zero, so
        # nu_2 = rho theta_2, and nu_2 = 0 where the anchor rho is 0, which
        # happens on some steps of the communication-only scenes
        monkeypatch.setattr(irs, "_INNER_TOL", 0.0)
        reset = 0
        for k, beta in enumerate([0.0] * 6 + [0.5, 0.9]):
            local = np.random.default_rng([161, k])
            cfg, ch, p, theta0 = random_scene(local, l_rows=2, l_cols=3,
                                              beta=beta)
            g, h = ch.g.copy(), ch.h.copy()
            g[2], h[:, 2] = 0.0, 0.0
            ch = ChannelSet(g=g, h=h, f=ch.f, steer=ch.steer)
            factors = SurrogateFactors(p, ChannelConstants(ch, cfg))
            th = theta0.theta
            assert gradient_at(factors, th)[2] == 0.0
            theta, trace = solve_irs_minorization(
                p, scored_start(theta0, p, ch, cfg), inner_max=60)
            assert np.max(np.abs(np.abs(theta.theta) - 1.0)) <= 1e-15
            for a, b in zip(trace.objectives, trace.objectives[1:]):
                assert b >= a - 1e-9 * abs(a)
            reset += theta.theta[2] == 1.0     # arg 0 = 0 once nu_2 = 0
        assert reset > 0

    def test_literal_mode_raises_on_radar_heavy_scene(self, rng):
        # without the anchor the plain update is not ascent-safe; hunt a
        # scene where iterating it dips by more than the solver's slack
        tripped = False
        for k in range(40):
            local = np.random.default_rng([99, k])
            cfg, ch, p, theta0 = random_scene(local, l_rows=2, l_cols=3,
                                              beta=0.97, alpha=1.0 + 0.0j)
            factors = SurrogateFactors(p, ChannelConstants(ch, cfg))
            th = theta0.theta
            g = factors.at(IrsPhase(th)).g
            for _ in range(150):
                th = irs_phase_update(plain_linearization(factors, th)).theta
                g_new = factors.at(IrsPhase(th)).g
                tripped = g_new < g - 1e-9 * abs(g)
                if tripped or g_new == g:
                    break
                g = g_new
            if tripped:
                break
        assert tripped

    def test_fixed_point_terminates_immediately(self, rng, monkeypatch):
        monkeypatch.setattr(irs, "_INNER_TOL", 1e-9)
        cfg, ch, p, theta0 = random_scene(rng)
        theta_star, _ = solve_irs_minorization(
            p, scored_start(theta0, p, ch, cfg), inner_max=300)
        _, trace = solve_irs_minorization(
            p, scored_start(theta_star, p, ch, cfg), inner_max=300)
        assert len(trace.objectives) <= 3

    def test_beats_random_search(self, rng):
        cfg, ch, p, theta0 = random_scene(rng, l_rows=2, l_cols=3)
        theta, trace = solve_irs_minorization(
            p, scored_start(theta0, p, ch, cfg), inner_max=300)
        best = max(weighted_snr(p, random_phases(rng, cfg.n_irs), ch, cfg)
                   for _ in range(100_000))
        assert trace.objectives[-1] >= best

    def test_phase_alignment_limit(self, rng):
        # single-user reflected-only downlink: the optimum aligns the
        # per-element phases of the composite channel
        cfg = small_config(l_rows=2, l_cols=2, n_tx=1, k=1, beta=0.0)
        g = complex_normal(rng, 4, 1)
        h = complex_normal(rng, 1, 4)
        steer = np.exp(2j * np.pi * rng.random(4))
        ch = ChannelSet(g=g, h=h, f=np.zeros((1, 1), dtype=complex),
                        steer=steer)
        p = Precoder(np.array([[1.0 + 0.0j]]))
        theta, trace = solve_irs_minorization(
            p, scored_start(IrsPhase(np.ones(4, dtype=complex)), p, ch, cfg),
            inner_max=300)
        aligned = IrsPhase(np.exp(-1j * (np.angle(h[0]) + np.angle(g[:, 0]))))
        optimum = weighted_snr(p, aligned, ch, cfg)
        assert trace.objectives[-1] >= optimum * (1 - 1e-6)

    def test_surrogate_gaps_nonnegative_with_safeguard(self, rng, monkeypatch):
        # the anchored surrogate lies above its linearization at each of the
        # plain map's 60 iterates, which are replayed here step by step
        cfg, ch, p, theta0 = random_scene(rng, l_rows=2, l_cols=3)
        factors = SurrogateFactors(p, ChannelConstants(ch, cfg))
        th, gaps = theta0.theta, []
        for _ in range(60):
            quartic = quartic_at(factors, th)
            pv, qv = quartic[:2]
            rho = anchor_for(factors, pv, qv)
            nu = factors.linearize(factors.at(IrsPhase(th)))
            new = irs_phase_update(nu).theta
            lifted = anchored_surrogate_value(factors, th, pv, qv, rho) \
                + 2.0 * float(np.real(np.vdot(new - th, nu)))
            gaps.append(anchored_surrogate_value(factors, new, pv, qv, rho)
                        - lifted)
            th = new
        monkeypatch.setattr(irs, "_INNER_TOL", 0.0)
        theta, trace = plain_minorization(theta0, p, ch, cfg, inner_max=60)
        assert len(trace.objectives) == 61
        assert np.array_equal(theta.theta, th)
        assert len(gaps) == 60
        assert all(gap >= -1e-9 for gap in gaps)

    @pytest.mark.parametrize("inner_max", [1, 2])
    @pytest.mark.parametrize("beta", [0.5, 0.9])
    def test_caps_one_and_two_run_the_plain_map(self, inner_max, beta):
        # no room for a cycle: the phases, objectives, channels and products
        # are the plain map's, bit for bit
        for k in range(5):
            cfg, ch, p, theta0 = random_scene(np.random.default_rng([71, k]),
                                              beta=beta)
            theta, trace = solve_irs_minorization(
                p, scored_start(theta0, p, ch, cfg), inner_max=inner_max)
            want, ref = plain_minorization(theta0, p, ch, cfg,
                                           inner_max=inner_max)
            assert theta.theta.tobytes() == want.theta.tobytes()
            assert trace.objectives == ref.objectives
            end, want_end = trace.end, ref.end
            assert ((end.g, end.snr_radar, end.snr_comm)
                    == (want_end.g, want_end.snr_radar, want_end.snr_comm))
            assert end.y.tobytes() == want_end.y.tobytes()
            assert (end.channels.rows.tobytes()
                    == want_end.channels.rows.tobytes())

    def test_monotone_at_every_cap(self, monkeypatch):
        # each cap runs cycles of three maps and plain maps after them; the
        # kept objectives never fall, and one more map never ends lower
        monkeypatch.setattr(irs, "_INNER_TOL", 0.0)
        for k in range(4):
            cfg, ch, p, theta0 = random_scene(np.random.default_rng([72, k]),
                                              l_rows=2, l_cols=3, beta=0.9)
            finals = []
            for cap in range(1, 31):
                _, trace = solve_irs_minorization(
                    p, scored_start(theta0, p, ch, cfg), inner_max=cap)
                objs = trace.objectives
                assert all(b >= a - 1e-9 * abs(a) for a, b in zip(objs, objs[1:]))
                assert len(objs) - 1 <= cap
                finals.append(objs[-1])
            assert all(b >= a - 1e-9 * abs(a)
                       for a, b in zip(finals, finals[1:]))

    def test_rejected_extrapolations_keep_the_plain_maps(self, monkeypatch):
        # every extrapolated point forced back to theta0, whose map lies
        # below two maps further on: each cycle keeps its two plain maps,
        # so a cap of 3c + s keeps the plain map's first 2c + s iterates
        monkeypatch.setattr(irs, "_INNER_TOL", 0.0)
        monkeypatch.setattr(irs, "squarem_ascent",
                            rejecting_extrapolations(irs.squarem_ascent))
        for k in range(4):
            cfg, ch, p, theta0 = random_scene(np.random.default_rng([73, k]),
                                              l_rows=2, l_cols=3, beta=0.9)
            for cap in (3, 4, 5, 30, 31, 32):
                theta, trace = solve_irs_minorization(
                    p, scored_start(theta0, p, ch, cfg), inner_max=cap)
                cycles, plain = divmod(cap, 3)
                want, ref = plain_minorization(theta0, p, ch, cfg,
                                               inner_max=2 * cycles + plain)
                assert theta.theta.tobytes() == want.theta.tobytes()
                assert trace.objectives == ref.objectives

    def test_accelerated_ends_at_least_near_the_plain_map(self):
        # both stop once a map from the current phases gains at most
        # _INNER_TOL = 1e-6 relative, which bounds how far below the plain
        # solve the accelerated one may end; measured here, it ends 2.6e-7
        # to 6.7e-2 relative above
        ratios = []
        for k in range(20):
            cfg, ch, p, theta0 = random_scene(np.random.default_rng([74, k]),
                                              l_rows=2, l_cols=3)
            _, trace = solve_irs_minorization(
                p, scored_start(theta0, p, ch, cfg), inner_max=200)
            _, ref = plain_minorization(theta0, p, ch, cfg, inner_max=200)
            ratios.append(trace.objectives[-1] / ref.objectives[-1])
        assert min(ratios) >= 1.0 - irs._INNER_TOL


class TestAscentAnchor:
    def test_zero_for_psd_quadratic(self, rng):
        u3 = complex_normal(rng, 5, 5)
        u3 = u3 @ u3.conj().T
        assert dense_ascent_anchor(np.zeros((5, 5), dtype=complex), u3) == 0.0

    def test_positive_for_indefinite_part(self, rng):
        u1 = complex_normal(rng, 5, 5)
        u1 = 0.5 * (u1 + u1.T)
        rho = dense_ascent_anchor(u1, np.zeros((5, 5), dtype=complex))
        assert rho > 0
        # loaded displacement form must be PSD: sample random directions
        for _ in range(300):
            d = complex_normal(rng, 5)
            val = 2 * np.real(d.conj() @ u1 @ d.conj()) + rho * np.vdot(d, d).real
            assert val >= -1e-9 * max(1.0, abs(val))

    @staticmethod
    def _anchors(factors, pv, qv):
        """(solver's rho, QR route's rho, dense oracle's rho) for (p, q)."""
        rho = anchor_for(factors, pv, qv)
        rho_qr = ascent_anchor(np.linalg.qr(factors.rows.T, mode="r").T,
                               factors.c, factors.cc)
        u1 = 0.5 * factors.c * (np.outer(pv, qv) + np.outer(qv, pv))
        u3 = factors.cc * (factors.rows[2:].T @ factors.rows[2:].conj())
        return rho, rho_qr, dense_ascent_anchor(u1, u3)

    @pytest.mark.kernels
    @pytest.mark.parametrize("near_dependent", [False, True])
    @pytest.mark.parametrize("nonzero_cols", [1, 3])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (6, 6), (16, 16)])
    def test_congruence_matches_dense_oracle(self, shape, nonzero_cols,
                                             near_dependent):
        # L = 4, and L = 9 with 3 columns, have L < m = 2 + 3 r, where
        # M^H M is singular and the rows M^T serve; the others take its
        # Cholesky factor, or the rows where it is not positive definite.  A
        # nearly dependent basis has p within 1e-8 of a column of Psi.
        for seed in range(6):
            rng = np.random.default_rng([88, *shape, nonzero_cols,
                                         near_dependent, seed])
            cfg, ch, p, theta = random_scene(
                rng, l_rows=shape[0], l_cols=shape[1], n_tx=4, k=3,
                beta=float(rng.uniform(0.9, 0.99)), alpha=1.0 + 0.0j)
            pp = p.p.copy()
            pp[:, nonzero_cols:] = 0.0
            factors = SurrogateFactors(Precoder(pp), ChannelConstants(ch, cfg))
            pv, qv = quartic_at(factors, theta.theta)[:2]
            if near_dependent:
                col = factors.rows[2]
                pv = (col * (np.linalg.norm(pv) / np.linalg.norm(col))
                      + 1e-8 * np.linalg.norm(pv) / np.sqrt(len(pv))
                      * complex_normal(rng, len(pv)))
            rho, rho_qr, rho_d = self._anchors(factors, pv, qv)
            assert rho_d > 0.0
            assert abs(rho - rho_d) <= 1e-10 * rho_d
            assert abs(rho_qr - rho_d) <= 1e-10 * rho_d
            assert abs(rho - rho_qr) <= 1e-12 * rho_qr
            # the anchored displacement form is PSD
            u1 = 0.5 * factors.c * (np.outer(pv, qv) + np.outer(qv, pv))
            u3 = factors.cc * (factors.rows[2:].T @ factors.rows[2:].conj())
            for _ in range(20):
                d = complex_normal(rng, cfg.n_irs)
                val = (2.0 * np.real(d.conj() @ u1 @ d.conj())
                       + np.real(d.conj() @ u3 @ d) + rho * np.vdot(d, d).real)
                assert val >= -1e-9 * rho * np.vdot(d, d).real

    @pytest.mark.kernels
    def test_routes(self, rng, monkeypatch):
        # the Cholesky factor where M^H M is positive definite, the rows
        # M^T themselves (no factorization) where it is not (a user with no
        # reflected channel leaves zero columns in Psi) or where L < m
        # makes it singular; the last "qr" of each is the QR reference's
        calls = []
        cholesky, qr = np.linalg.cholesky, np.linalg.qr

        def spy_cholesky(a):
            try:
                out = cholesky(a)
            except np.linalg.LinAlgError:
                calls.append("cholesky failed")
                raise
            calls.append("cholesky")
            return out

        def spy_qr(a, mode):
            calls.append("qr")
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "cholesky", spy_cholesky)
        monkeypatch.setattr(np.linalg, "qr", spy_qr)
        # the last case is the paper's scene (N = 16, K = 5, L = 36)
        for l_cols, dead_user, want in (
                (6, False, ["cholesky", "qr"]),
                (6, True, ["cholesky failed", "qr"]),
                (2, False, ["qr"]),
                (None, False, ["cholesky", "qr"])):
            cfg, ch, p, theta = (
                paper_scene(rng) if l_cols is None else
                random_scene(rng, l_rows=2, l_cols=l_cols, n_tx=4, k=2,
                             beta=0.9))
            if dead_user:
                h = ch.h.copy()
                h[0] = 0.0
                ch = ChannelSet(g=ch.g, h=h, f=ch.f, steer=ch.steer)
            # m = 2 + 2 K: 6, and 12 in the paper's scene
            factors = SurrogateFactors(p, ChannelConstants(ch, cfg))
            pv, qv = quartic_at(factors, theta.theta)[:2]
            calls.clear()
            rho, rho_qr, rho_d = self._anchors(factors, pv, qv)
            assert calls == want
            assert rho_d > 0.0
            assert abs(rho - rho_d) <= 1e-10 * rho_d
            assert abs(rho_qr - rho_d) <= 1e-10 * rho_d
            assert abs(rho - rho_qr) <= 1e-12 * rho_qr


def _rel_err(got, want):
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


@pytest.mark.kernels
class TestDipAllowance:
    """The inner ascent check's allowance, derived from the rounding of a
    computed objective (``SurrogateFactors.dip_allowance``)."""

    # measured: within 4.2e-6 of half the allowance over these draws, which
    # is 0.9 to 1.6e-10 of g
    def test_bounds_the_rounding_of_one_objective(self):
        for seed in range(20):
            cfg, ch, p, theta = paper_scene(np.random.default_rng(seed))
            factors = SurrogateFactors(p, ChannelConstants(ch, cfg))
            allowance = factors.dip_allowance()
            g = factors.at(theta).g
            exact = extended_objective(factors, theta.theta)
            assert abs(g - exact) <= allowance / 2
            assert allowance <= 1e-9 * g

    @pytest.mark.parametrize("dip, raises", [(0.5, False), (2.0, True)])
    def test_dip_just_inside_and_beyond(self, rng, dip, raises):
        # one map from theta0 ends at a computed g1; the same map restarted
        # from theta0's point with its objective raised to g1 + dip *
        # allowance dips by that much, with nothing else changed
        cfg, ch, p, theta0 = paper_scene(rng)
        allowance = SurrogateFactors(
            p, ChannelConstants(ch, cfg)).dip_allowance()
        start = scored_start(theta0, p, ch, cfg)
        _, trace = solve_irs_minorization(p, start, inner_max=1)
        g1 = trace.objectives[1]
        raised = start._replace(g=g1 + dip * allowance)
        if raises:
            with pytest.raises(MonotonicityError, match="decreased"):
                solve_irs_minorization(p, raised, inner_max=1)
        else:
            _, again = solve_irs_minorization(p, raised, inner_max=1)
            assert again.objectives[1] == g1


class TestSurrogateFactors:
    @pytest.mark.kernels
    @pytest.mark.parametrize("safeguard", [True, False])
    @pytest.mark.parametrize("nonzero_cols", [1, 3])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (6, 6)])
    def test_matches_dense_oracle(self, shape, nonzero_cols, safeguard):
        rng = np.random.default_rng([77, *shape, nonzero_cols])
        active = 0
        for _ in range(5):
            cfg, ch, p, theta = random_scene(
                rng, l_rows=shape[0], l_cols=shape[1], n_tx=4, k=3,
                beta=float(rng.uniform(0.05, 0.99)),
                alpha=complex(10 ** rng.uniform(-2, 0)))
            pp = p.p.copy()
            pp[:, nonzero_cols:] = 0.0      # zero columns, as a padded factor
            p = Precoder(pp)
            nu_d, eta_d, rho_d = dense_linearization(theta, p, ch, cfg,
                                                     safeguard)
            _, mu_d = build_quadratic_terms(p, ch, cfg)
            factors = SurrogateFactors(p, ChannelConstants(ch, cfg))
            quartic = quartic_at(factors, theta.theta)
            if safeguard:
                nu = factors.linearize(factors.at(theta))
                rho = anchor_for(factors, *quartic[:2])
            else:
                nu, rho = plain_linearization(factors, theta.theta), 0.0
            assert _rel_err(nu, nu_d) <= 1e-10
            assert _rel_err(nu.conj(), eta_d) <= 1e-10
            assert _rel_err(factors_mu(factors), mu_d) <= 1e-10
            assert abs(rho - rho_d) <= 1e-10 * max(rho_d, 1e-300)
            active += rho_d > 0.0
        # the anchor comparison must not hold only because rho vanishes
        assert active > 0 if safeguard else active == 0

    def test_surrogate_value_matches_dense(self, rng):
        cfg, ch, p, theta_t = random_scene(rng, l_rows=2, l_cols=3)
        factors = SurrogateFactors(p, ChannelConstants(ch, cfg))
        pv, qv, _, _ = quartic_at(factors, theta_t.theta)
        u1, u2 = build_quartic_surrogate(theta_t, p, ch, cfg)
        u3, mu = dense_quadratic_terms(p, ch, cfg)
        rho = 0.3
        for _ in range(20):
            th = random_phases(rng, cfg.n_irs).theta
            dense = (surrogate_value(th, u1, u2)
                     + float(np.real(th.conj() @ (u3 + rho * np.eye(len(th))) @ th))
                     + 2.0 * float(np.real(th @ mu)))
            assert anchored_surrogate_value(factors, th, pv, qv, rho) \
                == pytest.approx(dense, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(l=st.integers(1, 36),
           beta=st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                          st.floats(0.0, 1.0)),
           zero_cols=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_value_matches_effective_channels(self, l, beta, zero_cols, seed):
        rng = np.random.default_rng(seed)
        cfg, ch, p, theta = random_scene(rng, l_rows=1, l_cols=l, n_tx=4, k=3,
                                         beta=beta)
        pp = p.p.copy()
        pp[:, 3 - zero_cols:] = 0.0
        p = Precoder(pp)
        factors = SurrogateFactors(p, ChannelConstants(ch, cfg))
        point = factors.at(theta)
        assert point.g == pytest.approx(weighted_snr(p, theta, ch, cfg),
                                        rel=1e-12)
        assert point.snr_radar == pytest.approx(snr_radar(p, theta, ch, cfg),
                                                rel=1e-12)
        assert point.snr_comm == pytest.approx(snr_comm(p, theta, ch, cfg),
                                               rel=1e-12)

    def test_no_dense_matrix_on_solver_path(self, monkeypatch):
        cfg = small_config(l_rows=32, l_cols=32, n_tx=8, k=3, beta=0.9)
        rng = np.random.default_rng(5)
        ch = make_channels(cfg, rng)
        p = Precoder(complex_normal(rng, cfg.n_tx, cfg.n_users) / 5.0)
        theta = random_phases(rng, cfg.n_irs)
        dense_bytes = cfg.n_irs ** 2 * 16
        monkeypatch.setattr(irs, "_INNER_TOL", 0.0)
        tracemalloc.start()
        try:
            solve_irs_minorization(
                p, scored_start(theta, p, ch, cfg), inner_max=2)
            wirtinger_gradient(theta, p, ch, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 4


class TestWirtingerGradient:
    def test_zero_when_objective_constant(self, rng):
        cfg, ch, p, theta = random_scene(rng, beta=1.0, alpha=0.0)
        grad = wirtinger_gradient(theta, p, ch, cfg)
        np.testing.assert_allclose(grad, 0.0, atol=1e-14)

    def test_matches_central_finite_differences(self, rng):
        for _ in range(6):
            cfg, ch, p, theta = random_scene(rng, l_rows=2, l_cols=2)
            grad = wirtinger_gradient(theta, p, ch, cfg)
            step = 1e-6
            for l in range(cfg.n_irs):
                for direction in (1.0, 1j):
                    delta = np.zeros(cfg.n_irs, dtype=complex)
                    delta[l] = direction * step
                    up = _g_offcircle(theta.theta + delta, p, ch, cfg)
                    down = _g_offcircle(theta.theta - delta, p, ch, cfg)
                    fd = (up - down) / (2 * step)
                    analytic = 2 * np.real(grad[l] * np.conj(direction))
                    assert analytic == pytest.approx(
                        fd, rel=1e-5, abs=1e-6 * max(1.0, abs(fd)))

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_matches_dense_formula(self, rng, k):
        # the communication part comes from C P, one term per column of P
        for _ in range(5):
            cfg, ch, p, theta = random_scene(rng, l_rows=3, l_cols=3, n_tx=6,
                                             k=k)
            u3, mu = dense_quadratic_terms(p, ch, cfg)
            gp = ch.g @ p.p
            v = (gp @ gp.conj().T).T
            w = ch.g.conj() @ ch.g.T
            b = theta.theta * ch.steer
            q_v = float(np.real(b.conj() @ v @ b))
            q_w = float(np.real(b.conj() @ w @ b))
            dense = (mu.conj() + u3 @ theta.theta + ch.steer.conj()
                     * (quartic_coefficient(cfg) * (q_w * v @ b + q_v * w @ b)))
            grad = wirtinger_gradient(theta, p, ch, cfg)
            assert _rel_err(grad, dense) <= 1e-10

    def test_radar_term_scales_with_noise_power(self, rng):
        cfg, ch, p, theta = random_scene(rng, beta=1.0)
        cfg2 = small_config(beta=1.0, sigma2_radar=2 * cfg.sigma2_radar,
                            alpha=cfg.alpha)
        g1 = wirtinger_gradient(theta, p, ch, cfg)
        g2 = wirtinger_gradient(theta, p, ch, cfg2)
        np.testing.assert_allclose(g2, 0.5 * g1, rtol=1e-12)


@pytest.mark.parametrize("solve, inner_max", [
    (solve_irs_minorization, 1), (solve_irs_minorization, 5),
    (solve_irs_manifold, 50)], ids=["plain", "squarem", "manifold"])
def test_solvers_hand_over_the_scored_point_of_their_phases(
        solve, inner_max, monkeypatch):
    # trace.end is what the next outer iteration starts from: the returned
    # phases, the products Y = W P there and the scores Y gives.  With
    # no stop every step runs and is kept, the cycle's extrapolated map at
    # a cap of 5 too, so each cap ends as far along as it can.  A solve
    # restarted from the end of one step goes on as one solve of two steps.
    monkeypatch.setattr(irs, "_INNER_TOL", 0.0)
    for k in range(4):
        cfg, ch, p, theta0 = random_scene(np.random.default_rng([75, k]),
                                          l_rows=2, l_cols=3, beta=0.9)
        start = scored_start(theta0, p, ch, cfg)
        theta, trace = solve(p, start, inner_max=inner_max)
        end, p_nz = trace.end, p.p
        assert end.channels.theta is theta
        assert end.theta is theta.theta
        assert len(trace.objectives) == inner_max + 1
        assert end.y.tobytes() == (end.channels.rows @ p_nz).tobytes()
        again = end.channels.score(p_nz)
        assert ((end.g, end.snr_radar, end.snr_comm)
                == (again.g, again.snr_radar, again.snr_comm))
        assert end.g == trace.objectives[-1]

        _, first = solve(p, start, inner_max=1)
        again, second = solve(p, first.end, inner_max=1)
        whole, joined = solve(p, start, inner_max=2)
        assert again.theta.tobytes() == whole.theta.tobytes()
        assert second.end.y.tobytes() == joined.end.y.tobytes()
        assert first.objectives + second.objectives[1:] == joined.objectives


def _g_offcircle(theta_vec, p, ch, cfg):
    """Objective extended off the torus (the analytic form used by tests)."""
    th = np.diag(theta_vec)
    pp = p.p @ p.p.conj().T
    cc = (1 - cfg.beta) / cfg.sigma2_comm
    fp = ch.f @ p.p
    htgp = (ch.h @ th @ ch.g) @ p.p
    g0 = cc * np.sum(np.abs(fp) ** 2)
    g1 = cc * 2 * np.real(np.vdot(fp, htgp))
    g2 = cc * np.sum(np.abs(htgp) ** 2)
    b = theta_vec * ch.steer
    w = ch.g.conj() @ ch.g.T
    v = (ch.g @ pp @ ch.g.conj().T).T
    g4 = quartic_coefficient(cfg) * np.real(b.conj() @ v @ b) \
        * np.real(b.conj() @ w @ b)
    return float(g0 + g1 + g2 + g4)


class TestManifoldSolver:
    def test_zero_gradient_terminates(self, rng):
        cfg, ch, p, theta = random_scene(rng, beta=1.0, alpha=0.0)
        out, trace = solve_irs_manifold(p, scored_start(theta, p, ch, cfg))
        assert len(trace.objectives) == 1
        np.testing.assert_array_equal(out.theta, theta.theta)

    def test_unit_modulus_every_step(self, rng):
        cfg, ch, p, theta = random_scene(rng)
        out, _ = solve_irs_manifold(
            p, scored_start(theta, p, ch, cfg), inner_max=50)
        assert np.max(np.abs(np.abs(out.theta) - 1.0)) <= 1e-12

    def test_monotone(self, rng):
        cfg, ch, p, theta = random_scene(rng)
        _, trace = solve_irs_manifold(
            p, scored_start(theta, p, ch, cfg), inner_max=100)
        for a, b in zip(trace.objectives, trace.objectives[1:]):
            assert b >= a - 1e-12 * abs(a)

    def test_candidates_need_no_guard(self, rng, monkeypatch):
        # the tangent step never shrinks a coordinate: every candidate has
        # |theta_i + s rgrad_i| >= 1 before it is normalized
        moduli = []

        class AbsSpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def abs(self, x):
                moduli.append(np.abs(x))
                return moduli[-1]

        monkeypatch.setattr(irs, "np", AbsSpy())
        monkeypatch.setattr(irs, "_INNER_TOL", 0.0)
        for beta in (None, 0.0, 0.5, 0.99):
            kwargs = {} if beta is None else {"beta": beta}
            cfg, ch, p, theta = random_scene(rng, l_rows=2, l_cols=3,
                                             **kwargs)
            solve_irs_manifold(
                p, scored_start(theta, p, ch, cfg), inner_max=50)
        assert len(moduli) >= 100
        eps = np.finfo(float).eps
        assert min(float(m.min()) for m in moduli) >= 1.0 - 4.0 * eps

    def test_factors_built_once_per_call(self, rng, monkeypatch):
        built = []

        class Counted(SurrogateFactors):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(irs, "SurrogateFactors", Counted)
        monkeypatch.setattr(irs, "_INNER_TOL", 0.0)
        cfg, ch, p, theta0 = random_scene(rng, l_rows=2, l_cols=3)
        _, trace = solve_irs_manifold(
            p, scored_start(theta0, p, ch, cfg), inner_max=20)
        assert len(trace.objectives) > 2
        assert len(built) == 1

    def test_comparable_to_minorization(self, rng):
        gaps = []
        for k in range(20):
            local = np.random.default_rng([55, k])
            cfg, ch, p, theta0 = random_scene(local, l_rows=2, l_cols=3)
            t_mm, tr_mm = solve_irs_minorization(
                p, scored_start(theta0, p, ch, cfg), inner_max=300)
            t_rg, tr_rg = solve_irs_manifold(
                p, scored_start(theta0, p, ch, cfg), inner_max=300)
            gaps.append(tr_mm.objectives[-1] / max(tr_rg.objectives[-1], 1e-300))
        assert np.median(gaps) >= 0.95
