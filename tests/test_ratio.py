import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from isacopt import (ConfigError, OmegaRows, RandomizationReport,
                     SolverError, SolverOptions, approximation_ratio_study,
                     build_quadratic_terms, make_channels, run_alternating,
                     scene_config_from_dict, solve_unit_diag_relaxation,
                     unit_diag_dual_bound)
from isacopt import harness, irs, precoder, ratio
from isacopt.scene import complex_normal

from conftest import paper_scene, random_hermitian, random_psd
from reference import (dense_form, dense_power_method, dense_ratio_study,
                       float64_ratio_study, float64_scores, form_rows,
                       gram_factor, mixing_method_relaxation,
                       plain_unit_diag_relaxation, rejecting_extrapolations,
                       with_diagonal_entry)


class TestApproximationRatio:
    def test_zero_bound_is_a_config_error(self):
        # at beta = 1 the weight 1 - beta of the communication terms zeroes
        # A = U3, and with it the bound: no ratio, rather than 0 / 0; the
        # relaxation rejects it before any map
        cfg = scene_config_from_dict({"beta": 1, "irs_rows": 2, "irs_cols": 4})
        with pytest.raises(ConfigError, match=r"^A is zero, as U3 is at beta"):
            harness._ratio_trial(*harness._trial_inputs(cfg, 0, 0, 0),
                                 SolverOptions(t_max=2), 0, [10])

    @pytest.mark.parametrize("scale", [1e-160, 1e-170],
                             ids=["subnormal", "zero"])
    def test_underflowing_a_keeps_its_ratios(self, scale):
        # A's entries are subnormal at 1e-160 and 0 at 1e-170, but the
        # chain reads A as its factor F with the rows scaled back up, so
        # the ratios are those of the unscaled A to the relaxation's
        # stopping tolerance (1e-160 is no power of two, so F moves at
        # rounding level), with no warning; only the reported objectives
        # underflow with A
        a = ratio_study_matrix(2, 4, 33)
        tiny = OmegaRows(a.rows * scale, a.weights)
        want = approximation_ratio_study(a, solve_unit_diag_relaxation(a),
                                         [10, 100], np.random.default_rng(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = approximation_ratio_study(
                tiny, solve_unit_diag_relaxation(tiny), [10, 100],
                np.random.default_rng(0))
        for rep, ref in zip(got, want):
            assert 0.0 < rep.ratio <= 1.0
            assert rep.ratio == pytest.approx(ref.ratio, rel=1e-10)
            assert 0.0 <= rep.sdp_objective < 1e-300

    def test_ratio_above_one_is_a_solver_error(self):
        # a reference objective below a unit-modulus value is a numerical
        # fault, not a config fault: SolverError (exit 3), not ConfigError.
        # The check is exact: 1 passes, the next float above it does not.
        RandomizationReport(4, 1.0, 1.0, 1.0)
        above = float(np.nextafter(1.0, 2.0))
        with pytest.raises(SolverError, match="exceeds 1"):
            RandomizationReport(4, above, 1.0, above)
        with pytest.raises(SolverError, match="exceeds 1") as info:
            RandomizationReport(4, 1.5, 1.0, 1.5)
        assert not isinstance(info.value, ConfigError)
        with pytest.raises(SolverError, match="NaN"):
            RandomizationReport(4, np.nan, 1.0, np.nan)

    def test_scalar_case_is_exact(self, rng):
        a = np.array([[2.5 + 0j]])
        r = np.array([[1.0 + 0j]])
        for rep in approximation_ratio_study(form_rows(a), gram_factor(r),
                                             [1, 10, 100], rng):
            assert rep.ratio == pytest.approx(1.0, abs=1e-12)

    def test_identity_pair_is_exact(self, rng):
        l = 6
        reports = approximation_ratio_study(
            form_rows(np.eye(l, dtype=complex)),
            gram_factor(np.eye(l, dtype=complex)), [4, 16], rng)
        for rep in reports:
            assert rep.ratio == pytest.approx(1.0, abs=1e-12)

    def test_ratio_grows_with_samples(self):
        # a drawn U3 whose R* has rank 3: a random PSD A of this size has a
        # rank-one R*, where every draw is the same unit-modulus vector
        a = ratio_study_matrix(6, 6, 28)
        r_star = solve_unit_diag_relaxation(a)
        assert kept_rank_at_rounding_level(r_star) > 1
        grid = [4, 64, 1024]
        means = np.zeros(len(grid))
        for trial in range(30):
            reports = approximation_ratio_study(
                a, r_star, grid, np.random.default_rng([7, trial]))
            means += [rep.ratio for rep in reports]
        means /= 30
        assert np.all(means <= 1 + 1e-9)
        assert means[-1] > means[0]

    @pytest.mark.parametrize("diagonal", [2.0, np.nan])
    def test_rejects_non_unit_diagonal(self, rng, diagonal):
        a = form_rows(random_psd(rng, 3))
        with pytest.raises(ConfigError, match="unit diagonal"):
            approximation_ratio_study(a, gram_factor(diagonal * np.eye(3)),
                                      [4], rng)

    @pytest.mark.parametrize("grid, bad", [
        ([10, 0], "n_g_grid[1]"), ([10.5], "n_g_grid[0]"),
        ([True], "n_g_grid[0]"), ([4, -3, 8], "n_g_grid[1]"),
        ([np.int64(4), 2 ** 63], "n_g_grid[1]")])
    def test_rejects_a_bad_grid_before_any_draw(self, rng, grid, bad):
        # the whole grid is checked as a config's n_g_grid is, so a bad
        # entry after a good one leaves the generator where it was
        a = form_rows(random_psd(rng, 3))
        state = rng.bit_generator.state
        with pytest.raises(ConfigError,
                           match=rf"^{re.escape(bad)} must be an integer"):
            approximation_ratio_study(a, gram_factor(np.eye(3, dtype=complex)),
                                      grid, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.kernels
    @pytest.mark.parametrize("l", [8, 36])
    def test_unit_diagonal_allowance(self, rng, l):
        # R* from the relaxation lies within the derived allowance; an
        # entry moved by half of it passes, one moved by twice it does not
        a = form_rows(random_psd(rng, l))
        r = solve_unit_diag_relaxation(a)
        tol = ratio._unit_diag_allowance(l)
        assert np.max(np.abs(np.diagonal(r) - 1.0)) <= tol
        for move, ok in ((0.5 * tol, True), (-0.5 * tol, True),
                         (2.0 * tol, False), (-2.0 * tol, False)):
            moved = with_diagonal_entry(r, l // 2, move)
            if ok:
                approximation_ratio_study(a, moved, [4], rng)
            else:
                with pytest.raises(ConfigError, match="unit diagonal"):
                    approximation_ratio_study(a, moved, [4], rng)


class TestPsdRows:
    """The chain takes A = X^H diag(d) X PSD: each entry point rejects a
    weight that is not > 0, naming it, and a zero A before any work (R* is
    never read, the generator never drawn, A never decomposed)."""

    @staticmethod
    def _calls(entry, a, rng):
        if entry == "relaxation":
            return lambda: solve_unit_diag_relaxation(a)
        if entry == "bound":
            return lambda: unit_diag_dual_bound(a, None)
        return lambda: approximation_ratio_study(a, None, [4], rng)

    @pytest.mark.parametrize("entry", ["relaxation", "bound", "study"])
    @pytest.mark.parametrize("weight", [-1.0, 0.0, -0.0, np.nan])
    def test_rejects_a_weight_not_above_zero(self, monkeypatch, rng, entry,
                                             weight):
        monkeypatch.setattr(ratio, "_form_eigenpairs", None)
        a = OmegaRows(complex_normal(rng, 3, 8), [2.0, weight, 0.5])
        state = rng.bit_generator.state
        want = rf"^weights\[1\] = {re.escape(repr(weight))}: A must be PSD"
        with pytest.raises(ConfigError, match=want):
            self._calls(entry, a, rng)()
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("entry", ["relaxation", "bound", "study"])
    @pytest.mark.parametrize("rows,weights", [
        (np.ones((2, 4)), [0.0, 0.0]), (np.zeros((2, 4)), [1.0, 1.0]),
        (np.zeros((0, 4)), [])], ids=["zero-weights", "zero-rows", "no-rows"])
    def test_rejects_a_zero_form(self, monkeypatch, rng, entry, rows,
                                 weights):
        monkeypatch.setattr(ratio, "_form_eigenpairs", None)
        a = OmegaRows(rows.astype(complex), weights)
        with pytest.raises(ConfigError, match=r"^A is zero, as U3 is at "
                                              r"beta = 1"):
            self._calls(entry, a, rng)()

    @pytest.mark.parametrize("entry", ["relaxation", "bound", "study"])
    def test_factor_beyond_the_float_range(self, rng, entry):
        # A = diag(0, 2^300) from weights (2^600, 2^-500) and rows
        # 2^-1074 e_1^T and 2^400 e_2^T: scaled to its largest, the second
        # weight falls to 0, and so does the first row, so F = 0.  A
        # numerical limit, not a config fault: SolverError
        a = OmegaRows(np.diag([2.0 ** -1074, 2.0 ** 400]).astype(complex),
                      [2.0 ** 600, 2.0 ** -500])
        with pytest.raises(SolverError, match=r"^A's weights and rows span "
                                              r"more than the float range"):
            self._calls(entry, a, rng)()


class TestUnitDiagRelaxation:
    def test_result_feasible_and_beats_identity(self, rng):
        for l in (4, 8):
            a = random_psd(rng, l)
            r = solve_unit_diag_relaxation(form_rows(a))
            w = np.linalg.eigvalsh(r)
            assert w[0] >= -1e-7 * max(1.0, abs(w).max())
            np.testing.assert_allclose(np.diagonal(r).real, 1.0, atol=1e-7)
            assert float(np.real(np.vdot(a, r))) >= float(
                np.real(np.trace(a))) - 1e-7

    def test_diagonal_a_has_trace_optimum(self, rng):
        # for diagonal A >= 0 the optimum of tr(A R) with unit diagonal is tr(A)
        a = np.diag(rng.uniform(0.5, 2.0, size=5)).astype(complex)
        r = solve_unit_diag_relaxation(form_rows(a))
        got = float(np.real(np.vdot(a, r)))
        assert got <= np.trace(a).real * (1 + 1e-7)
        assert got >= np.trace(a).real * (1 - 1e-6)

    @pytest.mark.parametrize("a", [np.diag([1.0, 0.0, 2.0, 3.0])],
                             ids=["diagonal-with-zero"])
    def test_zero_column_keeps_its_unit_vector(self, a):
        # V B has a zero column wherever A has one, and V keeps e_i there
        np.testing.assert_array_equal(
            solve_unit_diag_relaxation(form_rows(a)), np.eye(4))

    def test_zeroed_coordinate_stays_decoupled(self, rng):
        a = random_psd(rng, 8)
        a[3, :] = a[:, 3] = 0.0
        r = np.asarray(solve_unit_diag_relaxation(form_rows(a)))
        np.testing.assert_allclose(np.diagonal(r).real, 1.0, atol=1e-12)
        assert r[3, 3] == 1.0
        assert not np.any(np.delete(r[3], 3)) and not np.any(np.delete(r[:, 3], 3))
        # the plain map measured 7.1e-15 against the dense ascent; the
        # accelerated ascent ends at least as high
        plain = plain_unit_diag_relaxation(a)
        np.testing.assert_allclose(plain, dense_power_method(a), rtol=0,
                                   atol=1e-12)
        want = float(np.real(np.vdot(a, plain)))
        assert float(np.real(np.vdot(a, r))) >= want - 1e-12 * abs(want)


def ratio_study_matrix(l_rows, l_cols, seed):
    """U3 at the precoder of one ratio-study trial (the shipped scene), as
    the rows ``build_quadratic_terms`` gives."""
    cfg = scene_config_from_dict({
        "n_tx": 16, "n_rx": 16, "n_users": 5, "beta": 0.9,
        "power_budget_dbm": 30, "sigma2_radar_dbm": 0, "sigma2_comm_dbm": 0,
        "alpha_mag_db": -20, "irs_rows": l_rows, "irs_cols": l_cols})
    rng = np.random.default_rng(seed)
    ch = make_channels(cfg, rng)
    p, _, _ = run_alternating(ch, cfg, opts=SolverOptions(eps_rel=0.01,
                                                           t_max=10), rng=rng)
    return build_quadratic_terms(p, ch, cfg)[0]


def kept_rank_at_rounding_level(r):
    """r, the number of eigenpairs of R* the ratio study keeps, once
    ||R* - U_r Lambda_r U_r^H||_F <= L eps lambda_max is checked."""
    w, u = np.linalg.eigh(r)
    keep = ratio._above_rounding(w, w.size)
    kept = (u[:, keep] * w[keep]) @ u[:, keep].conj().T
    assert np.linalg.norm(r - kept) <= w.size * np.finfo(float).eps * w.max()
    return int(keep.sum())


class _ZeroNormal:
    """Generator stand-in whose Gaussian draws are all zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)


class TestUnitDiagCertificate:
    @pytest.mark.parametrize("l", [4, 8, 36])
    def test_psd_with_exact_unit_diagonal(self, rng, l):
        a = random_psd(rng, l)
        r = solve_unit_diag_relaxation(form_rows(a))
        assert np.linalg.eigvalsh(r)[0] >= -1e-12 * np.linalg.norm(a)
        assert np.max(np.abs(np.diagonal(r) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("kind", ["psd", "drawn"])
    def test_bound_dominates_relaxation_and_random_points(self, rng, kind):
        # a full-rank A, and a drawn U3 of rank 5 on 8 elements
        l = 8
        rows = (form_rows(random_psd(rng, l)) if kind == "psd"
                else ratio_study_matrix(2, 4, 33))
        a = dense_form(rows)
        r = solve_unit_diag_relaxation(rows)
        bound = unit_diag_dual_bound(rows, r)
        assert bound >= float(np.real(np.vdot(a, r)))
        x = np.exp(2j * np.pi * rng.random((l, 10_000)))
        values = np.real(np.sum(x.conj() * (a @ x), axis=0))
        assert bound >= values.max()

    # U3 at the precoder of a ratio-study trial, and at a random precoder of
    # the paper's scene on the ratio config's two surfaces: the gap measured
    # 2.5e-13 on the first, 2.4e-14 at L = 8 and 1.7e-11 at L = 36 (the
    # most of seeds 0 to 7 there, at seed 1); R* = V^H V is PSD by
    # construction, so lambda_min is rounding
    @pytest.mark.kernels
    @pytest.mark.parametrize("scene,rows,cols,seed", [
        ("shipped", 6, 6, 21), ("paper", 2, 4, 0), ("paper", 6, 6, 0),
        ("paper", 6, 6, 1)])
    def test_gap_on_ratio_study_matrix(self, scene, rows, cols, seed):
        if scene == "shipped":
            a = ratio_study_matrix(rows, cols, seed)
        else:
            cfg, ch, p, _ = paper_scene(np.random.default_rng(seed), rows, cols)
            a = build_quadratic_terms(p, ch, cfg)[0]
        r = solve_unit_diag_relaxation(a)
        value = float(np.real(np.vdot(dense_form(a), r)))
        bound = unit_diag_dual_bound(a, r)
        assert 0.0 <= (bound - value) / bound <= 1e-10
        assert np.linalg.eigvalsh(r)[0] >= -1e-12

    def test_ratio_at_most_one_for_suboptimal_reference(self, rng):
        # R* = I is feasible but far from optimal: tr(A I) lies below the
        # best draws, the dual bound does not
        a = random_psd(rng, 16)
        reports = approximation_ratio_study(
            form_rows(a), gram_factor(np.eye(16, dtype=complex)), [10, 1000],
            rng)
        for rep in reports:
            assert rep.best_objective > np.trace(a).real
            assert 0.0 < rep.ratio <= 1.0
            assert rep.sdp_objective == pytest.approx(
                unit_diag_dual_bound(form_rows(a), gram_factor(np.eye(16))),
                rel=1e-12)

    def test_zero_draw_maps_to_unit_modulus(self, rng):
        # every xi is 0, so every entry of x must become 1
        a = random_psd(rng, 5)
        rep, = approximation_ratio_study(
            form_rows(a), gram_factor(np.eye(5, dtype=complex)), [3],
            _ZeroNormal())
        assert rep.best_objective == pytest.approx(np.sum(a).real, rel=1e-12)

    def test_zero_draw_at_rank_one_runs_the_pass(self, rng):
        # a rank-one R* skips the pass only where no draw is zero: a zero
        # draw maps to the all-ones vector, not to a phase of R*'s factor
        a = random_psd(rng, 5)
        x0 = np.exp(2j * np.pi * rng.random(5))
        rep, = approximation_ratio_study(
            form_rows(a), gram_factor(np.outer(x0, x0.conj())), [3],
            _ZeroNormal())
        assert rep.best_objective == pytest.approx(np.sum(a).real, rel=1e-12)


class TestLowRankStudy:
    """The minorization step and the rank-r study against the mixing
    method and the dense study they replaced (``tests/reference.py``)."""

    # The same draws shaped by the same eigenpairs: the ratios agree to
    # 4.5e-16 relative on these inputs, with only the ranking's rounding
    # between them.
    @pytest.mark.parametrize("rows,cols,seed", [(2, 4, 33), (6, 6, 33),
                                                (6, 6, 5)])
    def test_ratios_match_dense_reference(self, rows, cols, seed):
        a = ratio_study_matrix(rows, cols, seed=seed)
        r = solve_unit_diag_relaxation(a)
        grid = [10, 100, 1000, 10_000]
        rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
        new = approximation_ratio_study(a, r, grid, rng_new)
        ref = dense_ratio_study(a, r, grid, rng_ref)
        for got, want in zip(new, ref):
            assert got.n_samples == want.n_samples
            assert got.sdp_objective == want.sdp_objective
            assert got.ratio == pytest.approx(want.ratio, rel=1e-12)
        # the same draws, so the generators end in the same state
        assert rng_new.random() == rng_ref.random()

    def test_best_objective_is_a_unit_modulus_value(self, rng):
        # R* = x0 x0^H: every draw is x0 up to a phase, so the best value
        # is x0^H A x0, for a full-rank A too
        l = 12
        a = random_psd(rng, l)
        x0 = np.exp(2j * np.pi * rng.random(l))
        for rep in approximation_ratio_study(
                form_rows(a), gram_factor(np.outer(x0, x0.conj())), [1, 50],
                rng):
            assert rep.best_objective == pytest.approx(
                float(np.real(np.vdot(x0, a @ x0))), rel=1e-12)

    def test_reciprocal_normalization_is_the_masked_divide(self, rng):
        x = complex_normal(rng, 6, 4000)
        x[2, :5] = 0.0
        x[4, 9] = 1e-300
        x[1, :6] = [complex(re, im) for re, im in
                    [(-0.0, 1.0), (2.0, -0.0), (-2.0, -0.0), (-0.0, -3.0),
                     (0.0, -1.0), (-2.0, 0.0)]]
        want = x.copy()
        mag = np.abs(want)
        np.divide(want, mag, out=want, where=mag > 0.0)
        want[mag == 0.0] = 1.0
        got = ratio._unit_modulus(x)
        # bit-equal up to the sign of an exactly-zero real or imaginary
        # part, which the divide sets as (re + im 0, im - re 0) / |x| and
        # the product keeps; adding +0.0 clears that sign alone
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
        assert got.tobytes() != want.tobytes()

    def test_mask_free_normalization_is_the_masked_divide(self, rng):
        # no entry is zero: the same bits as the masked divide up to the
        # sign of an exactly-zero part
        x = complex_normal(rng, 6, 4000)
        x[1, :2] = [complex(-0.0, 1.0), complex(2.0, -0.0)]
        want = x.copy()
        mag = np.abs(want)
        np.divide(want, mag, out=want, where=mag > 0.0)
        assert mag.all()
        assert (ratio._unit_modulus(x) + 0.0).tobytes() == (
            want + 0.0).tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_chunked_pass_matches_one_block(self, monkeypatch, chunk):
        # the candidates of one block screened and ranked in column chunks:
        # the same winner (the first best one), and its value is formed
        # from its draw alone, so the same bits; R* of rank 2, so the pass
        # runs
        a = ratio_study_matrix(6, 6, seed=33)
        r = solve_unit_diag_relaxation(a)
        assert kept_rank_at_rounding_level(r) == 2
        monkeypatch.setattr(ratio, "_RATIO_CHUNK", 10 ** 9)
        whole = approximation_ratio_study(a, r, [10, 2500],
                                          np.random.default_rng(4))
        monkeypatch.setattr(ratio, "_RATIO_CHUNK", chunk)
        chunked = approximation_ratio_study(a, r, [10, 2500],
                                            np.random.default_rng(4))
        assert chunked == whole

    def test_full_rank_reference_scores_densely(self, rng):
        # with R* = I all L eigenpairs are kept (r = L), so the candidates
        # are the reference's; the winner is reported by its dense value
        a = form_rows(random_psd(rng, 9))
        eye = gram_factor(np.eye(9, dtype=complex))
        new = approximation_ratio_study(a, eye, [7, 300],
                                        np.random.default_rng(2))
        ref = dense_ratio_study(a, eye, [7, 300], np.random.default_rng(2))
        for got, want in zip(new, ref):
            assert got.best_objective == pytest.approx(want.best_objective,
                                                       rel=1e-12)

    # The draws see R* only through U_r Lambda_r^(1/2), the eigenpairs above
    # rounding level, so U_r Lambda_r U_r^H must be R* to rounding level.
    @pytest.mark.parametrize("rows,cols,seed", [(2, 4, 33), (6, 6, 33),
                                                (6, 6, 5)])
    def test_kept_eigenpairs_reproduce_relaxation(self, rows, cols, seed):
        r = solve_unit_diag_relaxation(ratio_study_matrix(rows, cols, seed))
        assert kept_rank_at_rounding_level(r) < rows * cols

    def test_identity_keeps_every_eigenpair(self):
        assert kept_rank_at_rounding_level(
            gram_factor(np.eye(36, dtype=complex))) == 36

    # The plain map at the rank of B against the dense V <- V B: R* agrees
    # to 2.5e-14 at most over these inputs, every step cap and convergence
    # (measured), hence the bound of 1e-12.  (6, 6, 104) is a slow input
    # (1396 plain maps), (6, 6, 28) one whose R* has rank 3; the random
    # one is full rank, r = L.
    @pytest.mark.parametrize("source", [(2, 4, 33), (6, 6, 33), (6, 6, 5),
                                        (6, 6, 104), (6, 6, 28), "psd"])
    def test_factored_ascent_matches_dense_reference(self, rng, source):
        if source == "psd":
            a = random_psd(rng, 36)
        else:
            a = dense_form(ratio_study_matrix(*source))
        np.testing.assert_allclose(plain_unit_diag_relaxation(a),
                                   dense_power_method(a), rtol=0, atol=1e-12)
        for steps in range(1, 41):
            np.testing.assert_allclose(plain_unit_diag_relaxation(a, steps),
                                       dense_power_method(a, steps),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["psd", "drawn"])
    def test_ascent_monotone_and_certified_at_l36(self, rng, kind):
        rows = (form_rows(random_psd(rng, 36)) if kind == "psd"
                else ratio_study_matrix(6, 6, 28))
        a = dense_form(rows)
        r = solve_unit_diag_relaxation(rows)
        value = float(np.real(np.vdot(a, r)))
        bound = unit_diag_dual_bound(rows, r)
        assert 0.0 <= (bound - value) / abs(bound) <= 1e-6
        reference = float(np.real(np.vdot(a, mixing_method_relaxation(a))))
        assert abs(value - reference) <= 1e-6 * abs(bound)
        # the plain map's first steps, one cap at a time: tr(A R) never falls
        values = []
        for steps in range(1, 41):
            r_k = plain_unit_diag_relaxation(a, steps)
            np.testing.assert_allclose(r_k, dense_power_method(a, steps),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(np.diagonal(r_k).real, 1.0,
                                       atol=1e-12)
            values.append(float(np.real(np.vdot(a, r_k))))
        assert np.all(np.diff(values) >= -1e-12 * abs(bound))
        assert values[-1] > values[0]


def screen_inputs(a, r_star):
    """(U_r Lambda_r^(1/2), F): R*'s factor at rank and A's scaled
    factor, as the study hands them to its screen."""
    return ratio._draw_factor(r_star), ratio._factor(a)[0]


def screen_against_float64(a, r_star, draws):
    """(screened winner, double-precision winner, survivors) on a draw
    block, after checking every screened score against its bound."""
    half, f = screen_inputs(a, r_star)
    screen = ratio._Screen(half, f)
    s, b = screen.scores(draws)
    exact = float64_scores(half, f, draws)
    screened = np.isfinite(b)
    assert np.all(np.abs(s - exact)[screened] <= b[screened])
    survivors = np.count_nonzero(s + b >= np.max(s - b))
    return (ratio._best_candidate(screen, draws), int(np.argmax(exact)),
            survivors)


def study_draws(a, r_star, n, seed):
    """n draws of the study's shape for A and R*, from ``seed``."""
    rank = ratio._draw_factor(r_star).shape[1]
    return np.random.default_rng(seed).standard_normal((2 * rank, n))


@pytest.mark.kernels
class TestSingleScreen:
    """The single-precision screen with its exact ranking against the
    double-precision pass over every candidate (``tests/reference.py``):
    the same winner, and every screened score within its bound."""

    # On the shipped scene R* has rank 1 or 2; at rank 1 every candidate
    # scores alike up to rounding, all survive, and the ranking is the
    # pass itself.  At rank 2 the screen keeps a few percent of the
    # candidates (measured below).
    @pytest.mark.parametrize("rows,cols", [(2, 4), (6, 6)])
    def test_same_winner_over_seeds(self, rows, cols):
        kept, screened = [], 0
        for seed in range(200):
            a = ratio_study_matrix(rows, cols, seed)
            r = solve_unit_diag_relaxation(a)
            draws = study_draws(a, r, 2000, seed)
            got, want, survivors = screen_against_float64(a, r, draws)
            assert got == want, seed
            if draws.shape[0] > 2:
                kept.append(survivors / 2000)
        assert len(kept) >= 10 and np.mean(kept) <= 0.1, kept

    @pytest.mark.parametrize("l,seeds", [(8, 100), (36, 20)])
    def test_same_winner_on_full_rank_a(self, l, seeds):
        for seed in range(seeds):
            a = form_rows(random_psd(np.random.default_rng([l, seed]), l))
            for r in (solve_unit_diag_relaxation(a), gram_factor(np.eye(l))):
                got, want, _ = screen_against_float64(
                    a, r, study_draws(a, r, 1000, seed))
                assert got == want, seed

    def test_near_cancelling_entries(self):
        # draws that nearly cancel entry l of u = H z, down to exactly:
        # their bounds grow as 1/|u_l|, and the unscreened ones survive
        a = ratio_study_matrix(6, 6, seed=33)
        r = solve_unit_diag_relaxation(a)
        half = ratio._draw_factor(r)
        assert half.shape[1] == 2
        rng = np.random.default_rng(8)
        draws = rng.standard_normal((4, 3000))
        for j, eps in enumerate([0.0, 1e-300, 1e-30, 1e-12, 1e-8, 1e-6,
                                 1e-4, 1e-2] * 40):
            l = j % half.shape[0]
            z = np.array([half[l, 1], -half[l, 0]]) * rng.standard_normal()
            z += eps * complex_normal(rng, 2)
            draws[:, 7 * j] = np.concatenate([z.real, z.imag])
        got, want, survivors = screen_against_float64(a, r, draws)
        assert got == want
        assert survivors < 3000

    def test_flat_top(self):
        # A = I + 1e-8 B: every score is L + O(1e-7), so the top hundreds
        # tie within 1e-6 relative and the ranking falls to double precision
        rng = np.random.default_rng(3)
        l = 8
        b = random_hermitian(rng, l)
        a = form_rows(np.eye(l) + 1e-8 * b / np.linalg.norm(b, 2))
        r = gram_factor(np.eye(l, dtype=complex))
        draws = study_draws(a, r, 3000, 4)
        exact = float64_scores(*screen_inputs(a, r), draws)
        assert np.count_nonzero(exact >= exact.max() * (1 - 1e-6)) >= 100
        got, want, survivors = screen_against_float64(a, r, draws)
        assert got == want and survivors >= 100

    def test_zero_draws_survive(self):
        # a zero draw maps to the all-ones candidate and is never screened;
        # with every draw zero all survive, and the ranking is the pass
        # itself, whose scores of one vector differ by the rounding of
        # its column's place in the product on some BLAS kernels
        a = ratio_study_matrix(6, 6, seed=33)
        r = solve_unit_diag_relaxation(a)
        zeros = np.zeros((4, 7))
        assert np.all(ratio._Screen(*screen_inputs(a, r)).scores(
            zeros)[1] == np.inf)
        got, want, survivors = screen_against_float64(a, r, zeros)
        assert got == want and survivors == 7
        draws = study_draws(a, r, 600, 2)
        draws[:, ::50] = 0.0
        got, want, _ = screen_against_float64(a, r, draws)
        assert got == want

    @pytest.mark.parametrize("rows,cols,seed", [(2, 4, 33), (6, 6, 33),
                                                (6, 6, 5)])
    def test_reports_match_float64_pass(self, rows, cols, seed):
        # the same winner, so the same bits: the reported value is formed
        # from the winner's draw alone; and the generators end alike
        a = ratio_study_matrix(rows, cols, seed=seed)
        r = solve_unit_diag_relaxation(a)
        grid = [1, 10, 100, 1000, 10_000]
        rng_new, rng_ref = np.random.default_rng(6), np.random.default_rng(6)
        new = approximation_ratio_study(a, r, grid, rng_new)
        ref = float64_ratio_study(a, r, grid, rng_ref)
        if kept_rank_at_rounding_level(r) == 1:
            # the shortcut takes the first candidate, the pass the first
            # best of candidates alike up to rounding
            for got, want in zip(new, ref):
                assert got.ratio == pytest.approx(want.ratio, rel=1e-14)
        else:
            assert new == ref
        assert rng_new.random() == rng_ref.random()


class TestRowScores:
    """The study scores its candidates with A's factor F, and R* travels
    as Z alone: no eigenpair of A is taken outside the relaxation."""

    @pytest.mark.parametrize("source", ["relaxed", "identity"])
    def test_study_takes_no_eigenpair_of_a(self, monkeypatch, source):
        # R* of rank 2 and R* = I: the candidate pass runs on both
        if source == "relaxed":
            a = ratio_study_matrix(6, 6, seed=33)
            r = solve_unit_diag_relaxation(a)
        else:
            a = form_rows(random_psd(np.random.default_rng(1), 9))
            r = gram_factor(np.eye(9, dtype=complex))
        calls, pairs = [], ratio._form_eigenpairs
        monkeypatch.setattr(ratio, "_form_eigenpairs",
                            lambda f: (calls.append(f), pairs(f))[1])
        reports = approximation_ratio_study(a, r, [10, 1000],
                                            np.random.default_rng(5))
        assert calls == []
        assert all(0.0 < rep.ratio <= 1.0 for rep in reports)
        solve_unit_diag_relaxation(a)       # the spy sees the relaxation's
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], ratio._factor(a)[0])

    def test_subnormal_weights_score_as_normal_ones(self):
        # weights (1, 1.5) 2^-1040 are exact subnormal floats; with the rows
        # times 2^500, A is back at a normal scale.  With the rows as they
        # are, A itself is subnormal.  The study reads A as its factor F,
        # the weights and the rows scaled by powers of two, so the ratios
        # keep their bits either way
        x = complex_normal(np.random.default_rng(0), 2, 6)
        eye = gram_factor(np.eye(6, dtype=complex))
        weights = np.array([1.0, 1.5])
        want, got, tiny = ([rep.ratio for rep in approximation_ratio_study(
            OmegaRows(x * 2.0 ** k, weights * 2.0 ** j), eye, [5, 100],
            np.random.default_rng(1))] for k, j in ((0, 0), (500, -1040),
                                                     (0, -1040)))
        assert got == want == tiny
        assert all(0.0 < ratio <= 1.0 for ratio in tiny)

    def test_factor_holds_z_alone(self):
        r = solve_unit_diag_relaxation(ratio_study_matrix(6, 6, seed=33))
        assert set(vars(r)) == {"z", "shape"}


class TestAcceleratedUnitDiagAscent:
    """The SQUAREM-accelerated ascent against the plain map it extrapolates
    (``tests/reference.py``)."""

    # Measured on these inputs: the objective 2.6e-12 to 1.1e-10 relative
    # above the plain map's, the certified gap 9.7 to 4.7e4 times smaller.
    @pytest.mark.parametrize("source", [(2, 4, 33), (6, 6, 33), (6, 6, 5),
                                        (6, 6, 104), (6, 6, 28), "psd"])
    def test_at_least_the_plain_ascent(self, rng, source):
        if source == "psd":
            a = form_rows(random_psd(rng, 36))
        else:
            a = ratio_study_matrix(*source)
        dense = dense_form(a)
        r = solve_unit_diag_relaxation(a)
        plain = plain_unit_diag_relaxation(dense)
        value = float(np.real(np.vdot(dense, r)))
        want = float(np.real(np.vdot(dense, plain)))
        assert value >= want - 1e-12 * abs(want)
        assert (unit_diag_dual_bound(a, r) - value
                <= unit_diag_dual_bound(a, gram_factor(plain)) - want)
        assert np.max(np.abs(np.diagonal(r) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("source", [(6, 6, 104), (6, 6, 28)])
    def test_monotone_at_every_cap(self, monkeypatch, source):
        # a cap of 1 + 3c + s maps ends after c cycles and s plain maps, so
        # one more map never ends lower
        a = ratio_study_matrix(*source)
        values = []
        for steps in range(1, 41):
            monkeypatch.setattr(ratio, "_UNIT_DIAG_MAX_STEPS", steps)
            r_k = solve_unit_diag_relaxation(a)
            np.testing.assert_allclose(np.diagonal(r_k).real, 1.0,
                                       atol=1e-12)
            values.append(float(np.real(np.vdot(dense_form(a), r_k))))
        assert np.all(np.diff(values) >= -1e-12 * abs(values[-1]))
        assert values[-1] > values[0]

    @pytest.mark.parametrize("source", [(6, 6, 104), (6, 6, 28)])
    def test_rejected_extrapolations_keep_the_plain_maps(self, monkeypatch,
                                                         source):
        # every extrapolated point forced back to the start, whose map lies
        # below two maps further on: each cycle keeps its two plain maps, so
        # a cap of 1 + 3c + s keeps 1 + 2c + s maps of the plain ascent
        a = ratio_study_matrix(*source)
        dense = dense_form(a)
        monkeypatch.setattr(ratio, "squarem_ascent",
                            rejecting_extrapolations(ratio.squarem_ascent))
        values = []
        for steps in range(1, 41):
            monkeypatch.setattr(ratio, "_UNIT_DIAG_MAX_STEPS", steps)
            r_k = solve_unit_diag_relaxation(a)
            cycles, plain = divmod(steps - 1, 3)
            np.testing.assert_allclose(
                r_k, plain_unit_diag_relaxation(dense, 1 + 2 * cycles + plain),
                rtol=0, atol=1e-12)
            values.append(float(np.real(np.vdot(dense, r_k))))
        assert np.all(np.diff(values) >= -1e-12 * abs(values[-1]))


class TestBenchmarkContract:
    """The chain as the benchmark's ratio workload calls it, by the names
    it calls (``irs.build_quadratic_terms``, then
    ``precoder.solve_unit_diag_relaxation`` and
    ``precoder.approximation_ratio_study``), and R* as it reads it."""

    def test_chain_and_reference_covariance(self):
        cfg, ch, p, _ = paper_scene(np.random.default_rng(3), 6, 6)
        a, _ = irs.build_quadratic_terms(p, ch, cfg)
        r_star = precoder.solve_unit_diag_relaxation(a)
        reports = precoder.approximation_ratio_study(
            a, r_star, [10, 100], np.random.default_rng(4))
        assert all(0.0 < rep.ratio <= 1.0 for rep in reports)
        l = cfg.n_irs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dense = np.asarray(r_star)
            assert r_star.shape == dense.shape == (l, l)
            assert dense.dtype == complex
            diag = np.diagonal(r_star)
            assert np.max(np.abs(diag - 1.0)) <= ratio._unit_diag_allowance(l)
            assert np.linalg.eigvalsh(r_star)[0] >= -1e-12
            moved = r_star + 0.01 * np.eye(l)
            assert isinstance(moved, np.ndarray)
            np.testing.assert_array_equal(np.diagonal(moved), diag + 0.01)
        np.testing.assert_array_equal(dense, dense.conj().T)
        np.testing.assert_array_equal(np.asarray(r_star, dtype=complex), dense)
        with pytest.raises(ValueError, match="formed from its factor"):
            np.asarray(r_star, copy=False)


def dual_y(a, r_star):
    """Re diag(A R*) from A's rows and R*'s factor, in A's scale:
    ``unit_diag_dual_bound`` forms it from A's factor F, 2^-s times
    this."""
    x, d, z = a.rows, a.weights, r_star.z
    return (d @ (x.conj() * ((x @ z.conj().T) @ z))).real


@pytest.mark.kernels
class TestFactoredCertificate:
    """The scaled dual Diag(s y) >= A, s = lambda_max(F^H Diag(1/y) F)
    from one m x m ``eigvalsh`` (``ratio._scaled_dual``), against dense
    references."""

    # measured on these 60 inputs: the bound lies 2.4e-14 to 6.6e-11
    # relative above tr(A R*), and no live y_i is floored (the smallest is
    # 0.04 of the largest)
    @pytest.mark.parametrize("rows,cols", [(2, 4), (6, 6)])
    def test_sound_and_tight_against_dense(self, rows, cols):
        for seed in range(30):
            a = ratio_study_matrix(rows, cols, seed)
            r = solve_unit_diag_relaxation(a)
            y = dual_y(a, r)
            assert np.all(y > ratio._DUAL_FLOOR * y.max()), seed
            bound = unit_diag_dual_bound(a, r)
            dense = dense_form(a)
            optimum = float(np.real(np.vdot(
                dense, mixing_method_relaxation(dense))))
            value = float(np.sum(y))
            assert bound >= optimum, seed
            assert 0.0 <= (bound - value) / bound <= 1e-10, seed

    @pytest.mark.parametrize("m,l", [(1, 8), (3, 8), (5, 36)])
    def test_allowance_just_inside_and_beyond(self, m, l):
        # F = sqrt(1/2) [e_1 .. e_m] and y = 1: K = I / 2, whose
        # lambda_max = 1/2 the computed w meets to one rounding, under a
        # tenth of the allowance e.  A perturbed A_k = (1 + 2 k e) A has
        # lambda_max(K) = 1/2 + k e, and the scale w + e certified for A
        # covers it just inside the allowance (k = 1/2) and not just
        # beyond it (k = 2)
        f_h = np.zeros((m, l), dtype=complex)
        f_h[np.arange(m), np.arange(m)] = np.sqrt(0.5)
        w, allow = ratio._scaled_dual(f_h, np.ones(l))
        assert abs(w - 0.5) <= 0.1 * allow
        for k, covered in ((0.5, True), (2.0, False)):
            assert (w + allow >= 0.5 + k * allow) is covered, k

    def test_floored_y_still_bounds(self):
        # R = x x^H at random phases x is feasible but far from optimal,
        # and some y_i = Re(conj(x_i) (A x)_i) is below 0: those are
        # floored, and the looser bound still bounds the relaxation
        a = ratio_study_matrix(6, 6, 33)
        r_star = solve_unit_diag_relaxation(a)
        factored = unit_diag_dual_bound(a, r_star)
        optimum = float(np.real(np.vdot(dense_form(a), r_star)))
        x = np.exp(2j * np.pi * np.random.default_rng(0).random(36))
        r = gram_factor(np.outer(x, x.conj()))
        assert np.any(dual_y(a, r) <= 0.0)
        reports = approximation_ratio_study(a, r, [10, 1000],
                                            np.random.default_rng(1))
        for rep in reports:
            assert 0.0 < rep.ratio <= 1.0
            assert rep.sdp_objective >= factored >= optimum

    def test_no_positive_y_bounds_by_the_top_eigenvalue(self):
        # every row of A sums to 0, exactly in any order, so R = 1 1^H has
        # A R = 0 and y = 0: y = 1 then, and the bound is L lambda_max(A)
        # to rounding level, above the relaxation optimum
        rows = np.array([[1, -1, 2j, -2j, 0.5, -0.5, 1 + 1j, -1 - 1j],
                         [2, 1j, -2, -1j, 1, -1, 0.5j, -0.5j],
                         [1, 1, 1, 1, -1, -1, -1, -1]], dtype=complex)
        a = OmegaRows(rows, np.array([1.0, 2.0, 0.5]))
        r = ratio.GramFactor(np.ones((1, 8), dtype=complex))
        assert np.all(dual_y(a, r) == 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = unit_diag_dual_bound(a, r)
        dense = dense_form(a)
        top = float(np.linalg.eigvalsh(dense)[-1])
        assert bound == pytest.approx(8 * top, rel=1e-13)
        assert bound >= 8 * top
        assert bound >= float(np.real(np.vdot(
            dense, mixing_method_relaxation(dense))))

    def test_noise_y_is_capped_by_the_unit_certificate(self):
        # rows that each sum to 0 give A 1 = 0, so at R = 1 1^H from an eigh
        # factor y = Re diag(A R) is rounding noise; scaled to its largest
        # entry it gave up to 318 L lambda_max(A) on these draws, which the
        # certificate at y = 1, L lambda_max(A) to rounding level, caps
        rng = np.random.default_rng(0)
        r = gram_factor(np.ones((8, 8)))
        for draw in range(200):
            rows = complex_normal(rng, 3, 8)
            rows -= rows.mean(axis=1, keepdims=True)
            a = OmegaRows(rows, rng.uniform(0.5, 2.0, 3))
            dense = dense_form(a)
            top = float(np.linalg.eigvalsh(dense)[-1])
            bound = unit_diag_dual_bound(a, r)
            assert bound <= (1.0 + 1e-12) * 8 * top, draw
            assert bound >= float(np.real(np.vdot(
                dense, mixing_method_relaxation(dense)))), draw

    def test_zero_columns_are_deflated(self):
        # a zero column of A has y_i = 0 and a zero row and column in
        # Diag(y) - A: the scaled dual is taken on the other coordinates,
        # and the bound stays tight (a floored y_i there would add 1e-3 of
        # the largest y_i to it)
        a = ratio_study_matrix(2, 4, 33)
        rows = a.rows.copy()
        rows[:, 3] = 0.0
        zeroed = OmegaRows(rows, a.weights)
        r = solve_unit_diag_relaxation(zeroed)
        assert dual_y(zeroed, r)[3] == 0.0
        bound = unit_diag_dual_bound(zeroed, r)
        value = float(np.real(np.vdot(dense_form(zeroed), r)))
        assert 0.0 <= (bound - value) / bound <= 1e-10


@pytest.mark.kernels
class TestRankRule:
    """The eigenpairs kept at rank, L eps times the largest, R*'s that the
    study draws from and A's that the relaxation runs on, against the same
    rule on the dense matrices."""

    @pytest.mark.parametrize("rows,cols", [(2, 4), (6, 6)])
    def test_same_ranks_as_dense(self, rows, cols):
        for seed in range(30):
            a = ratio_study_matrix(rows, cols, seed)
            r = solve_unit_diag_relaxation(a)
            half = ratio._draw_factor(r)
            assert half.shape[1] == kept_rank_at_rounding_level(r), seed
            w = np.abs(np.linalg.eigvalsh(dense_form(a)))
            f = ratio._factor(a)[0]
            assert ratio._form_eigenpairs(f)[0].size == np.count_nonzero(
                ratio._above_rounding(w, w.size)) == a.rows.shape[0], seed

    def test_kept_factor_reproduces_reference_covariance(self):
        # U_r Lambda_r U_r^H = Z^H V_r V_r^H Z is R* to rounding level
        a = ratio_study_matrix(6, 6, 33)
        r = solve_unit_diag_relaxation(a)
        half = ratio._draw_factor(r)
        dense = np.asarray(r)
        assert np.linalg.norm(half @ half.conj().T - dense) <= (
            36 * np.finfo(float).eps * np.linalg.norm(dense, 2))


class TestRankPath:
    def test_no_square_array_or_decomposition_at_l1024(self, monkeypatch):
        # the shipped scene on a 32 x 32 surface: build, relaxation and
        # study form no L x L array and decompose nothing of side L
        cfg = scene_config_from_dict({
            "n_tx": 16, "n_rx": 16, "n_users": 5, "beta": 0.9,
            "power_budget_dbm": 30, "sigma2_radar_dbm": 0,
            "sigma2_comm_dbm": 0, "alpha_mag_db": -20, "irs_rows": 32,
            "irs_cols": 32})
        rng = np.random.default_rng(3)
        ch = make_channels(cfg, rng)
        p, _, _ = run_alternating(ch, cfg, opts=SolverOptions(
            eps_rel=0.01, t_max=10), rng=rng)
        sides = []
        for name in ("eigh", "eigvalsh", "qr", "cholesky", "svd"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda m, *args, _fn=fn, **kw:
                                (sides.append(m.shape), _fn(m, *args, **kw))[1])
        l = cfg.n_irs
        tracemalloc.start()
        try:
            a, _ = build_quadratic_terms(p, ch, cfg)
            r = solve_unit_diag_relaxation(a)
            reports = approximation_ratio_study(a, r, [10, 100], rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(0.0 < rep.ratio <= 1.0 for rep in reports)
        assert peak < 16 * l * l / 4
        assert sides and all(min(side) <= 25 for side in sides), sides


# One ratio trial of the shipped config at L = 1024 in a fresh process,
# after a warm-up trial at L = 8, so that the interpreter's and BLAS's
# one-time buffers are not counted: the growth of its peak resident set.
# That peak is VmHWM, the high-water mark of this process's own memory;
# ru_maxrss would start at the RSS of the pytest process it was spawned
# from.  The last argument sets n_tx = n_rx.
_TRIAL_PEAK = """
import json, sys
from dataclasses import replace
from isacopt import harness

def peak():
    with open("/proc/self/status") as fh:
        return next(1024 * int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))

spec = harness.load_experiment_spec(sys.argv[1], {"l_values": [8, 1024]})
n = int(sys.argv[2])
spec = replace(spec, scene=replace(spec.scene, n_tx=n, n_rx=n))
grid = list(spec.n_g_grid)
for point, cfg in enumerate(harness._surface_scenes(spec)):
    before = peak()
    harness._ratio_trial(*harness._trial_inputs(cfg, spec.master_seed, point, 0),
                         spec.solver, 0, grid)
print(json.dumps({"n_tx": spec.scene.n_tx, "n_users": spec.scene.n_users,
                  "n_g": max(grid), "grown_bytes": peak() - before}))
"""


class TestStudyBytes:
    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads VmHWM from /proc")
    @pytest.mark.parametrize("n_tx", [16, 4], ids=["config", "n_tx<n_users"])
    def test_trial_stays_within_the_counted_bytes(self, n_tx):
        # the load-time count of a ratio surface, its L x n_tx channel and
        # study_bytes with the config's n_g up to 10 000, is 22.8 MB at
        # L = 1024; the trial measured 15.3 MB.  The resident set sees
        # LAPACK's workspace, which tracemalloc misses.  Half the count
        # bounds the growth below: the count is not loose.  (At L = 512 the count, 14.7 MB, is 2.5
        # times the 5.9 MB measured: its per-sample term takes R*'s rank
        # at its bound n_users^2 = 25, where the shipped trials have 1 to
        # 3.)  With n_tx = 4 < n_users = 5 the rank bound is
        # n_users n_tx = 20, and the count 20.7 MB against 15.0 MB
        # measured.
        root = Path(__file__).resolve().parents[1]
        src = str(Path(ratio.__file__).resolve().parent.parent)
        env = {**os.environ, **dict.fromkeys(harness.BLAS_THREAD_VARS, "1"),
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", _TRIAL_PEAK,
             str(root / "configs/ratio.json"), str(n_tx)],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        out = json.loads(done.stdout)
        grown = out["grown_bytes"]
        counted = 16 * 1024 * out["n_tx"] + ratio.study_bytes(
            1024, out["n_g"], out["n_users"], out["n_tx"])
        assert counted / 2 <= grown <= counted
