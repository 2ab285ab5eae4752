import math
from dataclasses import fields

import numpy as np
import pytest

from isacopt import (ConfigError, SceneConfig, db_to_linear, dbm_to_watts,
                     make_channels, rician_channel, ula_spacing_check,
                     upa_steering)
from isacopt.scene import (_SCENE_COUNTS, _SCENE_REALS, ChannelSet,
                           complex_normal, scene_config_from_dict,
                           ula_steering)
from reference import (kron_upa_steering, reference_complex_normal,
                       reference_make_channels, reference_rician_channel)


class TestDbConversions:
    def test_zero_db_is_one(self):
        assert db_to_linear(0.0) == 1.0

    def test_30_dbm_is_one_watt(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)

    def test_minus_20_db(self):
        assert db_to_linear(-20.0) == pytest.approx(0.01, rel=1e-15)


class TestUpaSteering:
    def test_zero_elevation_gives_all_ones(self):
        a = upa_steering(0.7, 0.0, 2, 2, 0.5)
        np.testing.assert_allclose(a, np.ones(4))

    def test_broadside_ula_factor(self):
        # psi_a = 0, psi_e = pi/2: y-increment is pi, x-increment 0
        a = upa_steering(0.0, math.pi / 2, 1, 2, 0.5)
        np.testing.assert_allclose(a, [1.0, -1.0], atol=1e-12)

    def test_kronecker_layout_against_double_loop(self, rng):
        psi_a, psi_e = rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)
        lx = ly = 3
        a = upa_steering(psi_a, psi_e, lx, ly, 0.5)
        inc_y = 2 * np.pi * 0.5 * math.cos(psi_a) * math.sin(psi_e)
        inc_x = 2 * np.pi * 0.5 * math.sin(psi_a) * math.sin(psi_e)
        for p in range(ly):
            for q in range(lx):
                expected = np.exp(1j * inc_y * p) * np.exp(1j * inc_x * q)
                assert a[p * lx + q] == pytest.approx(expected, abs=1e-12)

    def test_exact_unit_modulus_and_leading_one(self, rng):
        a = upa_steering(rng.uniform(0, 6), rng.uniform(0, 3), 4, 5, 0.5)
        # pure-phase construction: within one ulp of the unit circle
        assert np.max(np.abs(np.abs(a) - 1.0)) <= 1e-15
        assert a[0] == 1.0 + 0.0j

    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigError):
            upa_steering(0.1, 0.2, 0, 2, 0.5)
        with pytest.raises(ConfigError):
            ula_steering(0.1, 0, 0.5)


class TestSpacingCheck:
    def test_half_wavelength_passes(self):
        assert ula_spacing_check(SceneConfig()) is True

    def test_quarter_fails(self):
        assert ula_spacing_check(SceneConfig(spacing_over_lambda=0.25)) is False

    def test_tiny_deviation_passes(self):
        assert ula_spacing_check(SceneConfig(spacing_over_lambda=0.5 + 1e-15)) is True


class TestRicianChannel:
    def test_los_limit(self, rng):
        los = np.exp(2j * np.pi * rng.random((3, 4)))
        out = rician_channel(3, 4, 1e12, los, rng)
        np.testing.assert_allclose(out, los, atol=1e-5)

    def test_unit_average_power_at_k1(self, rng):
        los = np.outer(np.exp(2j * np.pi * rng.random(4)),
                       np.exp(2j * np.pi * rng.random(5)))
        total = 0.0
        for _ in range(1000):
            total += np.sum(np.abs(rician_channel(4, 5, 1.0, los, rng)) ** 2)
        assert total / 1000 == pytest.approx(20.0, rel=0.05)

    def test_zero_k_is_centered_gaussian(self, rng):
        los = np.ones((2, 2), dtype=complex)
        draws = np.array([rician_channel(2, 2, 0.0, los, rng)
                          for _ in range(10_000)])
        mean = draws.mean()
        # entries are CN(0, 1); the mean of 4e4 of them has std 1/sqrt(2*4e4)
        sigma = 1.0 / math.sqrt(2 * draws.size)
        assert abs(mean.real) < 3 * sigma
        assert abs(mean.imag) < 3 * sigma

    def test_rejects_negative_k(self, rng):
        with pytest.raises(ConfigError):
            rician_channel(2, 2, -0.1, np.ones((2, 2)), rng)


class TestMakeChannels:
    def test_shapes(self, rng):
        cfg = SceneConfig(irs_rows=3, irs_cols=4)
        ch = make_channels(cfg, rng)
        assert ch.g.shape == (12, cfg.n_tx)
        assert ch.h.shape == (cfg.n_users, 12)
        assert ch.f.shape == (cfg.n_users, cfg.n_tx)
        assert ch.steer.shape == (12,)

    def test_same_seed_bit_identical(self):
        cfg = SceneConfig()
        a = make_channels(cfg, np.random.default_rng(7))
        b = make_channels(cfg, np.random.default_rng(7))
        assert np.array_equal(a.g, b.g)
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.f, b.f)

    def test_steering_modulus_checked_to_1e12(self, rng):
        # the modulus check is absolute: an entry of modulus 1 + 5e-6 is
        # within numpy's default allclose tolerance, but not within 1e-12
        ch = make_channels(SceneConfig(irs_rows=16, irs_cols=16), rng)
        assert ChannelSet(ch.g, ch.h, ch.f, ch.steer).steer is ch.steer
        for bad in (1.0 + 5e-6, 1.0 - 2e-12, np.nan):
            steer = ch.steer.copy()
            steer[3] *= bad
            with pytest.raises(ConfigError, match="unit modulus"):
                ChannelSet(ch.g, ch.h, ch.f, steer)


# scenes of the draw oracle: surface shapes, a smaller radar array and a
# target off the default azimuth
ORACLE_SCENES = {
    "6x6": {}, "16x16": {"irs_rows": 16, "irs_cols": 16},
    "2x4": {"irs_rows": 2, "irs_cols": 4}, "3x5": {"irs_rows": 3, "irs_cols": 5},
    "n_tx8": {"n_tx": 8, "n_rx": 8},
    "azimuth": {"target_azimuth": 1.1, "target_elevation": 0.4},
}


class TestDrawOracle:
    """The draws equal the reference draw bit for bit, and leave the
    generator where it leaves it."""

    @staticmethod
    def assert_same_bits(a, b):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize("scene", list(ORACLE_SCENES))
    def test_make_channels(self, scene, seed):
        cfg = SceneConfig(**ORACLE_SCENES[scene])
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):   # later draws reuse the scene's steering vector
            ch, want = make_channels(cfg, ours), reference_make_channels(cfg, ref)
            for name in ("g", "h", "f", "steer"):
                self.assert_same_bits(getattr(ch, name), getattr(want, name))
            assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("k_factor", [0.0, 0.1, 1.0, 10.0])
    def test_rician_channel_and_complex_normal(self, k_factor):
        ours, ref = np.random.default_rng(3), np.random.default_rng(3)
        los = np.exp(2j * np.pi * np.random.default_rng(4).random((5, 12)))
        self.assert_same_bits(rician_channel(5, 12, k_factor, los, ours),
                              reference_rician_channel(5, 12, k_factor, los, ref))
        self.assert_same_bits(complex_normal(ours, 7, 3),
                              reference_complex_normal(ref, 7, 3))
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_upa_steering(self, rng):
        for l_x, l_y in ((1, 1), (4, 2), (5, 3), (16, 16)):
            psi_a, psi_e = rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)
            self.assert_same_bits(upa_steering(psi_a, psi_e, l_x, l_y, 0.5),
                                  kron_upa_steering(psi_a, psi_e, l_x, l_y, 0.5))

    def test_shared_steering_vector_is_read_only(self, rng):
        cfg = SceneConfig(irs_rows=3, irs_cols=5)
        first, second = make_channels(cfg, rng), make_channels(cfg, rng)
        assert second.steer is first.steer
        assert not first.steer.flags.writeable
        before = first.steer.copy()
        with pytest.raises(ValueError, match="read-only"):
            first.steer[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            first.steer *= 1j
        self.assert_same_bits(make_channels(cfg, rng).steer, before)


class TestSceneConfigValidation:
    def test_rejects_rx_tx_mismatch(self):
        with pytest.raises(ConfigError):
            SceneConfig(n_rx=8, n_tx=16)

    def test_rejects_bad_beta(self):
        with pytest.raises(ConfigError):
            SceneConfig(beta=1.5)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ConfigError):
            SceneConfig(power_budget=0.0)

    def test_rejects_negative_rician(self):
        with pytest.raises(ConfigError):
            SceneConfig(rician_h=-1.0)

    @pytest.mark.parametrize("field,value", [
        ("power_budget", float("nan")), ("power_budget", float("inf")),
        ("sigma2_comm", float("inf")), ("sigma2_radar", float("nan")),
        ("alpha", complex(float("nan"), 0.0)), ("alpha", complex(0.0, float("inf"))),
        ("beampattern_tol", float("inf")), ("target_azimuth", float("nan")),
        ("beampattern_tol", 10 ** 400), ("target_azimuth", -10 ** 400),
        # a real field takes no complex value, even a zero imaginary part
        ("beta", 0.5 + 0j), ("sigma2_radar", 1e-3 + 0j),
        ("target_azimuth", 1 + 1j)])
    def test_rejects_non_finite_or_non_real(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SceneConfig(**{field: value})

    def test_every_field_is_checked(self):
        assert set(_SCENE_COUNTS) | set(_SCENE_REALS) \
            == {f.name for f in fields(SceneConfig)}

    def test_accepts_complex_alpha(self):
        assert SceneConfig(alpha=0.01 + 0.02j).alpha == 0.01 + 0.02j

    # a count must be an index numpy can take, at most 2**63 - 1
    @pytest.mark.parametrize("field,value", [
        ("irs_rows", 2.5), ("irs_rows", 10 ** 400), ("irs_rows", 2 ** 63),
        ("n_tx", 10 ** 400), ("n_tx", 2 ** 63)])
    def test_rejects_non_integer_counts(self, field, value):
        both = {"n_rx": value} if field == "n_tx" else {}
        with pytest.raises(ConfigError, match=field):
            SceneConfig(**{field: value, **both})

    def test_rejects_surface_size_beyond_index_range(self):
        # each factor is a count, their product L is not
        with pytest.raises(ConfigError, match=r"L = irs_rows \* irs_cols"):
            SceneConfig(irs_rows=2 ** 32, irs_cols=2 ** 32)


class TestJsonLoading:
    def test_db_suffix_conversion(self):
        cfg = scene_config_from_dict({
            "power_budget_dbm": 30, "sigma2_radar_dbm": 0,
            "sigma2_comm_dbm": 0, "alpha_mag_db": -20,
            "beampattern_tol_db": 10, "rician_g_db": 0,
        })
        assert cfg.power_budget == pytest.approx(1.0)
        assert cfg.sigma2_radar == pytest.approx(1e-3)
        assert abs(cfg.alpha) == pytest.approx(0.01)
        assert cfg.beampattern_tol == pytest.approx(10.0)
        assert cfg.rician_g == pytest.approx(1.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            scene_config_from_dict({"n_tx": 4, "n_rx": 4, "bogus": 1})

    def test_duplicate_linear_and_db_rejected(self):
        with pytest.raises(ConfigError, match="duplicates"):
            scene_config_from_dict({"power_budget": 1.0, "power_budget_dbm": 30})


def test_complex_normal_unit_variance(rng):
    draws = complex_normal(rng, 20_000)
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, rel=0.05)
