import numpy as np
import pytest

from isacopt import (ChannelConstants, IrsPhase, OmegaRows, Precoder,
                     SceneConfig, alternating, make_channels)
from isacopt.objective import hermitize
from isacopt.scene import complex_normal


def small_config(l_rows=2, l_cols=2, n_tx=3, k=2, beta=0.5, **kwargs):
    defaults = dict(n_tx=n_tx, n_rx=n_tx, n_users=k, irs_rows=l_rows,
                    irs_cols=l_cols, beta=beta, alpha=0.1 + 0.0j)
    defaults.update(kwargs)
    return SceneConfig(**defaults)


def random_scene(rng, l_rows=2, l_cols=2, n_tx=3, k=2, **kwargs):
    """Seeded scene + channels + power-normalized random precoder + phases."""
    kwargs.setdefault("beta", float(rng.uniform(0.05, 0.95)))
    cfg = small_config(l_rows, l_cols, n_tx, k, **kwargs)
    ch = make_channels(cfg, rng)
    p = complex_normal(rng, cfg.n_tx, cfg.n_users)
    p = p * np.sqrt(cfg.power_budget / np.sum(np.abs(p) ** 2))
    theta = IrsPhase(np.exp(2j * np.pi * rng.random(cfg.n_irs)))
    return cfg, ch, Precoder(p), theta


def paper_scene(rng, l_rows=6, l_cols=6):
    """``random_scene`` on the paper's scene, ``SceneConfig()`` (N = 16,
    K = 5), with an l_rows x l_cols surface (L = 36 by default)."""
    paper = SceneConfig()
    return random_scene(rng, l_rows, l_cols, n_tx=paper.n_tx, k=paper.n_users,
                        beta=paper.beta, alpha=paper.alpha)


def scored_start(theta, p, ch, cfg):
    """A phase solve's one input: the ``ScoredPoint`` of p at theta, on the
    constants of (ch, cfg)."""
    return ChannelConstants(ch, cfg).channels(theta).score(p.p)


def random_phases(rng, l):
    return IrsPhase(np.exp(2j * np.pi * rng.random(l)))


def random_hermitian(rng, n, scale=1.0):
    m = complex_normal(rng, n, n)
    return scale * 0.5 * (m + m.conj().T)


def random_psd(rng, n, scale=1.0):
    m = complex_normal(rng, n, n)
    return scale * (m @ m.conj().T)


def omega_rows(rows, weights):
    """(OmegaRows, dense Omega) of Omega = X^H diag(w) X over the rows X."""
    weights = np.asarray(weights, dtype=float)
    return (OmegaRows(rows, weights),
            hermitize((rows.conj().T * weights) @ rows))


def random_omega(rng, n, scale=1.0):
    """The Omega of ``random_psd`` from the same draws, scale M M^H, as
    (OmegaRows, dense Omega): the rows M^H, each of weight ``scale``."""
    m = complex_normal(rng, n, n)
    return omega_rows(m.conj().T, np.full(n, scale))


def eigh_rows(omega):
    """A dense Hermitian Omega = U diag(w) U^H as the rows U^H with the
    weights w."""
    w, u = np.linalg.eigh(hermitize(omega))
    return OmegaRows(u.conj().T, w)


@pytest.fixture
def phase_solver_calls(monkeypatch):
    """(solver name, inner_max) of every phase-solver call of the loop."""
    calls = []
    for name in ("solve_irs_minorization", "solve_irs_manifold"):
        solver = getattr(alternating, name)

        def spy(*args, _solver=solver, _name=name, **kwargs):
            calls.append((_name, kwargs["inner_max"]))
            return _solver(*args, **kwargs)

        monkeypatch.setattr(alternating, name, spy)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
