from types import SimpleNamespace

import numpy as np
import pytest

from uavmec.allocation import allocate, uniform_allocation
from uavmec.verification import (_project_simplex, _simplex_minimize,
                                 allocation_oracle, share_objective)


def make_ctx(rng, n_servers=2, m_total=5):
    d = rng.uniform(0.2e6, 1e6, size=m_total)
    d[rng.random(m_total) < 0.15] = 0.0
    return SimpleNamespace(
        data_bits=d,
        cycles_per_bit=rng.uniform(500.0, 1500.0, size=m_total),
        rates=rng.uniform(1e6, 3e7, size=(n_servers, m_total)),
        tx_power=0.1,
        f_max=rng.uniform(1e10, 3e10, size=n_servers),
        gamma_time=0.7,
        gamma_energy=0.3,
    )


def test_closed_form_is_sqrt_proportional():
    rng = np.random.default_rng(0)
    ctx = make_ctx(rng)
    profile = np.array([0, 0, 1, 0, 1])
    alloc = allocate(profile, ctx)
    for s in range(2):
        idx = np.flatnonzero(profile == s)
        z = alloc.z[s, idx]
        assert z.sum() == pytest.approx(1.0)
        a = ctx.gamma_time * ctx.cycles_per_bit[idx] * ctx.data_bits[idx]
        if a.max() > 0:
            np.testing.assert_allclose(z, np.sqrt(a) / np.sqrt(a).sum(),
                                       rtol=1e-12)
        # non-members hold no share
        others = np.flatnonzero(profile != s)
        assert np.all(alloc.z[s, others] == 0.0)
        assert np.all(alloc.w[s, others] == 0.0)


def test_zero_size_tasks_get_zero_share():
    rng = np.random.default_rng(1)
    ctx = make_ctx(rng)
    ctx.data_bits = np.array([5e5, 0.0, 3e5, 0.0, 4e5])
    profile = np.zeros(5, dtype=int)
    alloc = allocate(profile, ctx)
    assert alloc.z[0, 1] == 0.0 and alloc.w[0, 3] == 0.0
    assert alloc.z[0].sum() == pytest.approx(1.0)


def test_degenerate_server_falls_back_to_uniform():
    rng = np.random.default_rng(2)
    ctx = make_ctx(rng, m_total=3)
    ctx.data_bits = np.zeros(3)
    alloc = allocate(np.zeros(3, dtype=int), ctx)
    np.testing.assert_allclose(alloc.z[0], [1 / 3] * 3)


def test_uniform_allocation_splits_equally():
    rng = np.random.default_rng(3)
    ctx = make_ctx(rng)
    profile = np.array([0, 0, 0, 1, -1])
    alloc = uniform_allocation(profile, ctx)
    np.testing.assert_allclose(alloc.z[0, :3], [1 / 3] * 3)
    np.testing.assert_allclose(alloc.w[1, 3], 1.0)
    assert alloc.z[1, 4] == 0.0


def test_oracle_matches_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(20):
        ctx = make_ctx(rng, n_servers=3, m_total=6)
        profile = rng.integers(-1, 3, size=6)
        fast = allocate(profile, ctx)
        slow = allocation_oracle(profile, ctx)
        np.testing.assert_allclose(slow.z, fast.z, atol=1e-6)
        np.testing.assert_allclose(slow.w, fast.w, atol=1e-6)
        gap = share_objective(profile, ctx, slow) \
            - share_objective(profile, ctx, fast)
        assert gap >= -1e-6


def test_closed_form_beats_random_feasible_shares():
    rng = np.random.default_rng(5)
    ctx = make_ctx(rng)
    profile = np.array([0, 0, 0, 0, 1])
    best = share_objective(profile, ctx, allocate(profile, ctx))
    for _ in range(50):
        alloc = allocate(profile, ctx)
        idx = np.flatnonzero(profile == 0)
        raw = rng.random(len(idx))
        alloc.z[0, idx] = raw / raw.sum()
        raw = rng.random(len(idx))
        alloc.w[0, idx] = raw / raw.sum()
        assert share_objective(profile, ctx, alloc) >= best - 1e-12


def test_project_simplex_is_the_nearest_point():
    rng = np.random.default_rng(6)
    for _ in range(200):
        v = rng.normal(0.0, 2.0, size=4)
        p = _project_simplex(v)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p >= 0.0)
        x = rng.dirichlet(np.ones(4), size=100)
        assert np.all(np.linalg.norm(x - v, axis=1)
                      >= np.linalg.norm(p - v) - 1e-12)


def test_project_simplex_fixes_simplex_points():
    x = np.array([0.2, 0.5, 0.3])
    np.testing.assert_allclose(_project_simplex(x), x, atol=1e-12)


def test_simplex_minimize_matches_sqrt_rule():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(0.01, 1.0, size=rng.integers(1, 7))
        x = _simplex_minimize(a)
        np.testing.assert_allclose(x, np.sqrt(a) / np.sqrt(a).sum(),
                                   atol=1e-8)


def test_simplex_minimize_handles_rounding_plateaus():
    # regression: this weight vector once stalled the line search just above
    # the stopping threshold because the true decrease fell below float
    # resolution near the optimum
    a = np.array([float.fromhex(h) for h in
                  ['0x1.77c8e32c4c76ap-5', '0x1.0106457d99601p-7',
                   '0x0.0p+0', '0x1.d47f443d3fe4ap-7',
                   '0x1.19b34718e11e4p-6']])
    x = _simplex_minimize(a)
    sq = np.sqrt(a)
    np.testing.assert_allclose(x, sq / sq.sum(), atol=1e-8)
    assert x[2] <= 1e-8


def test_simplex_minimize_guards():
    with pytest.raises(ValueError):
        _simplex_minimize(np.array([1.0, -0.5]))
    np.testing.assert_allclose(_simplex_minimize(np.zeros(4)), [0.25] * 4)
