import numpy as np
import pytest

from uavmec import channel as ch


def test_los_probability_increases_with_elevation():
    h = 100.0
    slants = np.array([100.0, 120.0, 200.0, 500.0, 1000.0])
    rho = ch.los_probability(slants, h, c1=10.0, c2=0.6)
    assert np.all(np.diff(rho) < 0), "LoS prob must fall as the link flattens"
    assert 0.0 < rho[-1] < rho[0] <= 1.0
    overhead = ch.los_probability(100.0, 100.0, 10.0, 0.6)
    assert overhead == pytest.approx(1.0 / (1.0 + 10.0 * np.exp(-0.6 * 80.0)))


def test_speed_of_light_is_scipys_exact_value():
    from scipy.constants import speed_of_light
    assert ch.SPEED_OF_LIGHT == speed_of_light


def test_los_probability_rejects_bad_geometry():
    with pytest.raises(ValueError):
        ch.los_probability(50.0, 100.0, 10.0, 0.6)
    with pytest.raises(ValueError):
        ch.los_probability(100.0, 0.0, 10.0, 0.6)


def test_nakagami_amplitude_statistics():
    rng = np.random.default_rng(0)
    amps = ch.sample_small_scale(3.0, 2.0, rng, size=200_000)
    # E[|h|^2] = mean_power; Var of the power = mean_power^2 / shape
    assert np.mean(amps ** 2) == pytest.approx(2.0, rel=0.01)
    assert np.var(amps ** 2) == pytest.approx(4.0 / 3.0, rel=0.02)
    with pytest.raises(ValueError):
        ch.sample_small_scale(0.4, 1.0, rng)
    with pytest.raises(ValueError):
        ch.sample_small_scale(1.0, 0.0, rng)


def test_large_scale_loss_is_quadratic_in_distance_and_frequency():
    base = ch.large_scale_loss(100.0, 2e9, 1.0)
    assert ch.large_scale_loss(200.0, 2e9, 1.0) == pytest.approx(4 * base)
    assert ch.large_scale_loss(100.0, 4e9, 1.0) == pytest.approx(4 * base)
    assert ch.large_scale_loss(100.0, 2e9, 10.0) == pytest.approx(10 * base)
    with pytest.raises(ValueError):
        ch.large_scale_loss(0.0, 2e9, 1.0)


def test_composite_gain_blends_the_two_branches():
    gain_los = ch.composite_gain(1.0, 2.0, 5.0, 4.0, 8.0)
    assert gain_los == pytest.approx(2.0 ** 2 / 4.0)
    gain_nlos = ch.composite_gain(0.0, 2.0, 5.0, 4.0, 8.0)
    assert gain_nlos == pytest.approx(5.0 ** 2 / 8.0)
    gain_mix = ch.composite_gain(0.25, 2.0, 5.0, 4.0, 8.0)
    assert gain_mix == pytest.approx(0.25 * gain_los + 0.75 * gain_nlos)


def test_transmission_rate_scales_linearly_with_share():
    r1 = ch.transmission_rate(1.0, 5e6, 0.1, 1e-8, 1e-13)
    r_half = ch.transmission_rate(0.5, 5e6, 0.1, 1e-8, 1e-13)
    assert r_half == pytest.approx(r1 / 2)
    assert ch.transmission_rate(1.0, 5e6, 0.1, 0.0, 1e-13) == 0.0
    with pytest.raises(ValueError):
        ch.transmission_rate(0.0, 5e6, 0.1, 1e-8, 1e-13)
    with pytest.raises(ValueError):
        ch.transmission_rate(1.0, 5e6, 0.1, -1e-8, 1e-13)


def test_snr_numerator_reproduces_the_rate():
    """B*log2(1 + phi/slant^2) must equal the composite-gain Shannon rate."""
    rng = np.random.default_rng(42)
    for _ in range(50):
        slant = rng.uniform(100.0, 800.0)
        p_los = ch.los_probability(slant, 100.0, 10.0, 0.6)
        amp_los = ch.sample_small_scale(3.0, 1.0, rng)
        amp_nlos = ch.sample_small_scale(1.0, 1.0, rng)
        loss_los = ch.large_scale_loss(slant, 2e9, db(1.0))
        loss_nlos = ch.large_scale_loss(slant, 2e9, db(20.0))
        gain = ch.composite_gain(p_los, amp_los, amp_nlos, loss_los,
                                 loss_nlos)
        noise = 1.58e-13
        rate = ch.transmission_rate(1.0, 5e6, 0.1, gain, noise)
        phi = ch.snr_numerator(p_los, amp_los, amp_nlos, 0.1, 2e9,
                               db(1.0), db(20.0), noise)
        assert rate == pytest.approx(
            5e6 * np.log2(1.0 + phi / slant ** 2), rel=1e-12)


def db(x):
    return 10.0 ** (x / 10.0)
