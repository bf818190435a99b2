"""Ground-to-air channel: probabilistic LoS, Nakagami-m fading, Shannon rate.

The link gain mixes a line-of-sight and a non-line-of-sight branch by the
elevation-angle-dependent LoS probability

    rho = 1 / (1 + c1 * exp(-c2 * (angle_deg - c1))),

each branch combining a Nakagami-m small-scale amplitude with a free-space
path loss scaled by an excess-attenuation factor.  All functions broadcast
over numpy arrays, and the module imports no SciPy.
"""
from __future__ import annotations

import numpy as np

SPEED_OF_LIGHT = 299792458.0   # m/s, exact by the SI definition of the metre


def los_probability(distance, altitude, c1: float, c2: float):
    """LoS probability of a slant link.

    ``distance`` is the 3-D (slant) distance, ``altitude`` the height gap, so
    the elevation angle is asin(altitude/distance) in degrees.  Raises if the
    geometry is impossible (distance < altitude).
    """
    d = np.asarray(distance, dtype=float)
    h = np.asarray(altitude, dtype=float)
    if np.any(h <= 0):
        raise ValueError("altitude gap must be positive")
    if np.any(d < h):
        raise ValueError("slant distance cannot be smaller than the altitude")
    angle = np.degrees(np.arcsin(np.minimum(h / d, 1.0)))
    rho = 1.0 / (1.0 + c1 * np.exp(-c2 * (angle - c1)))
    return rho if rho.shape else float(rho)


def sample_small_scale(shape: float, mean_power: float,
                       rng: np.random.Generator, size=None):
    """Nakagami-m amplitude(s): sqrt of Gamma(shape, mean_power/shape).

    shape >= 0.5 (Nakagami validity); mean_power is E[amplitude^2].
    """
    if shape < 0.5:
        raise ValueError("Nakagami shape must be >= 0.5")
    if mean_power <= 0:
        raise ValueError("mean_power must be positive")
    power = rng.gamma(shape, mean_power / shape, size=size)
    return np.sqrt(power)


def large_scale_loss(distance, frequency: float, attenuation):
    """Free-space-style power loss (4*pi*d*f/c)^2 times excess attenuation."""
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    loss = (4.0 * np.pi * d * frequency / SPEED_OF_LIGHT) ** 2 * attenuation
    return loss if loss.shape else float(loss)


def composite_gain(p_los, amp_los, amp_nlos, loss_los, loss_nlos):
    """Power gain g = rho*|h_los|^2/L_los + (1-rho)*|h_nlos|^2/L_nlos."""
    p = np.asarray(p_los, dtype=float)
    g = p * np.asarray(amp_los) ** 2 / loss_los \
        + (1.0 - p) * np.asarray(amp_nlos) ** 2 / loss_nlos
    return g if g.shape else float(g)


def transmission_rate(w, bandwidth, tx_power, gain, noise_power):
    """Shannon rate w * B * log2(1 + p*g/noise) in bits/s.

    ``w`` is the bandwidth fraction allocated to the link (0 < w <= 1).
    """
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0):
        raise ValueError("bandwidth share must be positive")
    if np.any(np.asarray(gain) < 0):
        raise ValueError("gain must be nonnegative")
    snr = np.asarray(tx_power) * np.asarray(gain) / noise_power
    rate = w * bandwidth * np.log2(1.0 + snr)
    return rate if rate.shape else float(rate)


def snr_numerator(p_los, amp_los, amp_nlos, tx_power, frequency,
                  attenuation_los, attenuation_nlos, noise_power):
    """Distance-free part of the SNR: phi such that SNR = phi / d^2.

    Folding the (4*pi*f/c)^2 / attenuation factors of both branches and the
    noise power into one constant lets rate expressions be written as
    log2(1 + phi/(H^2 + ||q - q_m||^2)), which the trajectory stage relies on.
    """
    p = np.asarray(p_los, dtype=float)
    factor = (4.0 * np.pi * frequency / SPEED_OF_LIGHT) ** 2
    branch = (p * np.asarray(amp_los) ** 2 / attenuation_los
              + (1.0 - p) * np.asarray(amp_nlos) ** 2 / attenuation_nlos)
    phi = np.asarray(tx_power) * branch / (factor * noise_power)
    return phi if phi.shape else float(phi)
