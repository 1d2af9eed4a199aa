"""Small analysis helpers: dominant frequency and exponential envelopes."""

from __future__ import annotations

import numpy as np

from .errors import FitFailed

__all__ = ["dominant_frequency", "fit_exponential_envelope"]


def dominant_frequency(t: np.ndarray, values: np.ndarray) -> float:
    """Ordinary (not angular) frequency of the strongest spectral peak.

    ``values`` are samples on the uniform grid ``t``.  The mean is removed
    before the real FFT, so a constant offset does not masquerade as a
    zero-frequency peak.  Resolution is one FFT bin, 1 / (t_max - t_min).
    """
    y = values - values.mean()
    dt = t[1] - t[0]
    spectrum = np.abs(np.fft.rfft(y))
    freqs = np.fft.rfftfreq(len(y), d=dt)
    return float(freqs[int(np.argmax(spectrum))])


def fit_exponential_envelope(
    t: np.ndarray, values: np.ndarray, angular_freq: float
) -> float:
    """Fit A exp(-t / T2) to the fringe envelope of samples ``values`` at ``t``.

    The signal is assumed to oscillate about 1/2 at angular frequency
    ``angular_freq``; its envelope is sampled at the oscillation extrema
    (times k pi / angular_freq, where the cosine is +-1) and fitted by
    log-linear regression.  Extrema whose fringe amplitude has sunk below
    0.02 carry no envelope information at finite trial counts and are
    excluded.  Raises FitFailed with fewer than 3 usable extrema.

    Returns the fitted lifetime T2; the intercept log A is fitted but not returned.
    """
    if angular_freq <= 0:
        raise FitFailed("need a positive oscillation frequency to locate extrema")
    y = np.abs(values - 0.5) * 2.0  # fringe amplitude, 1 at full contrast
    half_period = np.pi / angular_freq
    n_ext = int(np.floor(t[-1] / half_period))
    t_ext = np.arange(1, n_ext + 1) * half_period
    t_ext = t_ext[t_ext >= t[0]]
    idx = np.clip(np.searchsorted(t, t_ext), 0, len(t) - 1)
    amps = y[idx]
    keep = amps > 0.02
    if keep.sum() < 3:
        raise FitFailed(f"only {int(keep.sum())} usable extrema, need >= 3")
    slope = np.polyfit(t_ext[keep], np.log(amps[keep]), 1)[0]
    if slope >= 0:
        raise FitFailed("envelope is not decaying")
    return -1.0 / slope
