import numpy as np
import pytest

from cqed.errors import FitFailed
from cqed.fitting import dominant_frequency, fit_exponential_envelope

#: 1024 samples 0.01 apart: FFT bins are 1 / 10.24 apart.
N, DT = 1024, 0.01
T = np.arange(N) * DT


def fringe(t, omega, t2, amplitude):
    """Ramsey-like signal oscillating about 1/2 under the envelope amplitude exp(-t / t2)."""
    return 0.5 + 0.5 * amplitude * np.exp(-t / t2) * np.cos(omega * t)


class TestDominantFrequency:
    @pytest.mark.parametrize("cycles", [3, 17, 100])
    def test_cosine_on_an_fft_bin(self, cycles):
        f = cycles / (N * DT)
        assert dominant_frequency(T, np.cos(2 * np.pi * f * T)) == pytest.approx(f, rel=1e-12)

    def test_constant_offset_is_removed(self):
        f = 5 / (N * DT)
        values = 7.0 + 0.01 * np.cos(2 * np.pi * f * T)
        assert dominant_frequency(T, values) == pytest.approx(f, rel=1e-12)

    def test_phase_does_not_move_the_peak(self):
        f = 12 / (N * DT)
        for phase in (0.0, 0.4, np.pi / 2, 2.0, np.pi):
            values = np.cos(2 * np.pi * f * T + phase)
            assert dominant_frequency(T, values) == pytest.approx(f, rel=1e-12)

    def test_strongest_of_two_tones_wins(self):
        weak, strong = 9 / (N * DT), 31 / (N * DT)
        values = 0.3 * np.cos(2 * np.pi * weak * T) + np.cos(2 * np.pi * strong * T)
        assert dominant_frequency(T, values) == pytest.approx(strong, rel=1e-12)

    def test_off_bin_tone_within_one_bin(self):
        f = 7.4 / (N * DT)
        resolution = 1.0 / (T[-1] - T[0])
        assert abs(dominant_frequency(T, np.cos(2 * np.pi * f * T)) - f) <= resolution


class TestFitExponentialEnvelope:
    #: 50 samples per half period of omega = 3; sample 50 k is exactly the k-th extremum.
    OMEGA = 3.0
    TIMES = np.arange(2001) / 50 * (np.pi / OMEGA)

    @pytest.mark.parametrize("t2,amplitude", [(5.0, 1.0), (20.0, 0.8), (2.0, 0.6)])
    def test_recovers_lifetime_and_amplitude(self, t2, amplitude):
        # the lifetime is recovered whatever the fringe amplitude
        values = fringe(self.TIMES, self.OMEGA, t2, amplitude)
        t2_fit = fit_exponential_envelope(self.TIMES, values, self.OMEGA)
        assert t2_fit == pytest.approx(t2, rel=1e-6)

    def test_extrema_below_the_floor_are_left_out(self):
        # past t = 15 the envelope is under 0.02, so scrambling those samples
        # must not move the fit
        values = fringe(self.TIMES, self.OMEGA, 4.0, 1.0)
        late = self.TIMES > 15.0
        values[late] = 0.5 + 0.005 * np.random.default_rng(36).uniform(-1, 1, late.sum())
        t2_fit = fit_exponential_envelope(self.TIMES, values, self.OMEGA)
        assert t2_fit == pytest.approx(4.0, rel=1e-6)

    @pytest.mark.parametrize("omega", [0.0, -1.0])
    def test_non_positive_frequency_raises(self, omega):
        with pytest.raises(FitFailed):
            fit_exponential_envelope(self.TIMES, fringe(self.TIMES, 3.0, 5.0, 1.0), omega)

    def test_too_few_extrema_raises(self):
        times = self.TIMES[:120]  # 2.4 half periods
        with pytest.raises(FitFailed, match="usable extrema"):
            fit_exponential_envelope(times, fringe(times, self.OMEGA, 5.0, 1.0), self.OMEGA)

    def test_growing_envelope_raises(self):
        values = fringe(self.TIMES, self.OMEGA, -20.0, 0.05)
        with pytest.raises(FitFailed, match="not decaying"):
            fit_exponential_envelope(self.TIMES, values, self.OMEGA)
