"""Reconstruction quality metrics: PSNR, windowed SSIM and relative error."""

from dataclasses import dataclass

import numpy as np

from .core import fro_norm

SSIM_WINDOW = 8


@dataclass
class ImagePair:
    """A reference image and a test image on the same grid.

    Arrays may be 2-D (grayscale) or 3-D (stacked slices); peak is the
    dynamic range the metrics are scaled against.
    """

    reference: np.ndarray
    test: np.ndarray
    peak: float = 1.0

    def __post_init__(self):
        self.reference = np.asarray(self.reference, dtype=float)
        self.test = np.asarray(self.test, dtype=float)
        if self.reference.shape != self.test.shape:
            raise ValueError(
                f"images differ in shape: {self.reference.shape} vs {self.test.shape}"
            )
        if self.reference.ndim not in (2, 3):
            raise ValueError(f"expected 2 or 3 modes, got shape {self.reference.shape}")
        if not self.peak > 0:
            raise ValueError(f"peak must be positive, got {self.peak}")


def psnr(pair):
    """Peak signal-to-noise ratio in decibels; infinite for identical images."""
    mse = float(np.mean((pair.reference - pair.test) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(pair.peak**2 / mse))


def _box_sums(a, win):
    """Sum of every win x win window of a (valid positions only)."""
    s = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    s[1:, 1:] = a.cumsum(axis=0).cumsum(axis=1)
    return (
        s[win:, win:] - s[:-win, win:] - s[win:, :-win] + s[:-win, :-win]
    )


def _check_window(shape, window):
    """ssim's rule: every frontal slice of an image of this shape holds one window."""
    if min(shape[:2]) < window:
        raise ValueError(f"image {shape[:2]} is smaller than the {window}x{window} window")


def check_reference(reference, window=SSIM_WINDOW):
    """The norm of reference, after the checks that scoring against it makes: ssim's
    window (None skips it) and rel_error's nonzero norm, each raising ValueError."""
    if window is not None:
        _check_window(np.shape(reference), window)
    norm = fro_norm(reference)
    if norm == 0.0:
        raise ValueError("reference has zero norm")
    return norm


def _ssim2d(x, y, peak, window, k1, k2):
    n = window * window
    c1 = (k1 * peak) ** 2
    c2 = (k2 * peak) ** 2
    mu_x = _box_sums(x, window) / n
    mu_y = _box_sums(y, window) / n
    # Sample (n - 1 normalized) variance and covariance per window.
    var_x = (_box_sums(x * x, window) - n * mu_x**2) / (n - 1)
    var_y = (_box_sums(y * y, window) - n * mu_y**2) / (n - 1)
    cov = (_box_sums(x * y, window) - n * mu_x * mu_y) / (n - 1)
    num = (2 * mu_x * mu_y + c1) * (2 * cov + c2)
    den = (mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


def ssim(pair, window=SSIM_WINDOW, k1=0.01, k2=0.03):
    """Mean structural similarity over sliding uniform windows (stride 1).

    3-D inputs are scored per frontal slice and averaged.  Raises ValueError
    when the image is smaller than the window.
    """
    ref, test = pair.reference, pair.test
    _check_window(ref.shape, window)
    if ref.ndim == 2:
        return _ssim2d(ref, test, pair.peak, window, k1, k2)
    scores = [
        _ssim2d(ref[:, :, k], test[:, :, k], pair.peak, window, k1, k2)
        for k in range(ref.shape[2])
    ]
    return float(np.mean(scores))


def rel_error(x, reference):
    """Frobenius-relative reconstruction error ||x - reference|| / ||reference||."""
    x = np.asarray(x, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if x.shape != reference.shape:
        raise ValueError(f"shapes differ: {x.shape} vs {reference.shape}")
    return fro_norm(x - reference) / check_reference(reference, window=None)
