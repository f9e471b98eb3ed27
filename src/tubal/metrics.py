"""Reconstruction quality metrics: PSNR, windowed SSIM and relative error.

PSNR and SSIM score images on the library's [0, 1] scale (load_image divides
by the format's maxval, save_image clips), so their peak is 1.  Every metric
raises ValueError on an input that holds NaN or inf.
"""

import numpy as np

from .core import _row_blocks, fro_norm

SSIM_WINDOW = 8
K1, K2 = 0.01, 0.03  # SSIM's stabilizing constants (Wang, Bovik, Sheikh and Simoncelli 2004)


def _finite(**arrays):
    """Raise ValueError unless every entry of each named array is finite."""
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise ValueError(f"{name} holds NaN or inf")


def _images(reference, test):
    """reference and test as finite float arrays, checked to share one 2-D or 3-D shape."""
    reference, test = np.asarray(reference, dtype=float), np.asarray(test, dtype=float)
    if reference.shape != test.shape:
        raise ValueError(f"images differ in shape: {reference.shape} vs {test.shape}")
    if reference.ndim not in (2, 3):
        raise ValueError(f"expected 2 or 3 modes, got shape {reference.shape}")
    _finite(reference=reference, test=test)
    return reference, test


def psnr(reference, test):
    """Peak signal-to-noise ratio in decibels; infinite for identical images."""
    reference, test = _images(reference, test)
    mse = float(np.mean((reference - test) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(1.0 / mse))


def _box_sums(a, win):
    """Sum of every win x win window of a (valid positions only): running sums of win
    consecutive rows, then of win consecutive columns, so no prefix sum cancels."""
    n, m = a.shape[0] - win + 1, a.shape[1] - win + 1
    rows = a[:n].copy()
    for i in range(1, win):
        rows += a[i:i + n]
    out = rows[:, :m].copy()
    for j in range(1, win):
        out += rows[:, j:j + m]
    return out


def _check_window(shape):
    """ssim's rule: every frontal slice of an image of this shape holds one window."""
    if min(shape[:2]) < SSIM_WINDOW:
        raise ValueError(
            f"image {shape[:2]} is smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window"
        )


def _nonzero_norm(reference):
    """rel_error's rule: the norm of reference, which must not be zero."""
    norm = fro_norm(reference)
    if norm == 0.0:
        raise ValueError("reference has zero norm")
    return norm


def check_reference(reference):
    """Raise ValueError where ssim or rel_error cannot score against reference."""
    _check_window(np.shape(reference))
    _finite(reference=reference)
    _nonzero_norm(reference)


def _ssim2d(x, y):
    """Mean SSIM of one 2-D pair.  The window scores are made a block of whole score rows at
    a time (core._row_blocks), each from its own input rows plus the window's halo, into one
    array averaged once: every score, and so the mean, is the same whatever BLOCK is, and
    only one block's statistics are alive at a time."""
    win, n = SSIM_WINDOW, SSIM_WINDOW * SSIM_WINDOW
    c1, c2 = K1**2, K2**2
    scores = np.empty((x.shape[0] - win + 1, x.shape[1] - win + 1))
    for b in _row_blocks(scores):
        rows = slice(b.start, b.stop + win - 1)
        xb, yb = x[rows], y[rows]
        mu_x = _box_sums(xb, win) / n
        mu_y = _box_sums(yb, win) / n
        # Sample (n - 1 normalized) variances, summed with c2, and covariance per window.
        var_sum = ((_box_sums(xb * xb, win) - n * mu_x**2) / (n - 1)
                   + (_box_sums(yb * yb, win) - n * mu_y**2) / (n - 1) + c2)
        cov = (_box_sums(xb * yb, win) - n * mu_x * mu_y) / (n - 1)
        num = (2 * mu_x * mu_y + c1) * (2 * cov + c2)
        den = (mu_x**2 + mu_y**2 + c1) * var_sum
        np.divide(num, den, out=scores[b])
    return float(np.mean(scores))


def ssim(reference, test):
    """Mean structural similarity over sliding uniform SSIM_WINDOW windows (stride 1).

    3-D inputs are scored per frontal slice and averaged.  Raises ValueError
    when the image is smaller than the window or holds NaN or inf.
    """
    reference, test = _images(reference, test)
    _check_window(reference.shape)
    if reference.ndim == 2:
        return _ssim2d(reference, test)
    return float(np.mean([_ssim2d(reference[:, :, k], test[:, :, k])
                          for k in range(reference.shape[2])]))


def rel_error(x, reference):
    """Frobenius-relative reconstruction error ||x - reference|| / ||reference||."""
    x = np.asarray(x, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if x.shape != reference.shape:
        raise ValueError(f"shapes differ: {x.shape} vs {reference.shape}")
    _finite(x=x, reference=reference)
    return fro_norm(x - reference) / _nonzero_norm(reference)
