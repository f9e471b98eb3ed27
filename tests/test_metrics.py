"""Quality metrics: PSNR, windowed SSIM, relative error."""

import numpy as np
import pytest

import tubal.core as core
from tubal import psnr, rel_error, ssim
from tubal.metrics import SSIM_WINDOW, check_reference


def rand(shape, seed):
    return np.random.default_rng(seed).random(shape)


# ----------------------------------------------------------------- image pairs


def test_pair_validation():
    for metric in (psnr, ssim):
        with pytest.raises(ValueError):
            metric(np.zeros((8, 8)), np.zeros((8, 9)))
        with pytest.raises(ValueError):
            metric(np.zeros(8), np.zeros(8))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_is_refused(bad):
    ref, test = rand((9, 10), 14), rand((9, 10), 15)
    spoiled = ref.copy()
    spoiled[4, 5] = bad
    for metric in (psnr, ssim):
        with pytest.raises(ValueError, match="reference holds NaN or inf"):
            metric(spoiled, test)
        with pytest.raises(ValueError, match="test holds NaN or inf"):
            metric(ref, spoiled)
    with pytest.raises(ValueError, match="x holds NaN or inf"):
        rel_error(spoiled, ref)
    with pytest.raises(ValueError, match="reference holds NaN or inf"):
        rel_error(ref, spoiled)
    with pytest.raises(ValueError, match="reference holds NaN or inf"):
        check_reference(spoiled)
    check_reference(ref)


# ----------------------------------------------------------------------- psnr


def test_psnr_of_uniform_offset():
    ref = np.zeros((4, 4))
    test = np.full((4, 4), 0.1)
    assert abs(psnr(ref, test) - 20.0) <= 1e-12
    # halving both images (a peak of 2 on the unit scale) adds 10*log10(4) dB
    want = 10.0 * np.log10(400.0)
    assert abs(psnr(ref / 2, test / 2) - want) <= 1e-12


def test_psnr_identical_images_is_infinite():
    a = rand((5, 6), 0)
    assert psnr(a, a) == float("inf")


def test_psnr_uses_mean_square_error():
    ref = rand((6, 7), 1)
    test = rand((6, 7), 2)
    mse = np.mean((ref - test) ** 2)
    want = 10.0 * np.log10(1.0 / mse)
    assert abs(psnr(ref, test) - want) <= 1e-12


# ----------------------------------------------------------------------- ssim


def ssim_loop_oracle(x, y, peak=1.0, window=8):
    """Scores every window with explicit slicing and sample statistics."""
    c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2
    scores = []
    for i in range(x.shape[0] - window + 1):
        for j in range(x.shape[1] - window + 1):
            wx = x[i : i + window, j : j + window].ravel()
            wy = y[i : i + window, j : j + window].ravel()
            mx, my = wx.mean(), wy.mean()
            vx, vy = wx.var(ddof=1), wy.var(ddof=1)
            cov = ((wx - mx) * (wy - my)).sum() / (wx.size - 1)
            scores.append(
                ((2 * mx * my + c1) * (2 * cov + c2))
                / ((mx**2 + my**2 + c1) * (vx + vy + c2))
            )
    return float(np.mean(scores))


def test_ssim_identical_images_is_one():
    a = rand((12, 9), 3)
    assert ssim(a, a) == 1.0


def test_ssim_of_constant_offset_matches_closed_form():
    x = np.zeros((10, 10))
    y = np.full((10, 10), 0.5)
    c1 = 1e-4
    want = c1 / (0.25 + c1)
    got = ssim(x, y)
    assert abs(got - want) <= 1e-12


def test_ssim_matches_loop_oracle():
    x, y = rand((13, 11), 4), rand((13, 11), 5)
    got = ssim(x, y)
    want = ssim_loop_oracle(x, y)
    assert abs(got - want) <= 1e-10
    # doubling both images scores them as images of peak 0.5 on the unit scale
    got_half = ssim(2 * x, 2 * y)
    want_half = ssim_loop_oracle(x, y, peak=0.5)
    assert abs(got_half - want_half) <= 1e-10


@pytest.mark.parametrize(
    "shape, rows",
    [((37, 91), 4),  # 30 score rows: seven blocks of 4, then a ragged block of 2
     ((8, 50), 1),  # one score row
     ((300, 17), 7),  # tall and narrow
     ((40, 33, 3), 5)],  # a stack, scored per frontal slice
    ids=["ragged", "eight-rows", "tall", "stack"],
)
def test_blocked_ssim_equals_whole_image_ssim_byte_for_byte(monkeypatch, shape, rows):
    x, y = rand(shape, 16), rand(shape, 17)
    whole = ssim(x, y)  # at the default BLOCK every image here is one block
    assert (shape[0] - SSIM_WINDOW + 1) * (shape[1] - SSIM_WINDOW + 1) <= core.BLOCK
    monkeypatch.setattr(core, "BLOCK", rows * (shape[1] - SSIM_WINDOW + 1))
    assert ssim(x, y) == whole


def test_ssim_holds_one_block_of_statistics_at_a_time(traced_peak):
    # About 2.3 image sizes: the score array and one block's statistics; scored whole, 7.8
    x, y = rand((512, 512), 18), rand((512, 512), 19)
    _, peak = traced_peak(ssim, x, y)
    assert peak <= 3 * x.nbytes


def test_ssim_averages_frontal_slices():
    x, y = rand((10, 10, 3), 6), rand((10, 10, 3), 7)
    per_slice = [ssim(x[:, :, k], y[:, :, k]) for k in range(3)]
    assert abs(ssim(x, y) - np.mean(per_slice)) <= 1e-12


def test_ssim_rejects_window_larger_than_image():
    a = rand((5, 5), 8)
    with pytest.raises(ValueError):
        ssim(a, a)


def test_ssim_is_symmetric_and_below_one():
    x, y = rand((12, 12), 9), rand((12, 12), 10)
    assert abs(ssim(x, y) - ssim(y, x)) <= 1e-12
    assert ssim(x, y) < 1.0


# ------------------------------------------------------------------ rel_error


def test_rel_error_basic_identities():
    a = rand((4, 5, 3), 11)
    assert rel_error(a, a) == 0.0
    assert abs(rel_error(2 * a, a) - 1.0) <= 1e-12
    assert abs(rel_error(np.zeros_like(a), a) - 1.0) <= 1e-12


def test_rel_error_matches_norm_ratio():
    x, ref = rand((6, 6), 12), rand((6, 6), 13)
    want = np.linalg.norm(x - ref) / np.linalg.norm(ref)
    assert abs(rel_error(x, ref) - want) <= 1e-12


def test_rel_error_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rel_error(np.zeros((3, 3)), np.zeros((3, 4)))
    with pytest.raises(ValueError):
        rel_error(np.ones((3, 3)), np.zeros((3, 3)))
