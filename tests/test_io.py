"""File formats: tensor and mask containers, binary PGM/PPM images."""

import struct

import numpy as np
import pytest

from tubal import (
    ObservationMask,
    load_image,
    load_mask,
    load_tensor,
    save_image,
    save_mask,
    save_tensor,
)


def rand(shape, seed):
    return np.random.default_rng(seed).random(shape)


# -------------------------------------------------------------------- tensors


def test_tensor_round_trip_is_exact(tmp_path):
    a = np.random.default_rng(0).standard_normal((3, 4, 5))
    path = tmp_path / "a.t3"
    save_tensor(path, a)
    b = load_tensor(path)
    assert b.shape == a.shape
    assert a.tobytes() == b.tobytes()


def test_tensor_file_layout(tmp_path):
    a = np.arange(24, dtype=float).reshape(2, 3, 4)
    path = tmp_path / "a.t3"
    save_tensor(path, a)
    data = path.read_bytes()
    assert data[:4] == b"T3F1"
    assert struct.unpack("<3Q", data[4:28]) == (2, 3, 4)
    want = np.ravel(a, order="F").astype("<f8").tobytes()
    assert data[28:] == want


def test_tensor_rejects_non_3d():
    with pytest.raises(ValueError):
        save_tensor("/dev/null", np.zeros((3, 4)))


def test_tensor_load_rejects_corruption(tmp_path):
    a = rand((2, 2, 2), 1)
    path = tmp_path / "a.t3"
    save_tensor(path, a)
    data = path.read_bytes()
    bad = tmp_path / "bad.t3"
    bad.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(ValueError):
        load_tensor(bad)
    bad.write_bytes(data[:20])
    with pytest.raises(ValueError):
        load_tensor(bad)
    bad.write_bytes(data[:-3])
    with pytest.raises(ValueError):
        load_tensor(bad)
    bad.write_bytes(data + b"\x00")
    with pytest.raises(ValueError):
        load_tensor(bad)


# ---------------------------------------------------------------------- masks


def test_mask_round_trip_keeps_pattern_and_flag(tmp_path):
    observed = rand((4, 3, 2), 2) < 0.5
    for flag in (False, True):
        mask = ObservationMask(observed, pad_observed_zero=flag)
        path = tmp_path / f"m{flag}.msk"
        save_mask(path, mask)
        back = load_mask(path)
        assert np.array_equal(back.observed, observed)
        assert back.pad_observed_zero is flag


def test_mask_file_layout(tmp_path):
    observed = np.zeros((2, 2, 1), dtype=bool)
    observed[0, 1, 0] = True
    path = tmp_path / "m.msk"
    save_mask(path, ObservationMask(observed, pad_observed_zero=True))
    data = path.read_bytes()
    assert data[:4] == b"T3M1"
    assert struct.unpack("<3Q", data[4:28]) == (2, 2, 1)
    # payload is Fortran order: (0,0) (1,0) (0,1) (1,1)
    assert data[28:32] == bytes([0, 0, 1, 0])
    assert data[32] == 1 and len(data) == 33


def test_save_mask_accepts_plain_arrays(tmp_path):
    observed = rand((3, 3, 3), 3) < 0.5
    path = tmp_path / "m.msk"
    save_mask(path, observed)
    assert np.array_equal(load_mask(path).observed, observed)


def test_mask_load_rejects_corruption(tmp_path):
    observed = rand((2, 2, 2), 4) < 0.5
    path = tmp_path / "m.msk"
    save_mask(path, ObservationMask(observed))
    data = path.read_bytes()
    bad = tmp_path / "bad.msk"
    bad.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(ValueError):
        load_mask(bad)
    bad.write_bytes(data[:-2])
    with pytest.raises(ValueError):
        load_mask(bad)
    corrupted = bytearray(data)
    corrupted[28] = 7  # mask bytes must be 0 or 1
    bad.write_bytes(bytes(corrupted))
    with pytest.raises(ValueError):
        load_mask(bad)
    bad.write_bytes(data[:-1] + bytes([7]))  # and so must the padding flag
    with pytest.raises(ValueError, match="padding flag"):
        load_mask(bad)


# --------------------------------------------------------------------- images


def test_pgm_write_layout_and_quantization(tmp_path):
    img = np.array([[0.0, 0.5, 1.0], [-0.2, 1.7, 128.4 / 255.0]])
    path = tmp_path / "a.pgm"
    save_image(path, img)
    data = path.read_bytes()
    assert data == b"P5\n3 2\n255\n" + bytes([0, 128, 255, 0, 255, 128])


def test_pgm_round_trip_on_grid_values_is_exact(tmp_path):
    q = np.random.default_rng(5).integers(0, 256, size=(7, 9))
    img = q / 255.0
    path = tmp_path / "a.pgm"
    save_image(path, img)
    back = load_image(path)
    assert back.shape == (7, 9)
    assert np.array_equal(back * 255.0, q.astype(float))


def test_sixteen_bit_images_are_big_endian(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n3 1\n65535\n" + b"\xff\xff\x00\x00\x01\x00")
    back = load_image(path)
    assert np.array_equal(back * 65535.0, np.array([[65535.0, 0.0, 256.0]]))


def test_sixteen_bit_round_trip_accuracy(tmp_path):
    img = rand((6, 5), 6)
    q = np.floor(img * 65535 + 0.5).astype(">u2")  # round half up, as netpbm writers do
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n5 6\n65535\n" + q.tobytes())
    back = load_image(path)
    assert np.max(np.abs(back - img)) <= 0.5 / 65535


def test_ppm_color_round_trip(tmp_path):
    q = np.random.default_rng(7).integers(0, 256, size=(4, 5, 3))
    img = q / 255.0
    path = tmp_path / "a.ppm"
    save_image(path, img)
    data = path.read_bytes()
    assert data.startswith(b"P6\n5 4\n255\n")
    back = load_image(path)
    assert back.shape == (4, 5, 3)
    assert np.array_equal(back * 255.0, q.astype(float))


def test_image_header_comments_are_skipped(tmp_path):
    payload = bytes(range(6))
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5 # magic comment\n# size\n3 2 # width height\n255\n" + payload)
    img = load_image(path)
    assert img.shape == (2, 3)
    assert np.array_equal(img * 255.0, np.arange(6, dtype=float).reshape(2, 3))


def test_image_load_rejects_corruption(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P4\n3 2\n255\n" + bytes(6))
    with pytest.raises(ValueError):
        load_image(path)
    path.write_bytes(b"P5\nthree 2\n255\n" + bytes(6))
    with pytest.raises(ValueError):
        load_image(path)
    path.write_bytes(b"P5\n0 2\n255\n")
    with pytest.raises(ValueError):
        load_image(path)
    path.write_bytes(b"P5\n3 2\n70000\n" + bytes(12))
    with pytest.raises(ValueError):
        load_image(path)
    path.write_bytes(b"P5\n3 2\n255\n" + bytes(5))
    with pytest.raises(ValueError):
        load_image(path)
    path.write_bytes(b"P5\n3 2\n255")
    with pytest.raises(ValueError):
        load_image(path)


def test_save_image_rejects_bad_shapes_and_maxval(tmp_path):
    path = tmp_path / "a.pgm"
    with pytest.raises(ValueError):
        save_image(path, np.zeros(5))
    with pytest.raises(ValueError):
        save_image(path, np.zeros((4, 4, 2)))
    with pytest.raises(TypeError):  # images are saved 8-bit only
        save_image(path, np.zeros((4, 4)), maxval=255)
