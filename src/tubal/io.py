"""File formats: binary netpbm images (PGM/PPM) and raw tensor/mask containers.

Images load from 8- or 16-bit files (16-bit samples big-endian, per the
netpbm convention) as float arrays scaled to [0, 1], and save as 8-bit files.
Tensors and masks use little-endian containers with a 4-byte magic, three
uint64 dimensions, and a payload laid out frontal-slice-major, column-major
within each slice (Fortran order).
"""

import math
import re
import struct

import numpy as np

from .core import ObservationMask

T3_MAGIC = b"T3F1"
MASK_MAGIC = b"T3M1"


# Magic, then width, height and maxval, each after whitespace or '#' comment lines,
# then the one whitespace byte that ends the header.  A comment takes its line end,
# so each header has one parse and a failed match backtracks in linear time.
_NETPBM_HEADER = re.compile(rb"(P[56])" + rb"(?:\s|#[^\n\r]*[\n\r])+(\d+)" * 3 + rb"\s")


def load_image(path):
    """Load a binary PGM (P5) or PPM (P6) image as floats in [0, 1].

    Grayscale images come back as (height, width); color as
    (height, width, 3).
    """
    with open(path, "rb") as f:
        data = f.read()
    header = _NETPBM_HEADER.match(data)
    if header is None:
        raise ValueError(f"no binary PGM/PPM header (P5 or P6, width, height, maxval) in {path}")
    color = header[1] == b"P6"
    width, height, maxval = map(int, header.group(2, 3, 4))
    if width < 1 or height < 1:
        raise ValueError(f"bad image dimensions {width}x{height} in {path}")
    if not 0 < maxval < 65536:
        raise ValueError(f"maxval {maxval} out of range in {path}")
    channels = 3 if color else 1
    count = width * height * channels
    dtype = ">u2" if maxval > 255 else np.uint8
    try:
        raw = np.frombuffer(data, dtype=dtype, count=count, offset=header.end())
    except ValueError:
        raise ValueError(f"truncated pixel data in {path}") from None
    img = raw.astype(float).reshape(height, width, channels) / maxval
    return img[:, :, 0] if not color else img


def save_image(path, img):
    """Write an 8-bit PGM (2-D input) or PPM (h x w x 3 input) with round-half-up quantization.

    Values are clipped to [0, 1] before scaling; no comments are written.
    """
    img = np.asarray(img, dtype=float)
    if img.ndim == 3 and img.shape[2] == 3:
        magic, height, width = b"P6", img.shape[0], img.shape[1]
        flat = img
    elif img.ndim == 2:
        magic, height, width = b"P5", img.shape[0], img.shape[1]
        flat = img[:, :, None]
    else:
        raise ValueError(f"cannot save shape {img.shape} as PGM/PPM")
    payload = np.floor(np.clip(flat, 0.0, 1.0) * 255 + 0.5).astype(np.uint8).tobytes()
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (width, height))
        f.write(payload)


def _write_container(path, magic, dims, payload, trailer=b""):
    with open(path, "wb") as f:
        f.writelines((magic, struct.pack("<3Q", *dims), payload, trailer))


def _read_container(path, magic, dtype, trailer=0):
    """A container's dims, its payload as a flat dtype array, and its trailer bytes.

    The file must be exactly as long as its dims and the trailer need.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != magic:
        raise ValueError(f"bad magic in {path}, expected {magic.decode()}")
    if len(data) < 28:
        raise ValueError(f"truncated header in {path}")
    dims = struct.unpack("<3Q", data[4:28])
    count = math.prod(dims)
    if len(data) != 28 + np.dtype(dtype).itemsize * count + trailer:
        raise ValueError(f"payload size mismatch in {path}")
    return dims, np.frombuffer(data, dtype, count, offset=28), data[len(data) - trailer :]


def save_tensor(path, a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 3:
        raise ValueError(f"tensor file stores 3 modes, got shape {a.shape}")
    _write_container(path, T3_MAGIC, a.shape, np.ravel(a, order="F").astype("<f8").tobytes())


def load_tensor(path):
    dims, payload, _ = _read_container(path, T3_MAGIC, "<f8")
    return payload.reshape(dims, order="F").copy()


def save_mask(path, mask):
    if not isinstance(mask, ObservationMask):
        mask = ObservationMask(mask)
    flags = np.ravel(mask.observed, order="F").astype(np.uint8).tobytes()
    _write_container(path, MASK_MAGIC, mask.dims, flags, bytes([mask.pad_observed_zero]))


def load_mask(path):
    dims, flags, trailer = _read_container(path, MASK_MAGIC, np.uint8, trailer=1)
    if np.any(flags > 1) or trailer[0] > 1:
        raise ValueError(f"mask bytes and the padding flag must be 0 or 1 in {path}")
    observed = flags.astype(bool).reshape(dims, order="F")
    return ObservationMask(observed, pad_observed_zero=bool(trailer[0]))
