"""Inpaint a grayscale image from a random 70 percent sample of its pixels.

Column blocks of the image fold into frontal slices of a tensor, and the
folded image is approximately low tubal rank, which is the structure the
solver restores.  Writes the observed and recovered images into the
directory given as the first argument, by default demos/out/ next to this
script.

    python3 demos/image_inpainting_demo.py [OUTPUT_DIR]
"""

import sys
from pathlib import Path

import numpy as np

from tubal import (
    CompletionProblem,
    SolverConfig,
    complete_matrix,
    generate_mask,
    psnr,
    rel_error,
    save_image,
    ssim,
)


def synthetic_scene(n=256):
    """Smooth waves, a soft blob, and one flat disk: textured but compressible."""
    yy, xx = np.mgrid[0:n, 0:n] / (n - 1)
    img = (
        0.35
        + 0.3 * np.sin(2 * np.pi * (1.3 * xx + 0.4 * yy)) * np.cos(2 * np.pi * 0.9 * yy)
        + 0.25 * np.exp(-((xx - 0.3) ** 2 + (yy - 0.6) ** 2) / 0.02)
    )
    img[(xx - 0.7) ** 2 + (yy - 0.25) ** 2 < 0.03] = 0.9
    return np.clip(img, 0.0, 1.0)


out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "out"
out_dir.mkdir(parents=True, exist_ok=True)

image = synthetic_scene()
mask2d = generate_mask((*image.shape, 1), 0.7, seed=0).observed[:, :, 0]
observed = np.where(mask2d, image, 0.0)
save_image(out_dir / "observed.pgm", observed)
print(f"image {image.shape}, observing {mask2d.mean():.0%} of the pixels")

# Fold width-16 column blocks into 16 frontal slices and run the solver.
problem = CompletionProblem.from_matrix(observed, mask2d, 16)
x, recovered, trace = complete_matrix(problem, SolverConfig(init_ranks=8, seed=0))
recovered = np.clip(recovered, 0.0, 1.0)
save_image(out_dir / "recovered.pgm", recovered)

print(f"sweeps: {trace.iterations} ({trace.termination})")
print(f"psnr: {psnr(image, observed):6.2f} dB observed -> "
      f"{psnr(image, recovered):6.2f} dB recovered")
print(f"ssim: {ssim(image, observed):6.3f}     observed -> "
      f"{ssim(image, recovered):6.3f}    recovered")
print(f"rel error: {rel_error(recovered, image):.3e}")
print(f"wrote {out_dir / 'observed.pgm'} and {out_dir / 'recovered.pgm'}")
