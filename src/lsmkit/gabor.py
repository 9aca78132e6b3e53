"""Fixed Gabor filter bank for frame preprocessing.

The bank has 18 kernels: 6 orientations (0 to 150 degrees in 30 degree
steps) times 3 wavelengths (2, 4, 8 px), 7x7 support, sigma = half the
wavelength, unit aspect ratio, zero phase.  Frames are correlated with
each kernel (zero-padded, same size) and rectified at zero since reservoir
inputs are nonnegative rates.
"""

from __future__ import annotations

import numpy as np
from scipy import signal

from .errors import ConfigError
from .events import FrameSequence

ORIENTATIONS = 6
WAVELENGTHS = (2.0, 4.0, 8.0)
SIZE = 7
N_KERNELS = ORIENTATIONS * len(WAVELENGTHS)


def gabor_kernel(theta: float, wavelength: float) -> np.ndarray:
    """Real zero-mean Gabor kernel: Gaussian envelope times a cosine carrier.

    The envelope-weighted DC component is removed.  The 7x7 support
    truncates long-wavelength carriers to their central lobe, which would
    otherwise leave the kernel responding to plain brightness on every
    orientation equally.
    """
    sigma = 0.5 * wavelength
    half = SIZE // 2
    y, x = np.mgrid[-half : half + 1, -half : half + 1].astype(np.float64)
    x_r = x * np.cos(theta) + y * np.sin(theta)
    y_r = -x * np.sin(theta) + y * np.cos(theta)
    envelope = np.exp(-(x_r**2 + y_r**2) / (2.0 * sigma**2))
    kernel = envelope * np.cos(2.0 * np.pi * x_r / wavelength)
    return kernel - envelope * (kernel.sum() / envelope.sum())


def build_bank() -> np.ndarray:
    """(N_KERNELS, SIZE, SIZE) kernel stack, orientation-major order."""
    return np.stack(
        [
            gabor_kernel(np.pi * k / ORIENTATIONS, wavelength)
            for k in range(ORIENTATIONS)
            for wavelength in WAVELENGTHS
        ]
    )


def gabor_bank(seq: FrameSequence) -> FrameSequence:
    """Correlate every frame of every channel with the bank; rectify at zero.

    Each input channel is filtered separately, giving channels * N_KERNELS
    output channels, channel-major.
    """
    t, c, h, w = seq.frames.shape
    if SIZE > h or SIZE > w:
        raise ConfigError(f"kernel {SIZE} larger than frame {h}x{w}")
    if t == 0:  # fftconvolve cannot broadcast an empty frame stack
        return FrameSequence(np.zeros((0, c * N_KERNELS, h, w)))
    kernels = build_bank()
    out = np.empty((t, c * N_KERNELS, h, w), dtype=np.float64)
    frames = seq.frames.astype(np.float64)
    for ci in range(c):
        for ki, kernel in enumerate(kernels):
            # correlation = convolution with the flipped kernel
            flipped = kernel[::-1, ::-1]
            out[:, ci * N_KERNELS + ki] = signal.fftconvolve(
                frames[:, ci], flipped[None, :, :], mode="same", axes=(1, 2)
            )
    np.maximum(out, 0.0, out=out)
    return FrameSequence(out)
