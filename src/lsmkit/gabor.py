"""Fixed Gabor filter bank for frame preprocessing.

The bank has 18 kernels: 6 orientations (0 to 150 degrees in 30 degree
steps) times 3 wavelengths (2, 4, 8 px), 7x7 support, sigma = half the
wavelength, unit aspect ratio, zero phase.  Frames are correlated with
each kernel (zero-padded, same size) and rectified at zero since reservoir
inputs are nonnegative rates.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sp_fft

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


def _fft_shape(height: int, width: int) -> list[int]:
    """The fast real-FFT length of the full correlation along each axis."""
    return [sp_fft.next_fast_len(n + SIZE - 1, True) for n in (height, width)]


def bank_bytes(channels: int, height: int, width: int) -> int:
    """Bytes :func:`gabor_bank` holds per frame of ``channels`` x ``height``
    x ``width`` it filters, at most: the float64 copy of its input, its
    rates, and its padded FFT arrays (the input, the spectrum and the next
    channel's while that is made, the product, and the inverse)."""
    fh, fw = _fft_shape(height, width)
    spectrum = fh * (fw // 2 + 1) * 16
    return 8 * channels * height * width * (1 + N_KERNELS) + 3 * spectrum + 2 * fh * fw * 8


def gabor_bank(seq: FrameSequence, out: np.ndarray | None = None) -> FrameSequence:
    """Correlate every frame of every channel with the bank; rectify at zero.

    Each input channel is filtered separately, giving channels * N_KERNELS
    output channels, channel-major.  The arithmetic is that of
    ``signal.fftconvolve(frames, flipped_kernel, mode="same")`` per channel
    and kernel: real FFTs of the full output's fast length, a product of
    spectra, one inverse FFT and the centred crop.  Each channel's spectrum
    and each kernel's are computed once and shared across the bank.  The
    rates go into ``out`` if given, a float64 (T, channels * N_KERNELS, H,
    W) array of any memory layout.
    """
    t, c, h, w = seq.frames.shape
    if SIZE > h or SIZE > w:
        raise ConfigError(f"kernel {SIZE} larger than frame {h}x{w}")
    if out is None:
        out = np.empty((t, c * N_KERNELS, h, w), dtype=np.float64)
    if t == 0:  # nothing to filter: skip the kernel spectra
        return FrameSequence(out)
    fshape = _fft_shape(h, w)
    # correlation = convolution with the flipped kernel
    kernels = sp_fft.rfftn(build_bank()[:, ::-1, ::-1], fshape, axes=(1, 2))
    lo = (SIZE - 1) // 2  # the centred crop of the full output
    frames = seq.frames.astype(np.float64)
    product = np.empty((t,) + kernels.shape[1:], dtype=kernels.dtype)
    for ci in range(c):
        spectrum = sp_fft.rfftn(frames[:, ci], fshape, axes=(1, 2))
        for ki in range(N_KERNELS):
            np.multiply(spectrum, kernels[ki : ki + 1], out=product)
            full = sp_fft.irfftn(product, fshape, axes=(1, 2), overwrite_x=True)
            out[:, ci * N_KERNELS + ki] = full[:, lo : lo + h, lo : lo + w]
    np.maximum(out, 0.0, out=out)
    return FrameSequence(out)
