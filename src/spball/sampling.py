"""Smoothed random interior fields for the constant estimation.

Each sample is a weighted random combination of low sine modes plus a
smoothed noise component, drawn at several amplitudes. Fields come from a
single seeded generator in a fixed draw order (mode coefficients, then
noise), so a field does not depend on how many others are kept alive:
`iter_smoothed_random_fields` yields one field at a time, and
`smoothed_random_fields` is the same stream collected into a list.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .grid import DomainGrid, ScalarField, neg_laplacian_array

_MAX_MODE = 4  # sine modes 1.._MAX_MODE per axis
_AMPLITUDES = (0.1, 1.0, 10.0)  # cycled over the samples
_NOISE_WEIGHT = 0.25  # noise RMS relative to the smooth part's RMS
_SMOOTHING_SWEEPS = 2


def iter_smoothed_random_fields(grid: DomainGrid, count: int, seed: int) -> Iterator[ScalarField]:
    """Yield `count` deterministic random fields on `grid`, one at a time."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    rng = np.random.default_rng(seed)
    coords = grid.interior_coordinates()
    modes = np.arange(1, _MAX_MODE + 1)
    sines = np.sin(np.pi * np.outer(modes, coords))  # (_MAX_MODE, n-1)
    k2 = (
        modes[:, None, None] ** 2
        + modes[None, :, None] ** 2
        + modes[None, None, :] ** 2
    ).astype(float)
    weights = 1.0 / k2

    for i in range(count):
        coeffs = rng.standard_normal((_MAX_MODE,) * 3) * weights
        # contract one mode axis per pass: (a,b,c) -> (b,c,i) -> (c,i,j) -> (i,j,k)
        smooth = coeffs
        for _ in range(3):
            smooth = np.tensordot(smooth, sines, axes=(0, 0))
        noise = rng.standard_normal(grid.shape)
        for _ in range(_SMOOTHING_SWEEPS):
            # (2 c + sum of the 6 neighbours) / 8, one explicit diffusion step
            lap = neg_laplacian_array(noise, 1.0)
            lap /= 8.0
            noise -= lap
        rms_s = math.sqrt(float(np.vdot(smooth, smooth)) / smooth.size)
        rms_n = math.sqrt(float(np.vdot(noise, noise)) / noise.size)
        if rms_n > 0.0:
            noise *= _NOISE_WEIGHT * rms_s / max(rms_n, 1e-300)
        # amp * (smooth + noise), formed in place
        smooth += noise
        smooth *= _AMPLITUDES[i % len(_AMPLITUDES)]
        yield ScalarField(grid, smooth)


def smoothed_random_fields(grid: DomainGrid, count: int, seed: int) -> list[ScalarField]:
    """Deterministic list of `count` random fields on `grid`."""
    return list(iter_smoothed_random_fields(grid, count, seed))
