"""Smoothed random interior fields for audits of the ball bounds.

Each sample is a weighted random combination of low sine modes plus a
smoothed noise component, drawn at several amplitudes. Fields come from a
single seeded generator in a fixed draw order (mode coefficients, then
noise). The residual-bound audits rescale them into the ball, and the tests
score them against the first eigenfunction, which sets the ball constants.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import DomainGrid, ScalarField, neg_laplacian_array

_MAX_MODE = 4  # sine modes 1.._MAX_MODE per axis
_AMPLITUDES = (0.1, 1.0, 10.0)  # cycled over the samples
_NOISE_WEIGHT = 0.25  # noise RMS relative to the smooth part's RMS
_SMOOTHING_SWEEPS = 2


def smoothed_random_fields(grid: DomainGrid, count: int, seed: int) -> list[ScalarField]:
    """Deterministic list of `count` random fields on `grid`."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    rng = np.random.default_rng(seed)
    coords = np.arange(1, grid.n) / grid.n
    modes = np.arange(1, _MAX_MODE + 1)
    sines = np.sin(np.pi * np.outer(modes, coords))  # (_MAX_MODE, n-1)
    k2 = (
        modes[:, None, None] ** 2
        + modes[None, :, None] ** 2
        + modes[None, None, :] ** 2
    ).astype(float)
    weights = 1.0 / k2

    fields = []
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
        fields.append(ScalarField(grid, smooth))
    return fields
