"""Color feature representations for model input.

Three schemes:

* ``raw``: the HSV triple scaled to [0, 1].
* ``fourier``: a 54-dimensional Fourier basis. With scaled coordinates
  (h/360, s/200, v/200) and frequencies j, k, l in {0, 1, 2}, each basis
  element is exp(-2*pi*i*(j*h' + k*s' + l*v')); the output is the 27 real
  parts followed by the 27 imaginary parts, frequencies enumerated
  row-major (j outer, l inner). Dividing s and v by 200 keeps their
  phases within [0, pi] (injective), while hue stays fully periodic.
  A row is computed from three phasors, z_h = exp(-2*pi*i*h'), z_s and
  z_v, and their squares: element (j, k, l) is z_h^j * (z_s^k * z_v^l),
  so a row takes 3 complex exps instead of 54 cos and sin calls. It
  agrees with the direct cos/sin formula to ~1e-14 in float64.
* ``buckets``: discrete region indices at three resolutions, resolved to
  learned embeddings by the models.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

RAW_DIM = 3
FOURIER_DIM = 54

# (hue cells, saturation cells, value cells) per resolution
BUCKET_GRIDS = ((90, 10, 10), (45, 5, 5), (1, 1, 1))
BUCKET_SIZES = tuple(nh * ns * nv for nh, ns, nv in BUCKET_GRIDS)

SCHEMES = ("raw", "fourier", "buckets")

_FOURIER_SCALE = np.array([360.0, 200.0, 200.0])


def raw_feature_array(hsv: np.ndarray) -> np.ndarray:
    """(N, 3) HSV rows scaled componentwise to [0, 1]."""
    hsv = np.asarray(hsv, dtype=np.float64)
    return hsv / np.array([360.0, 100.0, 100.0])


def fourier_feature_array(hsv: np.ndarray, dtype=np.float64) -> np.ndarray:
    """(N, 54) Fourier features: 27 cosine values then 27 sine values,
    computed in float64 from each row's phasors and written in ``dtype``."""
    hsv = np.asarray(hsv, dtype=np.float64)
    n = len(hsv)
    # (axis h/s/v, power 0/1/2, row): the rows innermost, so that every
    # product below runs as long loops over the rows
    z = np.empty((3, 3, n), dtype=np.complex128)
    z[:, 0] = 1.0
    phasors = z[:, 1]  # the phases first, then their exps in place
    np.multiply((hsv / _FOURIER_SCALE).T, -2j * np.pi, out=phasors)
    np.exp(phasors, out=phasors)
    np.multiply(phasors, phasors, out=z[:, 2])
    basis = (z[0, :, None, None] * (z[1, :, None] * z[2, None, :])).reshape(27, n)
    out = np.empty((n, FOURIER_DIM), dtype=dtype)
    out[:, :27] = basis.real.T
    out[:, 27:] = basis.imag.T
    return out


def bucket_index_array(hsv: np.ndarray) -> np.ndarray:
    """(N, 3) flat region ids at the fine, mid, and global resolutions.

    Cells partition [0,360) x [0,100] x [0,100] uniformly; the closed
    upper boundary in s and v is clamped into the last cell. Ids are
    flattened row-major (hue outer, value inner).
    """
    hsv = np.asarray(hsv, dtype=np.float64)
    out = np.zeros((len(hsv), len(BUCKET_GRIDS)), dtype=np.int64)
    for r, (nh, ns, nv) in enumerate(BUCKET_GRIDS):
        ih = np.minimum(np.floor(hsv[:, 0] * nh / 360.0).astype(np.int64), nh - 1)
        isat = np.minimum(np.floor(hsv[:, 1] * ns / 100.0).astype(np.int64), ns - 1)
        iv = np.minimum(np.floor(hsv[:, 2] * nv / 100.0).astype(np.int64), nv - 1)
        out[:, r] = (ih * ns + isat) * nv + iv
    return out


def feature_dim(scheme: str, bucket_embedding_dim: int = 10) -> int:
    """Model input width contributed by the color representation."""
    if scheme == "raw":
        return RAW_DIM
    if scheme == "fourier":
        return FOURIER_DIM
    if scheme == "buckets":
        return bucket_embedding_dim * len(BUCKET_GRIDS)
    raise ConfigError(f"unknown feature scheme {scheme!r}")


def dense_feature_array(hsv: np.ndarray, scheme: str, dtype=np.float64) -> np.ndarray:
    """Featurize for the continuous schemes, in ``dtype``; buckets go
    through embeddings."""
    if scheme == "raw":
        return raw_feature_array(hsv).astype(dtype, copy=False)
    if scheme == "fourier":
        return fourier_feature_array(hsv, dtype)
    raise ConfigError(f"scheme {scheme!r} has no dense featurizer")
