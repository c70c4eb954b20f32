"""Color feature representations for model input.

Three schemes:

* ``raw``: the HSV triple scaled to [0, 1].
* ``fourier``: a 54-dimensional Fourier basis. With scaled coordinates
  (h/360, s/200, v/200) and frequencies j, k, l in {0, 1, 2}, each basis
  element is exp(-2*pi*i*(j*h' + k*s' + l*v')); the output is the 27 real
  parts followed by the 27 imaginary parts, frequencies enumerated
  row-major (j outer, l inner). Dividing s and v by 200 keeps their
  phases within [0, pi] (injective), while hue stays fully periodic.
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

SCHEMES = ("raw", "buckets", "fourier")

# frequency triples (j, k, l), j outer / l inner
_FREQS = np.array(
    [(j, k, l) for j in range(3) for k in range(3) for l in range(3)],
    dtype=np.float64,
)


def raw_feature_array(hsv: np.ndarray) -> np.ndarray:
    """(N, 3) HSV rows scaled componentwise to [0, 1]."""
    hsv = np.asarray(hsv, dtype=np.float64)
    return hsv / np.array([360.0, 100.0, 100.0])


def fourier_feature_array(hsv: np.ndarray) -> np.ndarray:
    """(N, 54) Fourier features: 27 cosine values then 27 sine values."""
    hsv = np.asarray(hsv, dtype=np.float64)
    scaled = hsv / np.array([360.0, 200.0, 200.0])
    phase = -2.0 * np.pi * (scaled @ _FREQS.T)  # (N, 27)
    return np.concatenate([np.cos(phase), np.sin(phase)], axis=1)


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


def dense_feature_array(hsv: np.ndarray, scheme: str) -> np.ndarray:
    """Featurize for the continuous schemes; buckets go through embeddings."""
    if scheme == "raw":
        return raw_feature_array(hsv)
    if scheme == "fourier":
        return fourier_feature_array(hsv)
    raise ConfigError(f"scheme {scheme!r} has no dense featurizer")
