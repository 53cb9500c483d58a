"""Keypoint selection: non-minimum suppression, geometry and uncertainty
filters, composed in that order.

Scores are "lower is better" throughout (they are uncertainty-derived).
NMS uses Chebyshev (square window) distance and a canonical tie-break of
(score, u, v) so the survivor set is independent of input order.

``select`` works on the dense maps and returns one ``Keypoints`` record
of arrays. Its NMS is a greedy walk: the valid pixels are sorted once,
then the Python work is per survivor, not per pixel. The list-based
reference filters the tests compare it to (``nms_filter``,
``geometry_filter``, ``uncertainty_filter`` over ``KeypointCandidate``)
live in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientKeypointsError
from .geometry import StereoCamera

# The optimizer needs at least 3 non-degenerate matches.
MIN_KEYPOINTS = 3
# positions of the NMS order screened against the suppression map at once
_NMS_BLOCK = 256


@dataclass(frozen=True)
class Keypoints:
    """Selected keypoints as parallel arrays: pixel column, pixel row and
    score (lower is better)."""

    u: np.ndarray
    v: np.ndarray
    score: np.ndarray

    def __len__(self) -> int:
        return self.u.size


@dataclass(frozen=True)
class SelectorConfig:
    nms_radius: float = 8.0
    border_margin: float = 8.0
    depth_min: float = 0.1
    depth_max: float = 100.0
    unc_multiplier: float = 1.5
    max_keypoints: int = 200

    def __post_init__(self):
        if self.nms_radius < 1:
            raise ConfigError(f"nms_radius: must be >= 1, got {self.nms_radius}")
        if self.border_margin < 0:
            raise ConfigError(f"border_margin: must be >= 0, got {self.border_margin}")
        if not self.depth_min > 0:
            raise ConfigError(f"depth_min: must be positive, got {self.depth_min}")
        if self.depth_max <= self.depth_min:
            raise ConfigError("depth_max: must exceed depth_min")
        if not self.unc_multiplier > 0:
            raise ConfigError(f"unc_multiplier: must be positive, got {self.unc_multiplier}")
        # fewer keypoints than the optimizer needs make every frame fall back
        if not isinstance(self.max_keypoints, (int, np.integer)) or self.max_keypoints < MIN_KEYPOINTS:
            raise ConfigError(f"max_keypoints: must be an integer >= {MIN_KEYPOINTS}, got {self.max_keypoints!r}")


@dataclass(frozen=True)
class DenseMaps:
    """Per-pixel inputs to selection; all maps share (H, W)."""

    flow_var: np.ndarray  # (H, W, 2), pixels^2
    depth_var: np.ndarray  # (H, W), meters^2
    depth: np.ndarray  # (H, W), meters
    valid: np.ndarray  # (H, W), bool

    def __post_init__(self):
        hw = self.depth.shape
        if self.flow_var.shape != hw + (2,) or self.depth_var.shape != hw or self.valid.shape != hw:
            raise ValueError("dense maps do not share dimensions")


def combined_scores(flow_unc: np.ndarray, depth_unc: np.ndarray) -> np.ndarray:
    """Median-normalized sum of the two uncertainty channels.

    A channel whose median is zero contributes 0 for zero-uncertainty
    candidates and +inf otherwise, keeping the ranking meaningful on
    noiseless inputs.
    """
    out = np.zeros(np.shape(flow_unc), dtype=float)
    for unc in (np.asarray(flow_unc, dtype=float), np.asarray(depth_unc, dtype=float)):
        med = float(np.median(unc)) if unc.size else 0.0
        if med > 0:
            out = out + unc / med
        else:
            out = out + np.where(unc > 0, np.inf, 0.0)
    return out


def _canonical_order(score, u, v) -> np.ndarray:
    """Indices sorted by (score, u, v); unique ranks break all ties."""
    return np.lexsort((v, u, score))


def _greedy_nms(score: np.ndarray, u: np.ndarray, v: np.ndarray, shape: tuple, radius: float) -> np.ndarray:
    """Greedy NMS over candidates at the pixel centers (u, v) of an image
    of the given shape; returns the survivors' indices in canonical
    order.

    Exact equivalent of the reference nms_filter (tests/reference.py)
    at pixel centers: the candidates are
    sorted once, then walked in that order over a suppression map, each
    survivor stamping its Chebyshev window. Each block of the order is
    screened with one gather, so the Python work follows the survivors
    rather than the candidates.
    """
    # integer offsets with |d| < radius; wider ones leave the image
    half = int(min(np.ceil(radius) - 1, max(shape)))
    order = _canonical_order(score, u, v)
    # padded by half on each side, so that every window is one slice
    suppressed = np.zeros(np.add(shape, 2 * half), dtype=np.uint8)
    flat_suppressed = suppressed.reshape(-1)
    flat = ((v + half) * suppressed.shape[1] + (u + half))[order]
    kept = []
    for start in range(0, flat.size, _NMS_BLOCK):
        screened = np.flatnonzero(flat_suppressed[flat[start : start + _NMS_BLOCK]] == 0) + start
        # an accept earlier in the block may suppress a screened candidate
        for i, f in zip(screened.tolist(), flat[screened].tolist()):
            if not flat_suppressed[f]:
                kept.append(i)
                r, c = divmod(f, suppressed.shape[1])
                suppressed[r - half : r + half + 1, c - half : c + half + 1] = 1
    return order[kept]


def select(
    maps: DenseMaps,
    cam: StereoCamera,
    cfg: SelectorConfig,
    rng: np.random.Generator | None = None,
) -> Keypoints:
    """Full selection pipeline on dense maps: NMS -> geometry ->
    uncertainty, then truncation to max_keypoints by ascending score;
    the survivors come back in canonical (score, u, v) order.

    Given an rng, the NMS and uncertainty stages are bypassed and the
    survivors are drawn uniformly without replacement from the
    geometry-filter output (the random-selector ablation), in row-major
    order.
    """
    h, w = maps.depth.shape
    if (h, w) != (cam.height, cam.width):
        raise ValueError(f"maps are {w}x{h} but camera expects {cam.width}x{cam.height}")
    vv, uu = np.nonzero(maps.valid & np.isfinite(maps.depth))
    flow_unc = maps.flow_var[..., 0] + maps.flow_var[..., 1]
    score = combined_scores(flow_unc[vv, uu], maps.depth_var[vv, uu])
    if rng is None:
        keep = _greedy_nms(score, uu, vv, (h, w), cfg.nms_radius)
        vv, uu, score = vv[keep], uu[keep], score[keep]
    m = cfg.border_margin
    in_geom = (
        (uu >= m)
        & (uu < cam.width - m)
        & (vv >= m)
        & (vv < cam.height - m)
        & (maps.depth[vv, uu] >= cfg.depth_min)
        & (maps.depth[vv, uu] <= cfg.depth_max)
    )
    vv, uu, score = vv[in_geom], uu[in_geom], score[in_geom]
    if rng is None and vv.size:
        f_unc, d_unc = flow_unc[vv, uu], maps.depth_var[vv, uu]
        mult = cfg.unc_multiplier
        confident = (f_unc <= mult * np.median(f_unc)) & (d_unc <= mult * np.median(d_unc))
        vv, uu, score = vv[confident], uu[confident], score[confident]
    if vv.size < MIN_KEYPOINTS:
        raise InsufficientKeypointsError(f"insufficient keypoints: {vv.size} < {MIN_KEYPOINTS}")
    if rng is not None:
        take = np.sort(rng.choice(vv.size, size=min(cfg.max_keypoints, vv.size), replace=False))
    else:
        take = slice(cfg.max_keypoints)
    return Keypoints(uu[take].astype(float), vv[take].astype(float), score[take])
