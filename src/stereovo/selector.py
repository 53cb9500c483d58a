"""Keypoint selection: non-minimum suppression, geometry and uncertainty
filters, composed in that order.

Scores are "lower is better" throughout (they are uncertainty-derived).
NMS uses Chebyshev (square window) distance and a canonical tie-break of
(score, u, v) so the survivor set is independent of input order.

``select`` reads a frame's maps and returns one ``Keypoints`` record
of arrays. Its NMS is a greedy walk: the valid pixels are sorted once,
by score alone, with only the runs of equal scores re-sorted by pixel,
then the Python work is per survivor, not per pixel. The list-based
reference filters the tests compare it to (``nms_filter``,
``geometry_filter``, ``uncertainty_filter`` over ``KeypointCandidate``)
live in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .frontend import FrameObservation
from .optimizer import MIN_PAIRS

# positions of the NMS order screened against the suppression map at once
_NMS_BLOCK = 256


@dataclass(frozen=True)
class Keypoints:
    """Selected keypoints as parallel arrays: integer pixel column and
    row (the pixel centre) and score (lower is better)."""

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
        if not isinstance(self.max_keypoints, (int, np.integer)) or self.max_keypoints < MIN_PAIRS:
            raise ConfigError(f"max_keypoints: must be an integer >= {MIN_PAIRS}, got {self.max_keypoints!r}")


def _median(x: np.ndarray) -> float:
    """np.median of a non-empty array without NaN, bit for bit, from one
    partition: the mean of the two middle values, or the middle one."""
    k = x.size // 2
    part = np.partition(x, k)
    return float(part[k] if x.size % 2 else (part[:k].max() + part[k]) / 2)


def combined_scores(flow_unc: np.ndarray, depth_unc: np.ndarray) -> np.ndarray:
    """Median-normalized sum of the two uncertainty channels.

    A channel whose median is zero contributes 0 for zero-uncertainty
    candidates and +inf otherwise, keeping the ranking meaningful on
    noiseless inputs.
    """
    out = np.zeros(np.shape(flow_unc), dtype=float)
    for unc in (np.asarray(flow_unc, dtype=float), np.asarray(depth_unc, dtype=float)):
        med = _median(unc) if unc.size else 0.0
        if med > 0:
            out = out + unc / med
        else:
            out = out + np.where(unc > 0, np.inf, 0.0)
    return out


def _canonical_order(score: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Indices sorted by (score, key), for a key unique per candidate: one
    sort by score, then each run of equal scores re-sorted by key."""
    order = np.argsort(score)
    ranked = score[order]
    tie = ranked[1:] == ranked[:-1]
    if tie.any():
        # the positions in runs of equal scores, numbered by run, sorted
        # on one integer key: run number, then key; the runs are short and
        # already in order, which the stable sort exploits
        tied = np.flatnonzero(np.concatenate((tie, [False])) | np.concatenate(([False], tie)))
        run = np.cumsum(ranked[tied[1:]] != ranked[tied[:-1]])
        sub = order[tied]
        sub_key = key[sub] + np.concatenate(([0], run)) * (int(key.max()) + 1)
        order[tied] = sub[np.argsort(sub_key, kind="stable")]
    return order


def _greedy_nms(score: np.ndarray, u: np.ndarray, v: np.ndarray, shape: tuple, radius: float) -> np.ndarray:
    """Greedy NMS over candidates at the distinct integer pixel centers
    (u, v) of an image of the given shape; returns the survivors' indices
    in canonical (score, u, v) order.

    Exact equivalent of the reference nms_filter (tests/reference.py)
    at pixel centers: the candidates are
    sorted once, then walked in that order over a suppression map, each
    survivor stamping its Chebyshev window. Each block of the order is
    screened with one gather, so the Python work follows the survivors
    rather than the candidates.
    """
    # integer offsets with |d| < radius; wider ones leave the image
    half = int(min(np.ceil(radius) - 1, max(shape)))
    # (u, v) in lexicographic order is u * height + v
    order = _canonical_order(score, u * shape[0] + v)
    # padded by half on each side, so that every window is one slice; the
    # walk reads single cells through the bytearray, the rest as an array
    width = shape[1] + 2 * half
    cells = bytearray((shape[0] + 2 * half) * width)
    flat_suppressed = np.frombuffer(cells, dtype=np.uint8)
    suppressed = flat_suppressed.reshape(-1, width)
    flat = ((v + half) * width + (u + half))[order]
    kept = []
    for start in range(0, flat.size, _NMS_BLOCK):
        screened = np.flatnonzero(flat_suppressed[flat[start : start + _NMS_BLOCK]] == 0) + start
        # an accept earlier in the block may suppress a screened candidate
        for i, f in zip(screened.tolist(), flat[screened].tolist()):
            if not cells[f]:
                kept.append(i)
                r, c = divmod(f, width)
                suppressed[r - half : r + half + 1, c - half : c + half + 1] = 1
    return order[kept]


def select(frame: FrameObservation, cfg: SelectorConfig, rng: np.random.Generator | None = None) -> Keypoints:
    """Full selection pipeline on a frame's valid pixels, whose depth and
    variances ``FrameObservation`` checked: NMS -> geometry ->
    uncertainty, then truncation to max_keypoints by ascending score;
    the survivors, however few, come back in canonical (score, u, v) order,
    as integer pixels. The border is measured from the frame's own size.

    Given an rng, the NMS and uncertainty stages are bypassed and the
    survivors are drawn uniformly without replacement from the
    geometry-filter output (the random-selector ablation), in row-major
    order.
    """
    h, w = frame.depth.shape
    # candidates by row-major flat index, each map gathered by it
    idx = np.flatnonzero(frame.valid)
    vv = idx // w
    uu = idx - vv * w
    flow_unc = (frame.flow_var[..., 0] + frame.flow_var[..., 1]).reshape(-1)[idx]
    depth_unc = frame.depth_var.reshape(-1)[idx]
    score = combined_scores(flow_unc, depth_unc)
    if rng is None:
        keep = _greedy_nms(score, uu, vv, (h, w), cfg.nms_radius)
        idx, vv, uu, score, flow_unc, depth_unc = (x[keep] for x in (idx, vv, uu, score, flow_unc, depth_unc))
    m = cfg.border_margin
    depth = frame.depth.reshape(-1)[idx]
    in_geom = (uu >= m) & (uu < w - m) & (vv >= m) & (vv < h - m) & (depth >= cfg.depth_min) & (depth <= cfg.depth_max)
    vv, uu, score = vv[in_geom], uu[in_geom], score[in_geom]
    if rng is None and vv.size:
        f_unc, d_unc = flow_unc[in_geom], depth_unc[in_geom]
        mult = cfg.unc_multiplier
        confident = (f_unc <= mult * _median(f_unc)) & (d_unc <= mult * _median(d_unc))
        vv, uu, score = vv[confident], uu[confident], score[confident]
    if rng is not None:
        take = np.sort(rng.choice(vv.size, size=min(cfg.max_keypoints, vv.size), replace=False))
    else:
        take = slice(cfg.max_keypoints)
    return Keypoints(uu[take], vv[take], score[take])
