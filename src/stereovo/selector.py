"""Keypoint selection: non-minimum suppression, geometry and uncertainty
filters, composed in that order.

Scores are "lower is better" throughout (they are uncertainty-derived).
NMS uses Chebyshev (square window) distance and a canonical tie-break of
(score, u, v) so the survivor set is independent of input order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import InsufficientKeypointsError
from .geometry import StereoCamera

# The optimizer needs at least 3 non-degenerate matches.
MIN_KEYPOINTS = 3


@dataclass(frozen=True)
class KeypointCandidate:
    u: float
    v: float
    score: float
    flow_unc: float  # sigma_u^2 + sigma_v^2, pixels^2
    depth_unc: float  # sigma_d^2, meters^2
    depth: float  # meters

    def __post_init__(self):
        if self.flow_unc < 0 or self.depth_unc < 0:
            raise ValueError("uncertainty fields must be non-negative")


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
            raise ValueError(f"nms_radius must be >= 1, got {self.nms_radius}")
        if self.border_margin < 0:
            raise ValueError(f"border_margin must be >= 0, got {self.border_margin}")
        if not self.depth_min > 0:
            raise ValueError(f"depth_min must be positive, got {self.depth_min}")
        if self.depth_max <= self.depth_min:
            raise ValueError("depth_max must exceed depth_min")
        if not self.unc_multiplier > 0:
            raise ValueError(f"unc_multiplier must be positive, got {self.unc_multiplier}")
        if self.max_keypoints < 1:
            raise ValueError(f"max_keypoints must be >= 1, got {self.max_keypoints}")


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


def nms_filter(candidates: list[KeypointCandidate], radius: float) -> list[KeypointCandidate]:
    """Greedy non-minimum suppression over arbitrary (float) positions.

    Survivors are pairwise at Chebyshev distance >= radius; conflicts are
    resolved in canonical (score, u, v) order, so the result does not
    depend on the input ordering.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if len(candidates) <= 1:
        return list(candidates)
    u = np.array([c.u for c in candidates])
    v = np.array([c.v for c in candidates])
    score = np.array([c.score for c in candidates])
    order = _canonical_order(score, u, v)

    # bucket accepted points on a radius-sized grid: any conflicting
    # point lives in one of the 3x3 neighboring buckets
    buckets: dict[tuple[int, int], list[int]] = {}
    kept: list[int] = []
    for idx in order:
        bu, bv = int(np.floor(u[idx] / radius)), int(np.floor(v[idx] / radius))
        blocked = False
        for nu in (bu - 1, bu, bu + 1):
            for nv in (bv - 1, bv, bv + 1):
                for j in buckets.get((nu, nv), ()):
                    if max(abs(u[idx] - u[j]), abs(v[idx] - v[j])) < radius:
                        blocked = True
                        break
                if blocked:
                    break
            if blocked:
                break
        if not blocked:
            kept.append(idx)
            buckets.setdefault((bu, bv), []).append(idx)
    kept.sort()
    return [candidates[i] for i in kept]


def _nms_grid_mask(score: np.ndarray, valid: np.ndarray, radius: float) -> np.ndarray:
    """Greedy NMS on a dense integer pixel grid; returns the survivor mask.

    Exact equivalent of nms_filter for candidates at pixel centers: each
    round accepts every still-alive cell that is the unique rank minimum
    of its Chebyshev window, then suppresses the windows around the
    freshly accepted cells. No two accepted cells can share a window, so
    this reproduces the sequential greedy result.
    """
    half = int(np.ceil(radius)) - 1  # integer offsets with |d| < radius
    size = 2 * half + 1
    h, w = score.shape
    vv, uu = np.mgrid[0:h, 0:w]
    flat_order = _canonical_order(score[valid], uu[valid], vv[valid])
    ranks = np.full((h, w), np.inf)
    sel_v, sel_u = vv[valid][flat_order], uu[valid][flat_order]
    ranks[sel_v, sel_u] = np.arange(flat_order.size, dtype=float)

    accepted = np.zeros((h, w), dtype=bool)
    alive = ranks.copy()
    while np.isfinite(alive).any():
        local_min = ndimage.minimum_filter(alive, size=size, mode="constant", cval=np.inf)
        winners = np.isfinite(alive) & (alive == local_min)
        accepted |= winners
        suppressed = ndimage.maximum_filter(winners, size=size, mode="constant", cval=False)
        alive[suppressed] = np.inf
    return accepted


def geometry_filter(
    candidates: list[KeypointCandidate], cam: StereoCamera, cfg: SelectorConfig
) -> list[KeypointCandidate]:
    """Drop keypoints near image borders or outside the valid depth range."""
    m = cfg.border_margin
    return [
        c
        for c in candidates
        if m <= c.u < cam.width - m
        and m <= c.v < cam.height - m
        and cfg.depth_min <= c.depth <= cfg.depth_max
    ]


def uncertainty_filter(
    candidates: list[KeypointCandidate], multiplier: float = 1.5
) -> list[KeypointCandidate]:
    """Keep candidates whose flow AND depth uncertainties are at most
    multiplier times the respective medians of the input."""
    if not candidates:
        raise ValueError("uncertainty_filter requires a non-empty candidate list")
    flow_med = float(np.median([c.flow_unc for c in candidates]))
    depth_med = float(np.median([c.depth_unc for c in candidates]))
    return [
        c
        for c in candidates
        if c.flow_unc <= multiplier * flow_med and c.depth_unc <= multiplier * depth_med
    ]


def select(
    maps: DenseMaps,
    cam: StereoCamera,
    cfg: SelectorConfig,
    rng: np.random.Generator | None = None,
) -> list[KeypointCandidate]:
    """Full selection pipeline on dense maps: NMS -> geometry ->
    uncertainty, then truncation to max_keypoints by ascending score.

    Given an rng, the NMS and uncertainty stages are bypassed and the
    survivors are drawn uniformly without replacement from the
    geometry-filter output (the random-selector ablation).
    """
    h, w = maps.depth.shape
    if (h, w) != (cam.height, cam.width):
        raise ValueError(f"maps are {w}x{h} but camera expects {cam.width}x{cam.height}")
    valid = maps.valid & np.isfinite(maps.depth)
    flow_unc = maps.flow_var[..., 0] + maps.flow_var[..., 1]
    if not valid.any():
        raise InsufficientKeypointsError("no valid pixels to select from")
    scores = np.full((h, w), np.inf)
    scores[valid] = combined_scores(flow_unc[valid], maps.depth_var[valid])

    keep = valid if rng is not None else _nms_grid_mask(scores, valid, cfg.nms_radius)

    # geometry predicate applied on the dense grid before any python
    # objects exist (the random path otherwise touches every pixel)
    m = cfg.border_margin
    vv, uu = np.nonzero(keep)
    in_geom = (
        (uu >= m)
        & (uu < cam.width - m)
        & (vv >= m)
        & (vv < cam.height - m)
        & (maps.depth[vv, uu] >= cfg.depth_min)
        & (maps.depth[vv, uu] <= cfg.depth_max)
    )
    vv, uu = vv[in_geom], uu[in_geom]
    if rng is not None:
        if vv.size < MIN_KEYPOINTS:
            raise InsufficientKeypointsError(
                f"insufficient keypoints: {vv.size} < {MIN_KEYPOINTS}"
            )
        take = min(cfg.max_keypoints, vv.size)
        picked = np.sort(rng.choice(vv.size, size=take, replace=False))
        vv, uu = vv[picked], uu[picked]

    candidates = [
        KeypointCandidate(
            u=float(u),
            v=float(v),
            score=float(scores[v, u]),
            flow_unc=float(flow_unc[v, u]),
            depth_unc=float(maps.depth_var[v, u]),
            depth=float(maps.depth[v, u]),
        )
        for v, u in zip(vv, uu)
    ]
    if rng is not None:
        return candidates

    if candidates:
        candidates = uncertainty_filter(candidates, cfg.unc_multiplier)
    if len(candidates) < MIN_KEYPOINTS:
        raise InsufficientKeypointsError(
            f"insufficient keypoints: {len(candidates)} < {MIN_KEYPOINTS}"
        )
    candidates.sort(key=lambda c: (c.score, c.u, c.v))
    return candidates[: cfg.max_keypoints]
