"""Synthetic stereo-matching frontend and observation-file I/O.

Replaces a learned matching network with a generator that renders dense
depth, optical flow, validity and calibrated per-pixel variance maps for
a scene of fronto-parallel walls plus a point-landmark cloud, moved
through by a scripted camera. One function builds that world (poses,
walls, landmarks); ``generate_frames`` renders it, and ``SceneConfig``
bounds its depths by measuring it. Emitted variance maps equal the
generating noise variances (honest mode), or stay at the baseline level
inside anomaly regions (overconfident mode), so downstream modules can
be tested against both.

A frame's flow maps pixel centers of frame t to their corresponding
(float) locations in frame t+1; the last frame carries zero flow. Only
``FrameObservation`` decides which pixels are usable: a valid pixel has
finite positive depth and finite non-negative variances, and no other
pixel is read. All maps are float64 in memory and may be read-only
views: a generated frame's two flow-variance channels are one plane, as
the emitted flow noise is isotropic. The on-disk format is float32.
Frames stream: ``generate_frames`` yields them one at a time,
``ingest_observations`` reads a frame's file only when the frame is
indexed, and ``write_observations`` writes each frame as it arrives.
"""

from __future__ import annotations

import math
import os
import re
import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import from_dict, load_yaml
from .errors import ConfigError, DataFormatError
from .evaluation import ASSOCIATION_TOL, Trajectory, read_tum, write_tum
from .geometry import PoseSE3, StereoCamera, backproject, quat_to_matrix, se3_exp

OBS_MAGIC = b"MACVOOBS"
# map layout in the .obs container: name -> channel count
OBS_CHANNELS = (("flow", 2), ("flow_var", 2), ("depth", 1), ("depth_var", 1), ("mask", 1))
_FRAME_RE = re.compile(r"frame_(\d{6})\.obs")

DEFAULT_FRAME_DT = 1.0
# relative slack when deciding whether a reprojected point is occluded
_OCCLUSION_REL_TOL = 0.02
_FIELD_AMPLITUDE = 0.4


@dataclass(frozen=True)
class NoiseModel:
    sigma_flow: float = 0.0  # per-axis matching noise std, pixels
    gamma_disp: float = 0.0  # relative depth error rate (std = gamma * depth)
    heteroscedastic: bool = False  # scale noise by a smooth spatial field
    lie_in_anomalies: bool = False  # emit un-inflated variances inside anomalies

    def __post_init__(self):
        if self.sigma_flow < 0:
            raise ConfigError(f"sigma_flow: must be >= 0, got {self.sigma_flow}")
        if not 0 <= self.gamma_disp < 0.3:
            raise ConfigError(f"gamma_disp: must be in [0, 0.3), got {self.gamma_disp}")


@dataclass(frozen=True)
class AnomalyRegion:
    """Pixel rectangle [u0, u1) x [v0, v1) whose noise is multiplied."""

    rect: tuple[float, float, float, float]  # u0, v0, u1, v1
    multiplier: float

    def __post_init__(self):
        u0, v0, u1, v1 = self.rect
        if not (u1 > u0 and v1 > v0):
            raise ConfigError(f"rect: empty rectangle {self.rect}")
        if not self.multiplier > 0:
            raise ConfigError(f"multiplier: must be positive, got {self.multiplier}")


@dataclass(frozen=True)
class Wall:
    """Fronto-parallel rectangle at world depth z spanning the given
    world x/y extents."""

    z: float
    x_range: tuple[float, float]
    y_range: tuple[float, float]

    def __post_init__(self):
        for name, (lo, hi) in (("x_range", self.x_range), ("y_range", self.y_range)):
            if not hi > lo:
                raise ConfigError(f"{name}: max must exceed min, got [{lo}, {hi}]")


@dataclass(frozen=True)
class MotionSpec:
    kind: str = "static"  # static | constant_velocity | orbit | waypoints
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)  # m/frame, camera frame
    angular_velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)  # rad/frame
    orbit_radius: float = 5.0
    orbit_rate: float = 0.02  # rad/frame
    waypoints: tuple[tuple[float, ...], ...] = ()  # rows of tx ty tz qx qy qz qw

    def __post_init__(self):
        if self.kind not in ("static", "constant_velocity", "orbit", "waypoints"):
            raise ConfigError(f"kind: unknown kind {self.kind!r}")
        if self.kind == "orbit" and not self.orbit_radius > 0:
            raise ConfigError(f"orbit_radius: must be positive, got {self.orbit_radius}")
        for i, row in enumerate(self.waypoints):
            if len(row) != 7:
                raise ConfigError(f"waypoints[{i}]: expected 7 values tx..qw, got {len(row)}")
            with np.errstate(over="ignore"):  # motion_poses divides by this norm
                norm = np.linalg.norm(row[3:])
            if not 0 < norm < math.inf:
                raise ConfigError(f"waypoints[{i}]: the quaternion qx..qw must have a positive, finite norm, got {norm}")


@dataclass(frozen=True)
class SceneConfig:
    seed: int
    num_frames: int
    camera: StereoCamera
    motion: MotionSpec = MotionSpec()
    landmark_count: int = 100
    depth_range: tuple[float, float] = (1.0, 20.0)
    noise: NoiseModel = NoiseModel()
    anomaly_regions: tuple[AnomalyRegion, ...] = ()
    walls: tuple[Wall, ...] | None = None  # None: auto-generate from the seed
    wall_count: int = 3
    render_landmarks: bool = True
    frame_dt: float = DEFAULT_FRAME_DT

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.num_frames < 2:
            raise ConfigError(f"num_frames: must be >= 2, got {self.num_frames}")
        if self.landmark_count < 50:
            raise ConfigError(f"landmark_count: must be >= 50, got {self.landmark_count}")
        lo, hi = self.depth_range
        if not (lo > 0 and hi > lo):
            raise ConfigError(f"depth_range: must be positive and increasing, got {self.depth_range}")
        if self.wall_count < 1:
            raise ConfigError(f"wall_count: must be >= 1, got {self.wall_count}")
        if not self.frame_dt >= ASSOCIATION_TOL:  # closer timestamps would not pair one to one
            raise ConfigError(f"frame_dt: must be >= {ASSOCIATION_TOL:g} s, got {self.frame_dt}")
        if not (self.num_frames - 1) * self.frame_dt < math.inf:
            raise ConfigError(f"frame_dt: the last timestamp (num_frames - 1) * frame_dt overflows, got {self.frame_dt}")
        if self.motion.kind == "waypoints" and len(self.motion.waypoints) != self.num_frames:
            raise ConfigError(f"motion.waypoints: need {self.num_frames} rows, got {len(self.motion.waypoints)}")
        # the noise scales' field * multipliers, whatever the noise, and the
        # largest emitted variances, (sigma_flow * field * multipliers)^2
        # and (gamma_disp * field * multipliers * depth)^2, must be finite;
        # a float product overflows to inf. A multiplier below 1 counts as
        # 1: it shrinks no other region's product.
        field = 1 + _FIELD_AMPLITUDE
        multipliers = [(f"anomaly_regions[{i}].multiplier", max(r.multiplier, 1.0)) for i, r in enumerate(self.anomaly_regions)]
        scale = field
        for name, factor in multipliers:
            scale *= factor
            if not scale < math.inf:
                raise ConfigError(f"{name}: the noise scale {field:g} * multipliers overflows, got {factor}")
        flow = [("noise.sigma_flow", self.noise.sigma_flow)] + multipliers
        depth = [("noise.gamma_disp", self.noise.gamma_disp)] + multipliers
        for what, std, factors in (
            (f"flow variance (sigma_flow * {field:g} * multipliers)^2", field, flow),
            (f"depth variance (gamma_disp * {field:g} * multipliers * largest depth)^2", field * self._largest_depth(), depth),
        ):
            for name, factor in factors:
                std *= factor
                if not std * std < math.inf:
                    raise ConfigError(f"{name}: the {what} overflows, got {factor}")

    def _largest_depth(self) -> float:
        """A bound on every depth ``generate_frames`` can render, measured
        on the world it renders: a depth is at most the distance from the
        camera to the wall point or landmark it sees, so at most the
        camera's largest distance from the origin plus the farthest wall
        corner's or rendered landmark's. A world that is not finite, or a
        sum that overflows, is a ConfigError naming the field at fault."""
        poses, walls, landmarks = _world(self)
        wall_field = "walls" if self.walls is not None else "depth_range"
        with np.errstate(over="ignore"):  # a distance or sum that overflows is inf
            reach = [(math.hypot(max(map(abs, w.x_range)), max(map(abs, w.y_range)), w.z), wall_field) for w in walls]
            reach.extend((d, "depth_range") for d in np.hypot.reduce(landmarks, axis=1))
            far, far_field = max(reach, default=(0.0, "depth_range"))
            travel = max(math.hypot(*p.translation) for p in poses)
            largest = float(travel + far)
        if not largest < math.inf:
            name = "motion" if travel > far else far_field
            raise ConfigError(f"{name}: the depth bound, the camera's travel plus the farthest wall's or landmark's reach, overflows")
        return largest


@dataclass
class FrameObservation:
    """Dense maps for one frame plus its ground-truth pose.

    The maps are float64 and may be read-only views, so a reader copies
    a map before writing to it. A generated frame's flow_var is one
    (H, W) plane broadcast over its two channels."""

    flow: np.ndarray  # (H, W, 2) pixels, frame t -> t+1
    flow_var: np.ndarray  # (H, W, 2) pixels^2
    depth: np.ndarray  # (H, W) meters
    depth_var: np.ndarray  # (H, W) meters^2
    valid: np.ndarray  # (H, W) bool
    pose: PoseSE3  # camera-to-world ground truth
    timestamp: float

    def __post_init__(self):
        hw = self.depth.shape
        same = (
            self.flow.shape == hw + (2,)
            and self.flow_var.shape == hw + (2,)
            and self.depth_var.shape == hw
            and self.valid.shape == hw
        )
        if not same:
            raise ValueError("observation maps do not share dimensions")
        # selection and matching trust valid pixels unchecked; NaN fails every comparison
        invalid = ~self.valid
        if not ((self.depth > 0) & (self.depth < np.inf) | invalid).all():
            raise ValueError("depth must be finite and positive on valid pixels")
        for var in (self.depth_var, self.flow_var[..., 0], self.flow_var[..., 1]):
            if not ((var >= 0) & (var < np.inf) | invalid).all():
                raise ValueError("variance maps must be finite and non-negative on valid pixels")


# ---------------------------------------------------------------------------
# trajectory scripting


def motion_poses(motion: MotionSpec, num_frames: int) -> list[PoseSE3]:
    """Ground-truth camera-to-world poses: the waypoints, or from the
    identity one constant step se3_exp(twist) per frame; the twist is zero
    (static), (velocity, angular_velocity) or the orbit's, given below."""
    if motion.kind == "waypoints":
        poses = []
        for row in motion.waypoints:
            quat = np.asarray(row[3:], dtype=float)
            poses.append(PoseSE3(quat_to_matrix(quat / np.linalg.norm(quat)), row[:3]))
        return poses
    twist = np.zeros(6)
    if motion.kind == "constant_velocity":
        twist = np.concatenate([motion.velocity, motion.angular_velocity])
    elif motion.kind == "orbit":  # the circle about [0, 0, r] in the x-z plane, facing its center
        r, rate = motion.orbit_radius, motion.orbit_rate
        twist = np.array([-r * rate, 0.0, 0.0, 0.0, rate, 0.0])
    delta = se3_exp(twist)
    poses = [PoseSE3.identity()]
    for _ in range(num_frames - 1):
        poses.append(poses[-1].compose(delta))
    return poses


# ---------------------------------------------------------------------------
# world construction and rendering


def _auto_walls(cfg: SceneConfig, poses: list[PoseSE3], rng: np.random.Generator) -> list[Wall]:
    lo, hi = cfg.depth_range
    cam = cfg.camera
    tan_u = max(cam.cx, cam.width - cam.cx) / cam.fx
    tan_v = max(cam.cy, cam.height - cam.cy) / cam.fy
    span = float(np.max(np.abs(np.stack([p.translation for p in poses]))))
    # backdrop guaranteed to fill the view from anywhere on the trajectory
    z_far = 0.9 * hi
    ext_x = 1.5 * (tan_u * z_far + span)
    ext_y = 1.5 * (tan_v * z_far + span)
    if not max(ext_x, ext_y) < math.inf:  # the other walls lie inside the backdrop's extent
        raise ConfigError("depth_range: the generated walls overflow: the backdrop's extent is not finite")
    walls = [Wall(z=z_far, x_range=(-ext_x, ext_x), y_range=(-ext_y, ext_y))]
    for _ in range(cfg.wall_count - 1):
        z = float(rng.uniform(lo + 0.15 * (hi - lo), 0.7 * hi))
        cx = float(rng.uniform(-0.4, 0.4)) * tan_u * z
        cy = float(rng.uniform(-0.4, 0.4)) * tan_v * z
        half_x = float(rng.uniform(0.1, 0.35)) * tan_u * z
        half_y = float(rng.uniform(0.1, 0.35)) * tan_v * z
        walls.append(Wall(z=z, x_range=(cx - half_x, cx + half_x), y_range=(cy - half_y, cy + half_y)))
    return walls


def _sample_landmarks(cfg: SceneConfig, pose0: PoseSE3, rng: np.random.Generator) -> np.ndarray:
    lo, hi = cfg.depth_range
    cam = cfg.camera
    n = cfg.landmark_count
    d = rng.uniform(lo + 0.1 * (hi - lo), 0.85 * hi, size=n)
    u = rng.uniform(0.1 * cam.width, 0.9 * cam.width, size=n)
    v = rng.uniform(0.1 * cam.height, 0.9 * cam.height, size=n)
    return pose0.apply(backproject(cam, u, v, d))


def _render_depth(
    cam: StereoCamera,
    pose: PoseSE3,
    rays: np.ndarray,
    walls: list[Wall],
    landmarks: np.ndarray,
) -> np.ndarray:
    """Z-buffer the walls and the landmark splats, (N, 3), at pixel centers.

    Returns camera-frame depth; +inf where nothing is hit.
    """
    origin = pose.translation
    rays_w = rays @ pose.rotation.T
    depth = np.full(rays.shape[:2], np.inf)
    rz = rays_w[..., 2]
    for wall in walls:
        with np.errstate(divide="ignore", invalid="ignore"):
            d = (wall.z - origin[2]) / rz
        xw = origin[0] + d * rays_w[..., 0]
        yw = origin[1] + d * rays_w[..., 1]
        hit = (
            np.isfinite(d)
            & (d > 0)
            & (xw >= wall.x_range[0])
            & (xw <= wall.x_range[1])
            & (yw >= wall.y_range[0])
            & (yw <= wall.y_range[1])
        )
        depth = np.where(hit & (d < depth), d, depth)
    pts = pose.inverse().apply(landmarks)
    front = pts[:, 2] > 0
    pts = pts[front]
    uu = np.rint(cam.fx * pts[:, 0] / pts[:, 2] + cam.cx).astype(int)
    vv = np.rint(cam.fy * pts[:, 1] / pts[:, 2] + cam.cy).astype(int)
    ok = (uu >= 0) & (uu < cam.width) & (vv >= 0) & (vv < cam.height)
    np.minimum.at(depth, (vv[ok], uu[ok]), pts[ok][:, 2])
    return depth


def _noise_field(cam: StereoCamera, het: bool, rng: np.random.Generator) -> np.ndarray:
    """Smooth positive field scaling the noise level across the image."""
    if not het:
        return np.ones((cam.height, cam.width))
    fu, fv = rng.integers(1, 3), rng.integers(1, 3)
    pu, pv = rng.uniform(0.0, 1.0, size=2)
    u = np.arange(cam.width) / cam.width
    v = np.arange(cam.height) / cam.height
    grid = np.sin(2 * np.pi * (fu * u[None, :] + pu)) * np.cos(2 * np.pi * (fv * v[:, None] + pv))
    return 1.0 + _FIELD_AMPLITUDE * grid


def _anomaly_multiplier(cam: StereoCamera, regions) -> np.ndarray:
    mult = np.ones((cam.height, cam.width))
    u = np.arange(cam.width, dtype=float)
    v = np.arange(cam.height, dtype=float)
    for reg in regions:
        u0, v0, u1, v1 = reg.rect
        inside = ((u >= u0) & (u < u1))[None, :] & ((v >= v0) & (v < v1))[:, None]
        mult = np.where(inside, mult * reg.multiplier, mult)
    return mult


def _world(cfg: SceneConfig) -> tuple[list[PoseSE3], list[Wall], np.ndarray]:
    """The camera poses, walls (cfg.walls, or generated along the poses)
    and rendered landmarks (none unless cfg.render_landmarks), from one
    generator. A ConfigError names motion when the camera path overflows,
    and depth_range when the generated walls or rendered landmarks do."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as inf or nan, named below
        try:  # PoseSE3 refuses a rotation that is not finite
            poses = motion_poses(cfg.motion, cfg.num_frames)
        except ValueError:
            poses = []
        if not (poses and np.isfinite([p.translation for p in poses]).all()):
            raise ConfigError("motion: the camera path overflows: a pose is not finite")
        rng = np.random.default_rng([cfg.seed, 0])
        walls = list(cfg.walls) if cfg.walls is not None else _auto_walls(cfg, poses, rng)
        landmarks = _sample_landmarks(cfg, poses[0], rng) if cfg.render_landmarks else np.empty((0, 3))
    if not np.isfinite(landmarks).all():
        raise ConfigError("depth_range: the rendered landmarks overflow: one is not finite")
    return poses, walls, landmarks


def generate_frames(cfg: SceneConfig) -> Iterator[FrameObservation]:
    """Render the scene along the scripted trajectory and add noise,
    yielding one frame at a time.

    Deterministic given cfg.seed. The per-pixel variance maps equal the
    generating noise variances, except inside anomaly regions when
    cfg.noise.lie_in_anomalies is set, where the emitted variances stay
    at the baseline level (an overconfident frontend). Depth is rendered
    one frame ahead, for the occlusion test against frame t+1.
    """
    cam = cfg.camera
    h, w = cam.height, cam.width
    poses, walls, splats = _world(cfg)
    rng_field = np.random.default_rng([cfg.seed, 1])
    # camera-frame rays with unit z through the pixel centers, (H, W, 3),
    # and the centers' pixel coordinates
    u, v = np.arange(w, dtype=float), np.arange(h, dtype=float)
    rays = backproject(cam, u[None, :], v[:, None], 1.0)
    uu, vv = rays[..., 0] * cam.fx + cam.cx, rays[..., 1] * cam.fy + cam.cy

    field = _noise_field(cam, cfg.noise.heteroscedastic, rng_field)
    mult = _anomaly_multiplier(cam, cfg.anomaly_regions)
    emit = 1.0 if cfg.noise.lie_in_anomalies else mult  # a lying frontend emits no inflation
    sigma_flow_true = cfg.noise.sigma_flow * field * mult
    gamma_true = cfg.noise.gamma_disp * field * mult
    flow_var_emit = (cfg.noise.sigma_flow * field * emit) ** 2
    gamma_emit = cfg.noise.gamma_disp * field * emit

    # Full-frame ops go channel by channel: numpy runs an op broadcast
    # along a trailing axis of length 2 or 3 as one short loop per pixel.
    pts = np.empty((h * w, 3))
    dt_next = _render_depth(cam, poses[0], rays, walls, splats)
    for t in range(cfg.num_frames):
        rng_t = np.random.default_rng([cfg.seed, 2, t])
        dt_map = dt_next
        depth_ok = np.isfinite(dt_map)

        if t + 1 < cfg.num_frames:
            dt_next = _render_depth(cam, poses[t + 1], rays, walls, splats)
            z = np.where(depth_ok, dt_map, 1.0).reshape(-1)
            for c in range(3):
                np.multiply(rays[..., c].reshape(-1), z, out=pts[:, c])
            pts_next = poses[t + 1].inverse().apply(poses[t].apply(pts)).reshape(h, w, 3)
            zb = pts_next[..., 2]
            with np.errstate(divide="ignore", invalid="ignore"):
                mu = cam.fx * pts_next[..., 0] / zb + cam.cx
                mv = cam.fy * pts_next[..., 1] / zb + cam.cy
            in_view = (zb > 1e-9) & (mu >= 0) & (mu <= w - 1) & (mv >= 0) & (mv <= h - 1)
            ui = np.clip(np.rint(np.where(in_view, mu, 0)).astype(int), 0, w - 1)
            vi = np.clip(np.rint(np.where(in_view, mv, 0)).astype(int), 0, h - 1)
            seen = dt_next[vi, ui]
            not_occluded = seen >= zb * (1.0 - _OCCLUSION_REL_TOL)
            valid = depth_ok & in_view & not_occluded
            flow_true = (np.where(valid, mu - uu, 0.0), np.where(valid, mv - vv, 0.0))
        else:
            valid = depth_ok.copy()
            flow_true = (0.0, 0.0)

        eps_flow = rng_t.standard_normal((h, w, 2))
        eps_depth = rng_t.standard_normal((h, w))
        depth_true = np.where(depth_ok, dt_map, 0.0)
        depth = depth_true * (1.0 + gamma_true * eps_depth)
        valid = valid & (depth > 0)
        flow = np.empty((h, w, 2))
        for c in range(2):
            flow[..., c] = np.where(valid, flow_true[c] + sigma_flow_true * eps_flow[..., c], 0.0)
        yield FrameObservation(
            flow=flow,
            # isotropic: one read-only plane serves both channels
            flow_var=np.broadcast_to(np.where(valid, flow_var_emit, 0.0)[..., None], (h, w, 2)),
            depth=np.where(valid, depth, 0.0),
            depth_var=np.where(valid, (gamma_emit * depth_true) ** 2, 0.0),
            valid=valid,
            pose=poses[t],
            timestamp=t * cfg.frame_dt,
        )


def generate_sequence(cfg: SceneConfig) -> list[FrameObservation]:
    """Every frame of ``generate_frames``, in a list."""
    return list(generate_frames(cfg))


# ---------------------------------------------------------------------------
# observation directory I/O


def _frame_path(directory: Path, index: int) -> Path:
    return directory / f"frame_{index:06d}.obs"


def write_observations(frames: Iterable[FrameObservation], directory) -> None:
    """Write one binary .obs file per frame, then poses_gt.txt; frames
    may be any iterable, such as ``generate_frames``, and are written as
    they arrive. Then frame files numbered past the last are removed."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    timestamps, poses = [], []
    for i, frame in enumerate(frames):
        h, w = frame.depth.shape
        header = OBS_MAGIC + struct.pack("<II5I", w, h, *(c for _, c in OBS_CHANNELS))
        maps = (frame.flow, frame.flow_var, frame.depth, frame.depth_var, frame.valid)
        _frame_path(directory, i).write_bytes(header + b"".join(m.astype("<f4").tobytes() for m in maps))
        timestamps.append(frame.timestamp)
        poses.append(frame.pose)
    for path in directory.iterdir():
        match = _FRAME_RE.fullmatch(path.name)
        if match and int(match.group(1)) >= len(poses):
            path.unlink()
    write_tum(Trajectory(np.array(timestamps), poses), directory / "poses_gt.txt")


_HEAD_LEN = len(OBS_MAGIC) + 4 * (2 + len(OBS_CHANNELS))


def _check_obs_header(path: Path, head: bytes, size: int) -> tuple[int, int]:
    """The (width, height) in an .obs file's header, checked together
    with the file's size in bytes."""
    if size < _HEAD_LEN:
        raise DataFormatError(f"{path}: truncated header")
    if head[: len(OBS_MAGIC)] != OBS_MAGIC:
        raise DataFormatError(f"{path}: bad magic {head[:len(OBS_MAGIC)]!r}")
    w, h, *channels = struct.unpack("<II5I", head[len(OBS_MAGIC) : _HEAD_LEN])
    expected = tuple(c for _, c in OBS_CHANNELS)
    if tuple(channels) != expected:
        raise DataFormatError(f"{path}: channel layout {channels} != {list(expected)}")
    need = _HEAD_LEN + 4 * h * w * sum(channels)
    if size != need:
        kind = "truncated" if size < need else "oversized"
        raise DataFormatError(f"{path}: {kind} payload ({size} bytes, expected {need})")
    return w, h


def _read_frame(path: Path, pose: PoseSE3, timestamp: float) -> FrameObservation:
    data = path.read_bytes()
    w, h = _check_obs_header(path, data[:_HEAD_LEN], len(data))
    maps: dict[str, np.ndarray] = {}
    offset = _HEAD_LEN
    for (name, c) in OBS_CHANNELS:
        count = h * w * c
        arr = np.frombuffer(data, dtype="<f4", count=count, offset=offset).astype(float)
        offset += 4 * count
        maps[name] = arr.reshape((h, w, c)) if c > 1 else arr.reshape((h, w))
    valid = maps.pop("mask") > 0.5
    try:
        return FrameObservation(**maps, valid=valid, pose=pose, timestamp=timestamp)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


class _IngestedFrames(Sequence):
    """An observation directory's frames, each read from its file and
    checked when it is indexed; nothing is cached."""

    def __init__(self, files: list[Path], traj: Trajectory):
        self._files = files
        self._traj = traj

    def __len__(self) -> int:
        return len(self._files)

    def __getitem__(self, index: int) -> FrameObservation:
        return _read_frame(self._files[index], self._traj.poses[index], float(self._traj.timestamps[index]))


def ingest_observations(directory) -> Sequence[FrameObservation]:
    """The frames of a directory written by write_observations (or a
    compatible producer): poses_gt.txt plus frame_NNNNNN.obs files
    numbered from 0 without a gap; no other name is a frame.

    poses_gt.txt, the frame names and count and every file's header and
    size are checked here; a frame's maps are read, and checked, each
    time the frame is indexed or iterated over.
    """
    directory = Path(directory)
    pose_file = directory / "poses_gt.txt"
    if not pose_file.exists():
        raise DataFormatError(f"missing trajectory file {pose_file}")
    traj = read_tum(pose_file)
    frame_files = sorted(p for p in directory.iterdir() if _FRAME_RE.fullmatch(p.name))
    for i, path in enumerate(frame_files):
        expected = _frame_path(directory, i)
        if path != expected:
            raise DataFormatError(f"{path}: frame {i} must be named {expected.name}")
    if len(frame_files) != len(traj):
        raise DataFormatError(
            f"frame/pose count mismatch: {len(frame_files)} frames vs {len(traj)} poses in {directory}"
        )
    for path in frame_files:
        with path.open("rb") as fh:
            _check_obs_header(path, fh.read(_HEAD_LEN), os.fstat(fh.fileno()).st_size)
    return _IngestedFrames(frame_files, traj)


# ---------------------------------------------------------------------------
# scene config files


def load_scene_config(path) -> SceneConfig:
    return from_dict(SceneConfig, load_yaml(path, "scene config"))
