"""Uncertainty-weighted stereo visual odometry backend.

Closed-form propagation of 2D matching/depth uncertainty into full 3D
keypoint covariances, uncertainty-driven keypoint selection, and
covariance-weighted two-frame pose optimization, validated against Monte
Carlo oracles and synthetic scenes with known ground truth.
"""

from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateGeometryError,
    InsufficientKeypointsError,
    NumericalError,
    StereoVoError,
)
from .evaluation import Trajectory, r_rel, read_tum, scale_align, t_rel, write_tum
from .frontend import (
    AnomalyRegion,
    FrameObservation,
    MotionSpec,
    NoiseModel,
    SceneConfig,
    Wall,
    generate_frames,
    generate_sequence,
    ingest_observations,
    write_observations,
)
from .geometry import PoseSE3, StereoCamera, backproject, se3_exp, so3_exp, so3_log
from .mc import McReport, mc_depth_distribution, mc_projection_covariance
from .optimizer import (
    CovarianceMode,
    FramePairProblem,
    MatchedLandmarks,
    PoseSolution,
    solve_pose,
)
from .pipeline import KeypointMode, MatchedSequence, RunConfig, RunResult, ablate, match_sequence, run
from .selector import DenseMaps, Keypoints, SelectorConfig, select
from .uncertainty import (
    DepthEstimate,
    DisparityEstimate,
    PixelObservation,
    disparity_to_depth,
    project_covariances,
)

__version__ = "0.1.0"
