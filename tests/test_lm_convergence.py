"""solve_pose's stop rule on whole sequences: it ends a solve when the
damped Gauss-Newton model predicts no real decrease, before evaluating
the trial, instead of climbing the damping ladder until an accepted step
gains less than 1e-10 of the cost.

The stated tolerance is against ``reference.tight_solve_pose``, that
older rule, run through the same pipeline. The model holds the weights
fixed, so near its fixed point the actual decrease of an accepted step
(which also moves the weights) exceeds the predicted one by orders of
magnitude, and the tight rule keeps descending the cost for several
more linearizations: frame costs end up to ~1e-5 above the tight
rule's (measured on these scenes, 1.0e-5 at most; on 100-frame
sequences 3.4e-5 in ``diagonal`` mode), while t_rel and r_rel move by
at most 3e-4 relative (in ``identity`` mode).

The scenes are those of test_landmark_calibration: an honest band
(noise x25, variances honest) and an overconfident one (noise x3,
variances at the baseline).
"""

from dataclasses import replace

import numpy as np
import pytest

from reference import tight_solve_pose
from test_landmark_calibration import SELECTOR, scene

import stereovo.optimizer as optimizer
import stereovo.pipeline as pipeline
from stereovo.evaluation import r_rel, t_rel
from stereovo.optimizer import CovarianceMode

SCENES = {"honest": (25.0, False), "overconfident": (3.0, True)}


def matched(seed, band, num_frames=30):
    multiplier, lie = SCENES[band]
    cfg = pipeline.RunConfig(
        seed=seed, output_dir="unused", simulate=replace(scene(seed, multiplier, lie), num_frames=num_frames),
        selector=SELECTOR,
    )
    return cfg, pipeline.match_sequence(cfg)


@pytest.mark.parametrize("band", SCENES)
@pytest.mark.parametrize("seed", (21, 22))
def test_agrees_with_the_tight_stop_rule(monkeypatch, band, seed):
    cfg, sequence = matched(seed, band)
    for mode in CovarianceMode:
        mode_cfg = replace(cfg, covariance_mode=mode)
        got = pipeline.run(mode_cfg, sequence)
        with monkeypatch.context() as m:
            m.setattr(pipeline, "solve_pose", tight_solve_pose)
            want = pipeline.run(mode_cfg, sequence)
        assert abs(t_rel(got.gt, got.est) / t_rel(want.gt, want.est) - 1) < 5e-4, mode
        assert abs(r_rel(got.gt, got.est) / r_rel(want.gt, want.est) - 1) < 5e-4, mode
        cost = np.array([d.final_cost for d in got.diagnostics])
        tight = np.array([d.final_cost for d in want.diagnostics])
        assert np.all(np.abs(cost - tight) <= 5e-5 * tight), mode
        for d, e in zip(got.diagnostics, want.diagnostics):
            # the iteration cap may only go away
            assert set(d.flags) <= set(e.flags) and set(e.flags) - set(d.flags) <= {"lm_max_iters"}, (mode, d, e)


@pytest.fixture(scope="module")
def honest_100():
    return matched(1012, "honest", num_frames=100)


def test_trials_per_solve(monkeypatch, honest_100):
    # per solve on this scene, cost evaluations and linearizations: 13.9
    # and 5.14 under the tight rule, 7.14 and 3.59 under the model test
    cfg, sequence = honest_100
    evaluations = []
    real = optimizer._weighted_cost

    def counted(*args):
        evaluations[-1] += 1
        return real(*args)

    def solve(problem):
        evaluations.append(0)
        return optimizer.solve_pose(problem)

    monkeypatch.setattr(optimizer, "_weighted_cost", counted)
    monkeypatch.setattr(pipeline, "solve_pose", solve)
    result = pipeline.run(cfg, sequence)
    iterations = [d.lm_iterations for d in result.diagnostics]
    assert len(evaluations) == len(iterations) == 99
    assert np.mean(evaluations) <= 8.0
    assert np.mean(iterations) <= 4.2


def test_no_frame_reaches_the_iteration_cap(honest_100):
    # the tight rule crawled to the 100-iteration cap on one frame of
    # this scene in diagonal mode
    cfg, sequence = honest_100
    for mode in CovarianceMode:
        result = pipeline.run(replace(cfg, covariance_mode=mode), sequence)
        assert not [d.frame_index for d in result.diagnostics if "lm_max_iters" in d.flags], mode
