import numpy as np
import pytest

from stereovo.errors import InsufficientKeypointsError
from stereovo.geometry import StereoCamera
from stereovo.selector import (
    DenseMaps,
    KeypointCandidate,
    SelectorConfig,
    combined_scores,
    geometry_filter,
    nms_filter,
    select,
    uncertainty_filter,
)


def kp(u, v, score=0.0, flow_unc=0.0, depth_unc=0.0, depth=5.0):
    return KeypointCandidate(u=u, v=v, score=score, flow_unc=flow_unc, depth_unc=depth_unc, depth=depth)


def brute_force_nms(candidates, radius):
    """O(n^2) greedy reference: walk candidates in (score, u, v) order,
    keep one unless a kept point is within Chebyshev distance < radius."""
    order = sorted(range(len(candidates)), key=lambda i: (candidates[i].score, candidates[i].u, candidates[i].v))
    kept = []
    for i in order:
        ci = candidates[i]
        if all(max(abs(ci.u - candidates[j].u), abs(ci.v - candidates[j].v)) >= radius for j in kept):
            kept.append(i)
    return sorted(kept)


class TestNms:
    def test_single_candidate(self):
        c = [kp(3, 4, 0.5)]
        assert nms_filter(c, 3) == c

    def test_dominance(self):
        a, b = kp(10, 10, 0.1), kp(11, 11, 0.2)
        assert nms_filter([a, b], 3) == [a]
        assert nms_filter([b, a], 3) == [a]

    def test_equal_score_grid_matches_brute_force(self):
        cands = [kp(2 * i, 2 * j, 1.0) for i in range(5) for j in range(5)]
        got = nms_filter(cands, 3)
        want = [cands[i] for i in brute_force_nms(cands, 3)]
        assert got == want

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 150))
        cands = [
            kp(
                float(rng.uniform(0, 60)),
                float(rng.uniform(0, 60)),
                float(rng.choice([0.1, 0.2, 0.5, rng.uniform()])),
            )
            for _ in range(n)
        ]
        radius = float(rng.uniform(1.5, 9))
        got = nms_filter(cands, radius)
        want = [cands[i] for i in brute_force_nms(cands, radius)]
        assert got == want

    def test_order_independence(self):
        rng = np.random.default_rng(123)
        cands = [kp(float(rng.uniform(0, 40)), float(rng.uniform(0, 40)), float(rng.uniform())) for _ in range(80)]
        base = nms_filter(cands, 5)
        for _ in range(5):
            perm = list(rng.permutation(len(cands)))
            shuffled = [cands[i] for i in perm]
            assert sorted(nms_filter(shuffled, 5), key=lambda c: (c.u, c.v)) == sorted(
                base, key=lambda c: (c.u, c.v)
            )

    def test_min_spacing_holds(self):
        rng = np.random.default_rng(99)
        cands = [kp(float(rng.uniform(0, 50)), float(rng.uniform(0, 50)), float(rng.uniform())) for _ in range(300)]
        out = nms_filter(cands, 4)
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert max(abs(out[i].u - out[j].u), abs(out[i].v - out[j].v)) >= 4

    def test_subset_of_input(self):
        cands = [kp(i, i, 0.1 * i) for i in range(20)]
        assert set(id(c) for c in nms_filter(cands, 2)) <= set(id(c) for c in cands)


class TestGeometryFilter:
    def _cam(self):
        return StereoCamera(fx=50, fy=50, cx=32, cy=32, baseline=0.1, width=64, height=64)

    def test_border_candidate_removed(self):
        cfg = SelectorConfig(border_margin=8)
        assert geometry_filter([kp(0, 30)], self._cam(), cfg) == []

    def test_depth_out_of_range_removed(self):
        cfg = SelectorConfig(depth_min=0.1, depth_max=100)
        assert geometry_filter([kp(30, 30, depth=0.05)], self._cam(), cfg) == []

    def test_matches_predicate_scan(self):
        rng = np.random.default_rng(5)
        cam = self._cam()
        cfg = SelectorConfig(border_margin=6, depth_min=0.5, depth_max=20)
        cands = [
            kp(float(rng.uniform(-2, 66)), float(rng.uniform(-2, 66)), depth=float(rng.uniform(0.1, 40)))
            for _ in range(100)
        ]
        got = geometry_filter(cands, cam, cfg)
        want = [
            c
            for c in cands
            if 6 <= c.u < 58 and 6 <= c.v < 58 and 0.5 <= c.depth <= 20
        ]
        assert got == want


class TestUncertaintyFilter:
    def test_identical_candidates_all_survive(self):
        cands = [kp(i, 0, flow_unc=2.0, depth_unc=3.0) for i in range(7)]
        assert uncertainty_filter(cands, 1.5) == cands

    def test_identical_zero_uncertainty_all_survive(self):
        cands = [kp(i, 0, flow_unc=0.0, depth_unc=0.0) for i in range(5)]
        assert uncertainty_filter(cands, 1.5) == cands

    def test_median_threshold(self):
        # flow_unc 1..9 -> median 5, threshold 7.5 -> 1..7 survive
        cands = [kp(i, 0, flow_unc=float(i), depth_unc=1.0) for i in range(1, 10)]
        got = uncertainty_filter(cands, 1.5)
        assert [c.flow_unc for c in got] == [1, 2, 3, 4, 5, 6, 7]

    def test_and_semantics(self):
        cands = [kp(i, 0, flow_unc=1.0, depth_unc=1.0) for i in range(8)]
        cands.append(kp(9, 0, flow_unc=0.0, depth_unc=100.0))
        got = uncertainty_filter(cands, 1.5)
        assert all(c.depth_unc < 100 for c in got)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            uncertainty_filter([], 1.5)


def _uniform_maps(h, w, flow_unc=0.5, depth_unc=0.01, depth=5.0):
    return DenseMaps(
        flow_var=np.full((h, w, 2), flow_unc / 2),
        depth_var=np.full((h, w), depth_unc),
        depth=np.full((h, w), depth),
        valid=np.ones((h, w), dtype=bool),
    )


class TestSelect:
    def _cam(self, h=64, w=64):
        return StereoCamera(fx=50, fy=50, cx=w / 2, cy=h / 2, baseline=0.1, width=w, height=h)

    def test_uniform_frame_even_grid(self):
        cam = self._cam()
        cfg = SelectorConfig(nms_radius=6, border_margin=2, max_keypoints=500)
        out = select(_uniform_maps(64, 64), cam, cfg)
        us = sorted(set(c.u for c in out))
        vs = sorted(set(c.v for c in out))
        # survivors form an even grid at the NMS spacing
        assert np.allclose(np.diff(us), 6)
        assert np.allclose(np.diff(vs), 6)
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert max(abs(out[i].u - out[j].u), abs(out[i].v - out[j].v)) >= 6

    def test_grid_nms_matches_list_nms(self):
        rng = np.random.default_rng(77)
        h = w = 40
        cam = self._cam(h, w)
        for _ in range(5):
            maps = DenseMaps(
                flow_var=rng.uniform(0.1, 2.0, size=(h, w, 2)),
                depth_var=rng.uniform(0.001, 0.5, size=(h, w)),
                depth=rng.uniform(1.0, 10.0, size=(h, w)),
                valid=rng.random((h, w)) > 0.2,
            )
            cfg = SelectorConfig(
                nms_radius=4, border_margin=0, depth_min=1e-3, depth_max=1e3,
                unc_multiplier=1e9, max_keypoints=10_000,
            )
            got = select(maps, cam, cfg)
            # same thing through the list API
            flow_unc = maps.flow_var[..., 0] + maps.flow_var[..., 1]
            vv, uu = np.nonzero(maps.valid)
            scores = combined_scores(flow_unc[maps.valid], maps.depth_var[maps.valid])
            cands = [
                kp(float(u), float(v), float(s), float(flow_unc[v, u]), float(maps.depth_var[v, u]), float(maps.depth[v, u]))
                for u, v, s in zip(uu, vv, scores)
            ]
            want = nms_filter(cands, 4)
            got_set = {(c.u, c.v) for c in got}
            want_set = {(c.u, c.v) for c in want}
            assert got_set == want_set

    def test_high_uncertainty_band_excluded(self):
        h = w = 64
        cam = self._cam()
        maps = _uniform_maps(h, w)
        fv = maps.flow_var.copy()
        dv = maps.depth_var.copy()
        fv[20:40, :, :] *= 400.0
        dv[20:40, :] *= 400.0
        maps = DenseMaps(fv, dv, maps.depth, maps.valid)
        cfg = SelectorConfig(nms_radius=4, border_margin=2, max_keypoints=500)
        out = select(maps, cam, cfg)
        assert out and all(not (20 <= c.v < 40) for c in out)

    def test_all_border_is_an_error(self):
        cam = self._cam()
        cfg = SelectorConfig(border_margin=32)
        with pytest.raises(InsufficientKeypointsError):
            select(_uniform_maps(64, 64), cam, cfg)

    def test_truncates_to_max_keypoints_by_score(self):
        cam = self._cam()
        cfg = SelectorConfig(nms_radius=4, border_margin=2, max_keypoints=10)
        out = select(_uniform_maps(64, 64), cam, cfg)
        assert len(out) == 10

    def test_random_mode_reproducible(self):
        cam = self._cam()
        cfg = SelectorConfig(nms_radius=4, border_margin=4, max_keypoints=30)
        maps = _uniform_maps(64, 64)
        a = select(maps, cam, cfg, rng=np.random.default_rng(9))
        b = select(maps, cam, cfg, rng=np.random.default_rng(9))
        c = select(maps, cam, cfg, rng=np.random.default_rng(10))
        assert a == b
        assert len(a) == 30
        assert a != c

    def test_filters_shrink(self):
        cam = self._cam()
        cfg = SelectorConfig(nms_radius=5, border_margin=4, max_keypoints=10_000)
        out = select(_uniform_maps(64, 64), cam, cfg)
        assert len(out) <= 64 * 64

    def test_select_geometry_stage_matches_list_filter(self):
        # the vectorized geometry predicate inside select must agree with
        # the list-based geometry_filter
        rng = np.random.default_rng(31)
        h = w = 48
        cam = self._cam(h, w)
        maps = DenseMaps(
            flow_var=rng.uniform(0.1, 1.0, size=(h, w, 2)),
            depth_var=rng.uniform(0.01, 0.5, size=(h, w)),
            depth=rng.uniform(0.1, 30.0, size=(h, w)),
            valid=rng.random((h, w)) > 0.1,
        )
        cfg = SelectorConfig(
            nms_radius=3, border_margin=5, depth_min=1.0, depth_max=20.0,
            unc_multiplier=1e9, max_keypoints=10_000,
        )
        got = select(maps, cam, cfg)
        # reference: NMS over all valid pixels, then the list filter
        flow_unc = maps.flow_var[..., 0] + maps.flow_var[..., 1]
        vv, uu = np.nonzero(maps.valid)
        scores = combined_scores(flow_unc[maps.valid], maps.depth_var[maps.valid])
        cands = [
            kp(float(u), float(v), float(s), float(flow_unc[v, u]), float(maps.depth_var[v, u]), float(maps.depth[v, u]))
            for u, v, s in zip(uu, vv, scores)
        ]
        want = geometry_filter(nms_filter(cands, 3), cam, cfg)
        assert {(c.u, c.v) for c in got} == {(c.u, c.v) for c in want}


class TestCombinedScores:
    def test_zero_median_channel(self):
        flow = np.array([0.0, 0.0, 0.0, 1.0])
        depth = np.array([1.0, 2.0, 3.0, 4.0])
        s = combined_scores(flow, depth)
        assert np.isfinite(s[:3]).all()
        assert np.isinf(s[3])

    def test_dimensionless_sum(self):
        flow = np.array([1.0, 2.0, 4.0])
        depth = np.array([10.0, 20.0, 40.0])
        s = combined_scores(flow, depth)
        assert np.allclose(s, flow / 2.0 + depth / 20.0)
