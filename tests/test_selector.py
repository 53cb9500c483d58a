import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frame_of
from reference import KeypointCandidate, geometry_filter, nms_filter, uncertainty_filter
from stereovo.geometry import StereoCamera
from stereovo.selector import SelectorConfig, _greedy_nms, _median, combined_scores, select


def kp(u, v, score=0.0, flow_unc=0.0, depth_unc=0.0, depth=5.0):
    return KeypointCandidate(u=u, v=v, score=score, flow_unc=flow_unc, depth_unc=depth_unc, depth=depth)


def as_tuples(keypoints):
    return list(zip(keypoints.u, keypoints.v, keypoints.score))


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
    return frame_of(
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
        us = sorted(set(out.u))
        vs = sorted(set(out.v))
        # survivors form an even grid at the NMS spacing
        assert np.allclose(np.diff(us), 6)
        assert np.allclose(np.diff(vs), 6)
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert max(abs(out.u[i] - out.u[j]), abs(out.v[i] - out.v[j])) >= 6

    def test_grid_nms_matches_list_nms(self):
        rng = np.random.default_rng(77)
        h = w = 40
        cam = self._cam(h, w)
        for _ in range(5):
            maps = frame_of(
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
            want = nms_filter(candidates_of(maps), 4)
            got_set = set(zip(got.u, got.v))
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
        maps = frame_of(fv, dv, maps.depth, maps.valid)
        cfg = SelectorConfig(nms_radius=4, border_margin=2, max_keypoints=500)
        out = select(maps, cam, cfg)
        assert len(out) and not np.any((20 <= out.v) & (out.v < 40))

    def test_frame_size_must_match_camera(self):
        cfg = SelectorConfig(nms_radius=4, border_margin=2)
        with pytest.raises(ValueError, match="maps are 64x64 but camera expects 64x48"):
            select(_uniform_maps(64, 64), self._cam(h=48, w=64), cfg)

    def test_all_border_selects_none(self):
        cam = self._cam()
        cfg = SelectorConfig(border_margin=32)
        for rng in (None, np.random.default_rng(0)):
            out = select(_uniform_maps(64, 64), cam, cfg, rng)
            assert len(out) == 0 and out.u.shape == out.v.shape == out.score.shape == (0,)

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
        assert as_tuples(a) == as_tuples(b)
        assert len(a) == 30
        assert as_tuples(a) != as_tuples(c)

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
        maps = frame_of(
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
        want = geometry_filter(nms_filter(candidates_of(maps), 3), cam, cfg)
        assert set(zip(got.u, got.v)) == {(c.u, c.v) for c in want}


def candidates_of(maps):
    """Every selectable pixel of the maps as a KeypointCandidate, in
    row-major order, scored as select scores it."""
    valid = maps.valid & np.isfinite(maps.depth)
    flow_unc = maps.flow_var[..., 0] + maps.flow_var[..., 1]
    vv, uu = np.nonzero(valid)
    scores = combined_scores(flow_unc[valid], maps.depth_var[valid])
    return [
        kp(float(u), float(v), float(s), float(flow_unc[v, u]), float(maps.depth_var[v, u]), float(maps.depth[v, u]))
        for u, v, s in zip(uu, vv, scores)
    ]


def composed_oracles(maps, cam, cfg):
    """select through the list filters, before truncation: NMS ->
    geometry -> uncertainty, in canonical (score, u, v) order."""
    survivors = geometry_filter(nms_filter(candidates_of(maps), cfg.nms_radius), cam, cfg)
    if survivors:
        survivors = uncertainty_filter(survivors, cfg.unc_multiplier)
    return sorted(survivors, key=lambda c: (c.score, c.u, c.v))


def oracle_maps(seed, h, w, variances="uniform", invalid_row=None):
    rng = np.random.default_rng(seed)
    if variances == "uniform":
        flow_var, depth_var = rng.uniform(0.1, 2.0, size=(h, w, 2)), rng.uniform(0.01, 0.5, size=(h, w))
    else:  # small integers: scores tie; with "zeros", a zero median makes some scores inf
        low = 0 if variances == "zeros" else 1
        flow_var = rng.integers(low, 3, size=(h, w, 2)).astype(float)
        depth_var = rng.integers(low, 3, size=(h, w)).astype(float)
        if variances == "zeros":
            flow_var[rng.random((h, w)) < 0.6] = 0.0
    valid = rng.random((h, w)) > 0.15
    if invalid_row is not None:
        valid[invalid_row] = False
    return frame_of(flow_var, depth_var, rng.uniform(0.2, 30.0, size=(h, w)), valid)


class TestSelectAgainstComposedOracles:
    @pytest.mark.parametrize(
        "h, w, variances, invalid_row, sel",
        [
            (40, 40, "integers", None, dict(nms_radius=4, unc_multiplier=1.0, max_keypoints=15)),
            (40, 40, "zeros", None, dict(nms_radius=3, unc_multiplier=1.5, max_keypoints=30)),
            (48, 36, "uniform", None, dict(nms_radius=3.5, border_margin=2.5, unc_multiplier=1.2, max_keypoints=8)),
            (12, 10, "uniform", None, dict(nms_radius=1e9, border_margin=0, max_keypoints=5)),
            (60, 1, "uniform", None, dict(nms_radius=2, border_margin=0, unc_multiplier=1.3, max_keypoints=6)),
            (32, 32, "integers", 16, dict(nms_radius=2.5, border_margin=1, unc_multiplier=1.1, max_keypoints=18)),
        ],
        ids=["tied_scores", "inf_scores", "non_integer_radius", "radius_beyond_image", "one_pixel_wide", "invalid_row"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_same_keypoints_in_order(self, h, w, variances, invalid_row, sel, seed):
        cam = StereoCamera(fx=50, fy=50, cx=w / 2, cy=h / 2, baseline=0.1, width=w, height=h)
        cfg = SelectorConfig(**{"border_margin": 2, "depth_min": 1.0, "depth_max": 20.0, **sel})
        maps = oracle_maps(seed, h, w, variances, invalid_row)
        want = composed_oracles(maps, cam, cfg)
        # the truncation binds, unless one NMS survivor suppresses all others
        assert len(want) > cfg.max_keypoints or len(want) <= 1
        got = select(maps, cam, cfg)
        assert as_tuples(got) == [(c.u, c.v, c.score) for c in want[: cfg.max_keypoints]]

    def test_finite_multiplier_drops_keypoints(self):
        cam = StereoCamera(fx=50, fy=50, cx=20, cy=20, baseline=0.1, width=40, height=40)
        cfg = SelectorConfig(nms_radius=3, border_margin=2, depth_min=1.0, depth_max=20.0, unc_multiplier=1.0)
        maps = oracle_maps(0, 40, 40)
        before = geometry_filter(nms_filter(candidates_of(maps), 3), cam, cfg)
        assert len(before) > len(composed_oracles(maps, cam, cfg)) == len(select(maps, cam, cfg))


@st.composite
def score_maps(draw):
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    elements = st.integers(0, 3).map(float) if draw(st.booleans()) else st.floats(0.0, 10.0)
    score = draw(hnp.arrays(np.float64, (h, w), elements=elements))
    valid = draw(hnp.arrays(np.bool_, (h, w)))
    return score, valid, draw(st.floats(1.0, 30.0))


@given(score_maps())
@settings(max_examples=150, deadline=None)
def test_greedy_nms_matches_nms_filter(case):
    score, valid, radius = case
    vv, uu = np.nonzero(valid)
    keep = _greedy_nms(score[vv, uu], uu, vv, valid.shape, radius)
    cands = [kp(float(u), float(v), float(score[v, u])) for v, u in zip(vv, uu)]
    want = sorted(nms_filter(cands, radius), key=lambda c: (c.score, c.u, c.v))
    assert list(zip(uu[keep].tolist(), vv[keep].tolist())) == [(c.u, c.v) for c in want]


@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 41),
        elements=st.one_of(st.floats(0.0, 1.7e308), st.integers(0, 3).map(float), st.just(np.inf)),
    )
)
@settings(max_examples=300, deadline=None)
def test_median_is_numpys(x):
    # odd and even sizes, ties, inf and sums that overflow
    with np.errstate(over="ignore"):
        assert _median(x) == np.median(x)


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
