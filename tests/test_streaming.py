"""Frames stream through ingest, generation, run and match_sequence: a
command holds at most two frames' maps, reads each frame file once, and
writes the same bytes as when the frames are handed over as a list."""

import gc
import tracemalloc
from dataclasses import replace

import pytest

import stereovo.frontend as frontend
from stereovo.evaluation import r_rel, t_rel
from stereovo.frontend import NoiseModel, generate_frames, generate_sequence, ingest_observations, write_observations
from stereovo.optimizer import CovarianceMode
from stereovo.pipeline import RunConfig, ablate, match_sequence, run, write_ablation_csv, write_run_outputs
from test_pipeline import plane_scene, small_cam, small_selector

NOISE = NoiseModel(sigma_flow=0.2, gamma_disp=0.04)
SHORT, LONG = 6, 24


def scene(num_frames):
    return plane_scene(seed=4, num_frames=num_frames, noise=NOISE, cam=small_cam(w=80, h=64))


def ingest_config(obs, out, num_frames=SHORT):
    return RunConfig(seed=3, output_dir=out, ingest=obs, camera=scene(num_frames).camera, selector=small_selector())


def frame_bytes(frame):
    return sum(getattr(frame, k).nbytes for k in ("flow", "flow_var", "depth", "depth_var", "valid"))


def landmark_bytes(matched):
    pairs = [p for _, _, p in matched.frames if p is not None]
    return sum(p.p.nbytes + p.q.nbytes + p.sp.nbytes + p.sq.nbytes for p in pairs)


def traced_peak(fn):
    """Peak traced bytes allocated while fn runs, above what was held
    before it, and fn's result."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, result


@pytest.fixture(scope="module")
def directories(tmp_path_factory):
    """An observation directory of SHORT and one of LONG frames."""
    root = tmp_path_factory.mktemp("streaming")
    for n in (SHORT, LONG):
        write_observations(generate_frames(scene(n)), root / f"obs{n}")
    return root


class TestLazyIngest:
    def test_frames_are_read_once_per_command(self, directories, monkeypatch, tmp_path):
        reads = []
        original = frontend._read_frame
        monkeypatch.setattr(frontend, "_read_frame", lambda path, *a: reads.append(path.name) or original(path, *a))
        cfg = ingest_config(directories / f"obs{SHORT}", tmp_path)
        frames = ingest_observations(cfg.ingest)
        assert len(frames) == SHORT and reads == []
        names = [f"frame_{i:06d}.obs" for i in range(SHORT)]
        for command in (lambda: run(cfg), lambda: ablate(cfg, list(CovarianceMode))):
            reads.clear()
            command()
            assert reads == names

    def test_frames_are_not_cached(self, directories):
        frames = ingest_observations(directories / f"obs{SHORT}")
        assert frames[-1] is not frames[-1]
        assert frames[-1].timestamp == frames[SHORT - 1].timestamp == SHORT - 1
        with pytest.raises(IndexError):
            frames[SHORT]


class TestFlatMemory:
    """tracemalloc peaks at SHORT and LONG frames: a command may grow by
    less than two frames' maps, match_sequence only by its landmarks."""

    def frame_size(self, directories):
        return frame_bytes(ingest_observations(directories / f"obs{SHORT}")[0])

    def test_run_on_an_ingested_directory(self, directories, tmp_path):
        run(ingest_config(directories / f"obs{SHORT}", tmp_path))  # warm caches and imports
        peaks = [
            traced_peak(lambda: run(ingest_config(directories / f"obs{n}", tmp_path, n)))[0] for n in (SHORT, LONG)
        ]
        assert peaks[1] - peaks[0] < 2 * self.frame_size(directories), peaks

    def test_write_observations_fed_by_the_generator(self, directories, tmp_path):
        write_observations(generate_frames(scene(SHORT)), tmp_path / "warm")
        peaks = [
            traced_peak(lambda: write_observations(generate_frames(scene(n)), tmp_path / f"w{n}"))[0]
            for n in (SHORT, LONG)
        ]
        assert peaks[1] - peaks[0] < 2 * self.frame_size(directories), peaks

    def test_match_sequence_grows_by_its_landmarks(self, directories, tmp_path):
        match_sequence(ingest_config(directories / f"obs{SHORT}", tmp_path))
        (short, a), (long, b) = (
            traced_peak(lambda: match_sequence(ingest_config(directories / f"obs{n}", tmp_path, n)))
            for n in (SHORT, LONG)
        )
        assert long - short < landmark_bytes(b) - landmark_bytes(a) + self.frame_size(directories), (short, long)


class TestSameBytesAsAList:
    def test_written_observations(self, tmp_path):
        write_observations(generate_frames(scene(SHORT)), tmp_path / "stream")
        write_observations(generate_sequence(scene(SHORT)), tmp_path / "list")
        names = sorted(p.name for p in (tmp_path / "list").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "stream").iterdir())
        for name in names:
            assert (tmp_path / "stream" / name).read_bytes() == (tmp_path / "list" / name).read_bytes(), name

    def test_run_and_ablation_outputs(self, directories, tmp_path):
        cfg = ingest_config(directories / f"obs{SHORT}", tmp_path)
        modes = list(CovarianceMode)
        write_run_outputs(run(cfg), tmp_path / "stream")
        write_ablation_csv(ablate(cfg, modes), tmp_path / "stream" / "ablation.csv")

        frames = list(ingest_observations(cfg.ingest))
        write_run_outputs(run(cfg, frames), tmp_path / "list")
        matched = match_sequence(cfg, frames)
        rows = []
        for mode in modes:
            result = run(replace(cfg, covariance_mode=mode), matched)
            rows.append((mode.value, *(f(result.gt, result.est) for f in (t_rel, r_rel))))
        write_ablation_csv(rows, tmp_path / "list" / "ablation.csv")
        for name in ("poses_est.txt", "poses_gt.txt", "diagnostics.csv", "ablation.csv"):
            assert (tmp_path / "stream" / name).read_bytes() == (tmp_path / "list" / name).read_bytes(), name
