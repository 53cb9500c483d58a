"""The README's library snippets run as written, and its config examples
load, so a renamed or removed export or config field fails here instead
of leaving the documentation stale."""

import re
from functools import partial
from pathlib import Path

import yaml

from stereovo.frontend import MotionSpec, NoiseModel, SceneConfig, Wall, load_scene_config
from stereovo.geometry import StereoCamera
from stereovo.pipeline import load_run_config
from stereovo.selector import SelectorConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippets() -> list[str]:
    """The fenced python blocks of the README's "## Library use" section."""
    text = README.read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.MULTILINE | re.DOTALL)


def test_library_use_snippets_run(tmp_path, monkeypatch):
    snippets = library_snippets()
    assert len(snippets) >= 2
    monkeypatch.chdir(tmp_path)
    cam = StereoCamera(fx=90.0, fy=90.0, cx=48.0, cy=48.0, baseline=0.2, width=96, height=96)
    scene = SceneConfig(
        seed=0,
        num_frames=4,
        camera=cam,
        motion=MotionSpec(kind="constant_velocity", velocity=(0.04, 0.02, 0.06)),
        landmark_count=60,
        depth_range=(2.0, 15.0),
        noise=NoiseModel(sigma_flow=0.1, gamma_disp=0.02),
        walls=(Wall(z=10.0, x_range=(-40.0, 40.0), y_range=(-40.0, 40.0)),),
        render_landmarks=False,
    )
    namespace = {"scene": scene}
    for snippet in snippets:
        exec(compile(snippet, str(README), "exec"), namespace)


def config_blocks() -> list[str]:
    """The fenced YAML blocks of the README's "## Configuration files"
    section: a scene config, then a run config."""
    text = README.read_text()
    section = text.split("\n## Configuration files\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```yaml\n(.*?)^```$", section, flags=re.MULTILINE | re.DOTALL)


def test_configuration_examples_load(tmp_path):
    scene_text, run_text = config_blocks()
    scene_path = tmp_path / "scene.yaml"
    scene_path.write_text(scene_text)
    scene = load_scene_config(scene_path)
    assert scene.walls[0].x_range == (-60.0, 60.0)

    # the run block abbreviates its inline scene and its camera
    raw = yaml.safe_load(scene_text)
    flow = partial(yaml.safe_dump, default_flow_style=True, width=float("inf"))
    run_text = run_text.replace("{ ... scene config as above ... }", flow(raw).strip())
    run_text = run_text.replace("camera: {...}", "camera: " + flow(raw["camera"]).strip())
    run_path = tmp_path / "run.yaml"
    run_path.write_text(run_text)
    cfg = load_run_config(run_path)
    assert cfg.simulate == scene
    assert cfg.camera == scene.camera
    assert cfg.selector == SelectorConfig()
