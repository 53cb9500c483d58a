"""The README's library snippets run as written, so a renamed or removed
export fails here instead of leaving the documentation stale."""

import re
from pathlib import Path

from stereovo.frontend import MotionSpec, NoiseModel, SceneConfig, Wall
from stereovo.geometry import StereoCamera

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
