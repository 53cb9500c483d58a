"""The config reader against mutated configs: every mutant of a valid
scene or run mapping either fails with a ConfigError naming the mutated
field, or loads equal to the hand-built config it stands for."""

import copy
import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import stereovo
from stereovo.config import from_dict
from stereovo.errors import ConfigError
from stereovo.frontend import AnomalyRegion, MotionSpec, NoiseModel, SceneConfig, Wall, load_scene_config
from stereovo.geometry import StereoCamera
from stereovo.optimizer import CovarianceMode
from stereovo.pipeline import KeypointMode, RunConfig, load_run_config, run_config_from_dict
from stereovo.selector import SelectorConfig

# valid mappings with every field written out, each float field as a float
CAMERA = {"fx": 90.0, "fy": 90.0, "cx": 48.0, "cy": 48.0, "baseline": 0.2, "width": 96, "height": 96}
SCENE = {
    "seed": 3,
    "num_frames": 6,
    "camera": CAMERA,
    "motion": {
        "kind": "constant_velocity",
        "velocity": [0.04, 0.02, 0.06],
        "angular_velocity": [0.0, 0.004, 0.0],
        "orbit_radius": 4.0,
        "orbit_rate": 0.03,
        "waypoints": [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]],
    },
    "landmark_count": 60,
    "depth_range": [2.0, 15.0],
    "noise": {"sigma_flow": 0.1, "gamma_disp": 0.02, "heteroscedastic": True, "lie_in_anomalies": False},
    "anomaly_regions": [{"rect": [10.0, 10.0, 30.0, 30.0], "multiplier": 8.0}],
    "walls": [{"z": 10.0, "x_range": [-40.0, 40.0], "y_range": [-30.0, 30.0]}],
    "wall_count": 2,
    "render_landmarks": False,
    "frame_dt": 0.5,
}
SELECTOR = {"nms_radius": 5.0, "border_margin": 4.0, "depth_range": [0.5, 60.0], "unc_multiplier": 2.0, "max_keypoints": 80}
COMMON = {"camera": CAMERA, "selector": SELECTOR, "covariance_mode": "diagonal", "keypoint_mode": "random"}
RUN_SIMULATE = {"seed": 5, "output_dir": "out", "input": {"simulate": SCENE}, **COMMON}
RUN_INGEST = {"seed": 5, "output_dir": "out", "input": {"ingest": "obs"}, **COMMON}

# the same configs built by hand
CAMERA_OBJ = StereoCamera(fx=90.0, fy=90.0, cx=48.0, cy=48.0, baseline=0.2, width=96, height=96)
SCENE_OBJ = SceneConfig(
    seed=3,
    num_frames=6,
    camera=CAMERA_OBJ,
    motion=MotionSpec(
        kind="constant_velocity",
        velocity=(0.04, 0.02, 0.06),
        angular_velocity=(0.0, 0.004, 0.0),
        orbit_radius=4.0,
        orbit_rate=0.03,
        waypoints=((0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0),),
    ),
    landmark_count=60,
    depth_range=(2.0, 15.0),
    noise=NoiseModel(sigma_flow=0.1, gamma_disp=0.02, heteroscedastic=True, lie_in_anomalies=False),
    anomaly_regions=(AnomalyRegion(rect=(10.0, 10.0, 30.0, 30.0), multiplier=8.0),),
    walls=(Wall(z=10.0, x_range=(-40.0, 40.0), y_range=(-30.0, 30.0)),),
    wall_count=2,
    render_landmarks=False,
    frame_dt=0.5,
)
COMMON_OBJ = dict(
    seed=5,
    output_dir=Path("out"),
    camera=CAMERA_OBJ,
    selector=SelectorConfig(
        nms_radius=5.0, border_margin=4.0, depth_min=0.5, depth_max=60.0, unc_multiplier=2.0, max_keypoints=80
    ),
    covariance_mode=CovarianceMode.DIAGONAL,
    keypoint_mode=KeypointMode.RANDOM,
)

CASES = {
    "scene": (SCENE, SCENE_OBJ, lambda d: from_dict(SceneConfig, d)),
    "run-simulate": (RUN_SIMULATE, RunConfig(simulate=SCENE_OBJ, **COMMON_OBJ), run_config_from_dict),
    "run-ingest": (RUN_INGEST, RunConfig(ingest=Path("obs"), **COMMON_OBJ), run_config_from_dict),
}
# lists that may hold any number of entries; every other list is a fixed-length tuple
VARIABLE_LISTS = {"anomaly_regions", "walls", "waypoints"}
EXTRA_KEY = "zz_extra"

yaml_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def paths(node, path=()):
    """Every (path, value) of a nested mapping, the root first."""
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in children:
        yield from paths(value, path + (key,))


def get_at(node, path):
    for key in path:
        node = node[key] if isinstance(node, (dict, list, tuple)) else getattr(node, key)
    return node


def accepts(original, value) -> bool:
    """Whether value is of the kind the field holding original takes."""
    if isinstance(original, bool):
        return isinstance(value, bool)
    if isinstance(original, int):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(original, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return isinstance(value, type(original))


def attribute_path(path):
    """The attribute path in the config object of a key path in its
    mapping: ``input.simulate`` and ``input.ingest`` are RunConfig's
    ``simulate`` and ``ingest``."""
    return path[1:] if path[:1] == ("input",) else path


def replace_at(obj, path, value):
    """obj with the attribute or tuple element at path set to value."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(head, int):
        return obj[:head] + (replace_at(obj[head], rest, value),) + obj[head + 1 :]
    return dataclasses.replace(obj, **{head: replace_at(getattr(obj, head), rest, value)})


def rebuilt(obj, path, make):
    """obj with the value at path replaced by make(value), rebuilt
    through the dataclasses so that their checks run; None where they
    fail."""
    try:
        return replace_at(obj, path, make(get_at(obj, path)))
    except (ConfigError, ValueError):
        return None


def default(cls, name):
    """The default of a dataclass field, MISSING where it is required or
    where cls has no such field."""
    for f in dataclasses.fields(cls):
        if f.name == name:
            return f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
    return dataclasses.MISSING


def expected_after_delete(obj, path):
    """The hand-built config of a mapping without the key at path, None
    where that key is required."""
    if path in (("input",), ("input", "simulate"), ("input", "ingest")):
        return None  # a run reads exactly one input
    parent_path, key = attribute_path(path[:-1]), path[-1]
    cls = type(get_at(obj, parent_path))
    names = ("depth_min", "depth_max") if (parent_path, key) == (("selector",), "depth_range") else (key,)
    defaults = {name: default(cls, name) for name in names}
    if dataclasses.MISSING in defaults.values():
        return None
    return rebuilt(obj, parent_path, lambda parent: dataclasses.replace(parent, **defaults))


@st.composite
def mutants(draw):
    """(case, mutated mapping, the name its error must carry, and the
    config it must load equal to, or None where it must fail)."""
    case = draw(st.sampled_from(sorted(CASES)))
    valid, obj, _ = CASES[case]
    path, original = draw(st.sampled_from(list(paths(valid))))
    mutant = copy.deepcopy(valid)
    parent, key = (get_at(mutant, path[:-1]), path[-1]) if path else (None, None)
    kinds = ["extra_key"] if isinstance(original, dict) else []
    if path:
        kinds.append("wrong_type")
    if isinstance(key, str):
        kinds.append("delete")
    if isinstance(original, list):
        kinds += ["longer", "shorter"]
    if isinstance(original, int) and not isinstance(original, bool):
        kinds.append("not_integral")
    if isinstance(original, float):
        kinds.append("not_finite")
    if isinstance(original, bool):
        kinds.append("bool_string")
    kind = draw(st.sampled_from(kinds))
    name = next((k for k in reversed(path) if isinstance(k, str)), None)
    expected = None
    if kind == "extra_key":
        get_at(mutant, path)[EXTRA_KEY] = draw(yaml_values)
        name = EXTRA_KEY
    elif kind == "wrong_type":
        parent[key] = draw(yaml_values.filter(lambda v: not accepts(original, v)))
        # null is a value of the X | None fields, whose default is None
        attr = attribute_path(path)
        if parent[key] is None and attr and isinstance(key, str):
            if default(type(get_at(obj, attr[:-1])), key) is None:
                expected = rebuilt(obj, attr, lambda _: None)
    elif kind == "delete":
        del parent[key]
        expected = expected_after_delete(obj, path)
    elif kind in ("longer", "shorter"):
        parent[key] = original + original[-1:] if kind == "longer" else original[:-1]
        if key in VARIABLE_LISTS or path[-2:-1] == ("waypoints",):
            grow = kind == "longer"
            expected = rebuilt(obj, attribute_path(path), lambda t: t + t[-1:] if grow else t[:-1])
    else:
        parent[key] = draw(
            {
                "not_integral": st.floats(),
                "not_finite": st.sampled_from([math.nan, math.inf, -math.inf]),
                "bool_string": st.sampled_from(["false", "true", "no", "yes", 0, 1]),
            }[kind]
        )
    return case, mutant, name, expected


@settings(max_examples=400, deadline=None)
@given(mutants())
def test_every_mutant_fails_naming_its_field_or_loads_as_built(mutant):
    case, d, name, expected = mutant
    load = CASES[case][2]
    if expected is None:
        with pytest.raises(ConfigError, match=name):
            load(d)
    else:
        assert load(d) == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_valid_mappings_load_as_built(case):
    valid, obj, load = CASES[case]
    assert load(copy.deepcopy(valid)) == obj


@pytest.mark.parametrize(
    "case, path",
    [
        ("scene", ("seed",)),
        ("run-simulate", ("seed",)),
        ("run-simulate", ("input", "simulate", "seed")),
        ("run-ingest", ("seed",)),
    ],
)
def test_negative_seed_is_a_config_error(case, path):
    valid, _, load = CASES[case]
    d = copy.deepcopy(valid)
    get_at(d, path[:-1])[path[-1]] = -1
    with pytest.raises(ConfigError, match="seed: must be >= 0"):
        load(d)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("num_frames", 1, "num_frames: must be >= 2, got 1"),
        ("seed", -1, "seed: must be >= 0, got -1"),
        # one waypoint row for six frames, found when the config loads
        ("motion", {"kind": "waypoints", "waypoints": [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]]}, "motion.waypoints: need 6 rows, got 1"),
        # the camera's checks raise ValueError, named by the camera's path
        ("camera", {**CAMERA, "fy": 0.0}, "camera: focal lengths must be positive, got (90.0, 0.0)"),
        ("camera", {**CAMERA, "baseline": -0.2}, "camera: baseline must be positive, got -0.2"),
        ("camera", {**CAMERA, "height": 0}, "camera: image size must be positive, got 96x0"),
        ("camera", {**CAMERA, "cx": 96.0}, "camera: principal point (96.0, 48.0) outside image 96x96"),
        ("noise", {"sigma_flow": -0.1}, "noise.sigma_flow: must be >= 0, got -0.1"),
        (
            "anomaly_regions",
            [{"rect": [10.0, 30.0, 30.0, 30.0], "multiplier": 8.0}],
            "anomaly_regions[0].rect: empty rectangle (10.0, 30.0, 30.0, 30.0)",
        ),
        (
            "anomaly_regions",
            [{"rect": [10.0, 10.0, 30.0, 30.0], "multiplier": 0.0}],
            "anomaly_regions[0].multiplier: must be positive, got 0.0",
        ),
        ("motion", {"kind": "spiral"}, "motion.kind: unknown kind 'spiral'"),
        ("motion", {"kind": "orbit", "orbit_radius": 0.0}, "motion.orbit_radius: must be positive, got 0.0"),
        ("depth_range", [15.0, 2.0], "depth_range: must be positive and increasing, got (15.0, 2.0)"),
        ("wall_count", 0, "wall_count: must be >= 1, got 0"),
        ("frame_dt", 0.0, "frame_dt: must be >= 1e-06 s, got 0.0"),
        # a wall whose range is reversed would render nothing
        (
            "walls",
            [{"z": 5.0, "x_range": [1.0, -1.0], "y_range": [-1.0, 1.0]}],
            "walls[0].x_range: max must exceed min, got [1.0, -1.0]",
        ),
        (
            "walls",
            [{"z": 5.0, "x_range": [-1.0, 1.0], "y_range": [2.0, 2.0]}],
            "walls[0].y_range: max must exceed min, got [2.0, 2.0]",
        ),
        # closer frames than eval pairs timestamps by; at 1e-10 s the
        # trajectory file's 9-decimal timestamps would all read 0
        ("frame_dt", 1.0e-10, "frame_dt: must be >= 1e-06 s, got 1e-10"),
        # finite components whose norm overflows, which motion_poses would divide by
        (
            "motion",
            {"kind": "waypoints", "waypoints": [[0.0, 0.0, 0.0, 1.0e300, 0.0, 0.0, 1.0e300]] * 6},
            "motion.waypoints[0]: the quaternion qx..qw must have a positive, finite norm, got inf",
        ),
    ],
)
def test_scene_check_errors_carry_their_dotted_path(field, value, message):
    run = copy.deepcopy(RUN_SIMULATE)
    run["input"]["simulate"][field] = value
    with pytest.raises(ConfigError) as err:
        run_config_from_dict(run)
    assert str(err.value) == f"input.simulate.{message}"
    # a scene file's errors keep their text
    scene = copy.deepcopy(SCENE)
    scene[field] = value
    with pytest.raises(ConfigError) as err:
        from_dict(SceneConfig, scene)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "selector, file_message, kwargs, message",
    [
        (
            {"border_margin": -1.0},
            "selector.border_margin: must be >= 0, got -1.0",
            {"border_margin": -1.0},
            "border_margin: must be >= 0, got -1.0",
        ),
        (
            {"depth_range": [0.0, 2.0]},
            "selector.depth_range[0]: must be positive, got 0.0",
            {"depth_min": 0.0, "depth_max": 2.0},
            "depth_min: must be positive, got 0.0",
        ),
        (
            {"depth_range": [5.0, 2.0]},
            "selector.depth_range[1]: must exceed depth_range[0]",
            {"depth_min": 5.0, "depth_max": 2.0},
            "depth_max: must exceed depth_min",
        ),
        (
            {"unc_multiplier": 0.0},
            "selector.unc_multiplier: must be positive, got 0.0",
            {"unc_multiplier": 0.0},
            "unc_multiplier: must be positive, got 0.0",
        ),
    ],
)
def test_selector_check_errors_name_what_the_file_says(selector, file_message, kwargs, message):
    # a run file writes the depth bounds as depth_range; Python names them
    run = copy.deepcopy(RUN_INGEST)
    run["selector"].update(selector)
    with pytest.raises(ConfigError) as err:
        run_config_from_dict(run)
    assert str(err.value) == file_message
    with pytest.raises(ConfigError) as err:
        SelectorConfig(**kwargs)
    assert str(err.value) == message


FILE_LOADERS = {"scene": (SCENE, load_scene_config), "run-simulate": (RUN_SIMULATE, load_run_config)}


@pytest.mark.parametrize(
    "case, key",
    [
        ("scene", "num_frames"),
        ("scene", "sigma_flow"),  # noise.sigma_flow
        ("run-simulate", "seed"),
        ("run-simulate", "nms_radius"),  # selector.nms_radius
        ("run-simulate", "fx"),  # input.simulate.camera.fx
    ],
)
def test_key_written_twice_is_an_error_naming_file_line_and_key(tmp_path, case, key):
    valid, load = FILE_LOADERS[case]
    text = yaml.safe_dump(valid, sort_keys=False)
    # the key's first line, written again below itself at the same indent
    first = re.search(rf"^( *){key}: .*$", text, flags=re.M)
    text = text[: first.end()] + f"\n{first.group(1)}{key}: 1" + text[first.end() :]
    line = text[: first.end()].count("\n") + 2
    path = tmp_path / "config.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load(path)
    message = str(err.value)
    assert message.startswith(f"{path}: invalid YAML: duplicate key '{key}'")
    assert f'in "{path}", line {line},' in message
    # the same file without the repeat loads
    path.write_text(yaml.safe_dump(valid, sort_keys=False))
    load(path)


def test_merge_key_still_merges_with_own_keys_winning(tmp_path):
    scene = {k: v for k, v in SCENE.items() if k != "camera"}
    path = tmp_path / "scene.yaml"
    path.write_text(
        yaml.safe_dump(scene, sort_keys=False)
        + "camera: {<<: {fx: 60.0, fy: 90.0, cx: 48.0, cy: 48.0, baseline: 0.2, width: 96, height: 96}, fx: 90.0}\n"
    )
    assert load_scene_config(path) == SCENE_OBJ
    # an anchored mapping merged into another, in a run file
    run = {k: v for k, v in RUN_SIMULATE.items() if k != "camera"}
    text = yaml.safe_dump(run, sort_keys=False).replace("    camera:\n", "    camera: &cam\n", 1)
    path.write_text(text + "camera: {<<: *cam, width: 96}\n")
    assert load_run_config(path) == RunConfig(simulate=SCENE_OBJ, **COMMON_OBJ)


@pytest.mark.parametrize("case", sorted(FILE_LOADERS))
def test_floats_with_an_exponent_load_as_numbers(tmp_path, case):
    # YAML 1.1 reads 8e-2 and 2.2E1 as strings; YAML 1.2, and this loader, as floats
    valid, load = FILE_LOADERS[case]
    valid = copy.deepcopy(valid)
    scene = valid if case == "scene" else valid["input"]["simulate"]
    scene["noise"]["gamma_disp"], scene["depth_range"] = 0.08, [2.0, 22.0]
    decimal = yaml.safe_dump(valid, sort_keys=False)
    assert decimal.count(" 0.08\n") == decimal.count(" 22.0\n") == 1
    path = tmp_path / "config.yaml"
    path.write_text(decimal.replace(" 0.08\n", " 8e-2\n").replace(" 22.0\n", " 2.2E1\n"))
    exponent = load(path)
    path.write_text(decimal)
    assert exponent == load(path)
    # an integer field still takes integers only
    path.write_text(decimal.replace("num_frames: 6", "num_frames: 6e0"))
    with pytest.raises(ConfigError, match="num_frames: expected an integer, got 6.0"):
        load(path)


def test_cli_exits_1_without_a_traceback(tmp_path):
    cfg = copy.deepcopy(RUN_SIMULATE)
    cfg["output_dir"] = str(tmp_path / "out")
    cfg["selector"]["nms_radius"] = math.nan
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    src = str(Path(stereovo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "stereovo.cli", "run", str(path)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 1, proc.stderr
    assert "config error: selector.nms_radius" in proc.stderr
    assert "Traceback" not in proc.stderr
