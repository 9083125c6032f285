"""Every key of every manifest kind, broken one way at a time, is a data
error through the CLI: exit 3, a message naming the key, and no traceback.

For each key of a valid map, sequence, pairs set and checkpoint (every
object key, and the first item of every list), the key is deleted, given
a value of another JSON type, made NaN, made negative (a number that may
not be), made empty (a string, list or object) or, for a file name,
pointed outside the artifact's directory. A checkpoint's layers are alike:
the first takes every mutation, the others the first that applies to each
key. Hypothesis draws the replacement values; every case runs in each
example."""

import copy
import dataclasses
import math

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from stereoloc import features, harness, storage, synth
from stereoloc.cli import main

# keys whose numbers may be negative in a valid manifest
SIGNED = {"world_pose", "pose", "src_pose", "tgt_pose", "cu", "cv", "alpha", "beta", "gamma"}
OPTIONAL = {"extra"}
LOADERS = {"map": harness.load_map, "sequence": synth.load_sequence,
           "pairs": synth.load_dataset, "checkpoint": features.load_checkpoint}

# JSON values by type, for the type changes
JSON_VALUES = {
    "number": st.one_of(st.integers(-5, 5), st.floats(-5, 5)),
    "string": st.text(min_size=1, max_size=4),
    "list": st.lists(st.integers(0, 3), min_size=1, max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
    "other": st.sampled_from([None, True, False]),
}
OUTSIDE = st.one_of(
    st.sampled_from(["..", "../frame.f32", "sub/../../frame.f32", "/etc/passwd"]),
    st.text("abc", min_size=1, max_size=4).map(lambda name: f"../{name}.f32"),
)


def _json_type(value) -> str:
    if isinstance(value, bool) or value is None:
        return "other"
    return {int: "number", float: "number", str: "string", list: "list", dict: "object"}[
        type(value)]


def _keys(value, path=()):
    """Every key path of a JSON value: each object key, and the first item
    of each list."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield path + (key,)
            yield from _keys(item, path + (key,))
    elif isinstance(value, list) and value:
        yield path + (0,)
        yield from _keys(value[0], path + (0,))


def _name(path) -> str:
    """A key path as the schema walk names it: `vertices[0].n`."""
    name = ""
    for key in path:
        name += f"[{key}]" if isinstance(key, int) else f".{key}" if name else key
    return name


def _mutations(path, value) -> list[str]:
    """The mutations a key's value can take."""
    keyed = [k for k in path if isinstance(k, str)]
    return [mutation for mutation, applies in [
        ("delete", isinstance(path[-1], str) and path[-1] not in OPTIONAL),
        ("type", True),
        ("nan", True),
        ("negative", _json_type(value) == "number" and keyed[-1] not in SIGNED),
        ("empty", isinstance(value, (str, list, dict))),
        ("outside", path[-1] == "file"),
    ] if applies]


def _cases(manifest):
    """(path, mutation) for every key."""
    first_layer = next(iter(manifest.get("layers", {})), None)
    for path in _keys(manifest):
        value = manifest
        for key in path:
            value = value[key]
        mutations = _mutations(path, value)
        if path[0] == "layers" and len(path) > 1 and path[1] != first_layer:
            mutations = mutations[:1]
        for mutation in mutations:
            yield path, mutation


def _mutate(manifest, path, mutation, draw):
    """A copy of the manifest with the value at `path` mutated, and the
    start of the message the walk gives for it."""
    broken = copy.deepcopy(manifest)
    parent = broken
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    if mutation == "delete":
        del parent[key]
        where = _name(path[:-1])
        return broken, f"{where} lacks key {key!r}" if where else f"lacks key {key!r}"
    if mutation == "type":
        other = [t for t in JSON_VALUES if t != _json_type(value)]
        parent[key] = draw(st.sampled_from(other).flatmap(JSON_VALUES.get))
    elif mutation == "nan":
        parent[key] = math.nan
    elif mutation == "negative":
        parent[key] = draw(st.integers(max_value=-1) if isinstance(value, int) else
                           st.floats(max_value=-1e-9, allow_infinity=False))
    elif mutation == "empty":
        parent[key] = type(value)()
    else:
        parent[key] = draw(OUTSIDE)
    # a layer's shape is one literal: an item of it is reported as the shape
    if "shape" in path:
        path = path[: path.index("shape") + 1]
    return broken, f"{_name(path)} "


class TestEveryKey:
    """The artifacts, and a `repeat` output for `report`, are built once for
    the class."""

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("schemas")
        make = ["synth", "--seed", "7", "--scene-seed", "3"]
        assert main([*make, "--kind", "path", "--count", "2", "--out", str(root / "seq")]) == 0
        # a repeat sequence, so its manifest holds the optional `extra`
        assert main([*make, "--kind", "repeat", "--of", str(root / "seq"),
                     "--out", str(root / "sequence")]) == 0
        assert main(["teach", "--frames", str(root / "seq"), "--features", "analytic",
                     "--out", str(root / "map")]) == 0
        assert main([*make, "--kind", "pairs", "--count", "2", "--size", "32x24",
                     "--out", str(root / "pairs")]) == 0
        cfg = features.ExtractorConfig(channels=(2, 3, 4), window=8)
        features.save_checkpoint(root / "checkpoint", features.init_weights(cfg))
        assert main(["repeat", "--map", str(root / "map"), "--frames", str(root / "sequence"),
                     "--features", "analytic", "--out", str(root / "run")]) == 0
        out = ["--out", str(root / "out")]
        return root, {
            "map": ["repeat", "--map", str(root / "map"), "--frames", str(root / "seq"),
                    "--features", "analytic", *out],
            "sequence": ["teach", "--frames", str(root / "sequence"), "--features", "analytic",
                         *out],
            "pairs": ["train", "--data", str(root / "pairs"), "--channels", "2,3,4", *out],
            "checkpoint": ["teach", "--frames", str(root / "seq"), "--ckpt",
                           str(root / "checkpoint"), *out],
        }

    def run_every_case(self, artifacts, kind, capsys, draw):
        root, commands = artifacts
        directory = root / kind
        manifest_path = directory / storage.MANIFEST_NAME
        pristine = manifest_path.read_bytes()
        manifest = storage.read_json(manifest_path, {"kind": kind})
        LOADERS[kind](directory)  # the unbroken artifact loads
        cases = list(_cases(manifest))
        assert {mutation for _, mutation in cases} >= {
            "delete", "type", "nan", "negative", "empty", "outside"}
        try:
            for path, mutation in cases:
                broken, head = _mutate(manifest, path, mutation, draw)
                storage.write_manifest(directory, broken)
                capsys.readouterr()
                code = main(commands[kind])
                err = capsys.readouterr().err
                assert code == 3, (path, mutation, broken, err)
                assert err.startswith(f"error: data: {manifest_path}: {head}"), (
                    path, mutation, err)
        finally:
            manifest_path.write_bytes(pristine)

    # an example runs every case, so there is nothing to shrink
    @settings(max_examples=2, phases=[Phase.generate],
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    @pytest.mark.parametrize("kind", ["map", "sequence", "pairs", "checkpoint"])
    def test_every_key_broken_is_3_and_named(self, artifacts, kind, capsys, data):
        self.run_every_case(artifacts, kind, capsys, data.draw)

    @pytest.mark.parametrize("kind, edit, head", [
        ("checkpoint", lambda m: m.update(channels="2,3,4"), "channels '2,3,4' "),
        ("checkpoint", lambda m: m.update(layers=[1]), "layers [1] "),
        ("pairs", lambda m: m.update(camera=3), "camera 3 "),
        ("pairs", lambda m: m.update(samples=3), "samples 3 "),
        ("pairs", lambda m: m["samples"][0].update(pose=[1.0]), "samples[0].pose [1.0] "),
        ("pairs", lambda m: m["samples"][1].update(src_pose=[0.0, math.nan, 0.0]),
         "samples[1].src_pose[1] nan "),
        ("pairs", lambda m: m.update(image_size="24x32"), "image_size '24x32' "),
        ("sequence", lambda m: m.update(camera="x"), "camera 'x' "),
        ("sequence", lambda m: m["frames"][1].update(pose=[math.nan, 0.0, 0.0]),
         "frames[1].pose[0] nan "),
        ("sequence", lambda m: m.update(image_size=[-48, 64]), "image_size[0] -48 "),
        ("sequence", lambda m: m.update(frames=[]), "frames [] "),
        ("map", lambda m: m.update(camera="x"), "camera 'x' "),
        ("map", lambda m: m["vertices"][1].update(id="a"), "vertices[1].id 'a' "),
        ("map", lambda m: m["vertices"][0].update(world_pose=[10**400, 0.0, 0.0]),
         "vertices[0].world_pose[0] 1000"),
        ("map", lambda m: m["camera"].update(fu=-10**400), "camera.fu -1000"),
        # finite but absurd: these once ran to exit 0 with every frame failed
        ("map", lambda m: m["camera"].update(b=1e308), "camera.b 1e+308 "),
        ("map", lambda m: m["camera"].update(cu=1e308), "camera.cu 1e+308 "),
        ("map", lambda m: m["camera"].update(fu=1e-320), "camera.fu 1e-320 "),
        ("sequence", lambda m: m["camera"].update(cv=-2e6), "camera.cv -2000000.0 "),
        ("pairs", lambda m: m["camera"].update(fv=2e6), "camera.fv 2000000.0 "),
    ])
    def test_malformed_manifest_is_3_and_names_the_key(self, artifacts, capsys, kind, edit,
                                                       head):
        """Manifests that once ended in a traceback, ran to exit 0, or
        failed only by accident."""
        root, commands = artifacts
        manifest_path = root / kind / storage.MANIFEST_NAME
        pristine = manifest_path.read_bytes()
        manifest = storage.read_json(manifest_path, {"kind": kind})
        edit(manifest)
        storage.write_manifest(root / kind, manifest)
        try:
            capsys.readouterr()
            assert main(commands[kind]) == 3
            assert capsys.readouterr().err.startswith(f"error: data: {manifest_path}: {head}")
        finally:
            manifest_path.write_bytes(pristine)

    @pytest.mark.parametrize("name, edit, head", [
        ("summary.json", lambda m: m.pop("pose_rmse"), "lacks key 'pose_rmse'"),
        ("summary.json", lambda m: m.update(mean_inliers="x"), "mean_inliers 'x' "),
        ("summary.json", lambda m: m.update(failure_count=[1]), "failure_count [1] "),
        ("summary.json", lambda m: m.update(pose_rmse=math.nan), None),  # every frame failed
        ("run_manifest.json", lambda m: m.update(command="train"), "command 'train' "),
        ("run_manifest.json", lambda m: m.update(config=3), "config 3 "),
        ("run_manifest.json", lambda m: m.pop("config"), "lacks key 'config'"),
        # the labels of the run's condition matrix cell
        ("run_manifest.json", lambda m: m["config"].pop("teach_condition"),
         "config lacks key 'teach_condition'"),
        ("run_manifest.json", lambda m: m["config"].update(repeat_condition=3),
         "config.repeat_condition 3 "),
    ])
    def test_report_checks_its_run_files(self, artifacts, tmp_path, capsys, name, edit, head):
        root, _ = artifacts
        run = tmp_path / "run"
        run.mkdir()
        for path in (root / "run").iterdir():
            (run / path.name).write_bytes(path.read_bytes())
        value = storage.read_json(run / name, {})
        edit(value)
        storage.write_json(run / name, value)
        capsys.readouterr()
        code = main(["report", "--runs", str(run), "--out", str(tmp_path / "report")])
        if head is None:
            assert code == 0
        else:
            assert code == 3
            assert capsys.readouterr().err.startswith(f"error: data: {run / name}: {head}")


@pytest.mark.parametrize("width, height", [(1, 1), (32, 24), (64, 48), (1, 10**6), (10**6, 1)])
def test_every_default_camera_is_in_range(width, height):
    """The camera ranges hold every camera `default_intrinsics` writes, up
    to a million pixels a side."""
    K = synth.default_intrinsics(width, height)
    storage.check(dataclasses.asdict(K), synth.CAMERA_SCHEMA, "camera")
