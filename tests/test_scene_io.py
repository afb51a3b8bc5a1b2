"""On-disk formats: KITTI scan/label decoding, containers, synthetic scenes."""

import json
import math
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rapidfeat import (
    BoxPrimitive,
    ContractError,
    CylinderPrimitive,
    EmptySceneError,
    FormatError,
    LabelMismatchError,
    MalformedScanError,
    PlanePrimitive,
    PointCloud,
    RapidMatrix,
    RangeAwareConfig,
    ReflectivityScale,
    SensorGeometry,
    SyntheticSceneSpec,
    load_kitti_labels,
    load_kitti_scan,
    r_rapid,
    rapid,
    save_kitti_labels,
    save_kitti_scan,
    synthesize_scene,
)
from rapidfeat import scene_io
from rapidfeat.cli import EXIT_DATA, main
from rapidfeat.scene_io import (
    CONTAINER_VERSION,
    MAGIC,
    _PayloadBuilder,
    _matrix_record,
    _read_container,
    _write_container,
    load_feature_file,
    save_feature_file,
    write_pgm,
)

from conftest import (
    default_scene,
    feature_set,
    random_cloud,
    sealed,
    small_geometry,
    write_raw_container,
)
from oracles import JoinedPayload


class TestKittiScan:
    def test_two_point_decode(self, tmp_path):
        path = tmp_path / "scan.bin"
        path.write_bytes(struct.pack("<8f", 1, 2, 3, 0.5, 4, 5, 6, 0.25))
        cloud = load_kitti_scan(path)
        assert cloud.points.tolist() == [[1, 2, 3], [4, 5, 6]]
        assert cloud.remission.tolist() == [0.5, 0.25]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert len(load_kitti_scan(path)) == 0

    def test_misaligned_size_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(MalformedScanError):
            load_kitti_scan(path)

    def test_non_finite_reports_index(self, tmp_path):
        path = tmp_path / "nan.bin"
        path.write_bytes(struct.pack("<8f", 1, 2, 3, 0.5, np.nan, 5, 6, 0.25))
        with pytest.raises(MalformedScanError, match="1"):
            load_kitti_scan(path)

    def test_roundtrip(self, tmp_path, rng):
        cloud = PointCloud(
            points=rng.normal(size=(40, 3)).astype(np.float32).astype(np.float64),
            remission=rng.uniform(0, 1, 40).astype(np.float32).astype(np.float64),
        )
        path = tmp_path / "rt.bin"
        save_kitti_scan(cloud, path)
        loaded = load_kitti_scan(path)
        assert np.array_equal(loaded.points, cloud.points)
        assert np.array_equal(loaded.remission, cloud.remission)

    @settings(max_examples=40, deadline=None)
    @given(
        n_points=st.integers(0, 50),
        seed=st.integers(0, 2 ** 31),
        extra=st.integers(0, 15),
    )
    def test_decode_totality(self, n_points, seed, extra):
        # every 16-byte-aligned finite file decodes; every misaligned errors
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(seed)
        data = rng.uniform(-1e6, 1e6, size=(n_points, 4)).astype("<f4")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scan.bin"
            path.write_bytes(data.tobytes())
            cloud = load_kitti_scan(path)
            assert len(cloud) == n_points
            if extra:
                path.write_bytes(data.tobytes() + b"\x01" * extra)
                if extra % 16:
                    with pytest.raises(MalformedScanError):
                        load_kitti_scan(path)


class TestKittiLabels:
    def test_low_16_bits(self, tmp_path):
        path = tmp_path / "l.label"
        path.write_bytes(struct.pack("<2I", 0x00010009, 0))
        cloud = PointCloud(points=np.ones((2, 3)), remission=np.zeros(2))
        labeled = load_kitti_labels(path, cloud)
        assert labeled.label.tolist() == [9, 0]

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "l.label"
        path.write_bytes(struct.pack("<3I", 1, 2, 3))
        cloud = PointCloud(points=np.ones((2, 3)), remission=np.zeros(2))
        with pytest.raises(LabelMismatchError):
            load_kitti_labels(path, cloud)

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "rt.label"
        save_kitti_labels(np.array([3, 5, 250], dtype=np.int32), path)
        cloud = PointCloud(points=np.ones((3, 3)), remission=np.zeros(3))
        assert load_kitti_labels(path, cloud).label.tolist() == [3, 5, 250]


class TestSynthesizeScene:
    def test_zero_noise_plane_exact(self):
        spec = SyntheticSceneSpec(
            primitives=(
                PlanePrimitive((0, 0, -1.5), (1, 0, 0), (0, 1, 0), 10, 10, 200, 1, 0.5),
            ),
            noise_sigma=0.0,
            seed=42,
        )
        cloud = synthesize_scene(spec)
        assert np.all(cloud.points[:, 2] == -1.5)

    def test_determinism(self):
        a = synthesize_scene(default_scene(seed=9))
        b = synthesize_scene(default_scene(seed=9))
        assert a.points.tobytes() == b.points.tobytes()
        assert a.remission.tobytes() == b.remission.tobytes()
        assert a.label.tobytes() == b.label.tobytes()

    def test_different_seeds_differ(self):
        a = synthesize_scene(default_scene(seed=1))
        b = synthesize_scene(default_scene(seed=2))
        assert a.points.tobytes() != b.points.tobytes()

    def test_label_set_matches_primitives(self, scene_cloud):
        assert set(np.unique(scene_cloud.label)) == {1, 2, 3}

    def test_per_primitive_reflectivity(self, scene_cloud):
        assert set(np.unique(scene_cloud.remission)) == {0.2, 0.6, 0.9}

    def test_empty_scene_rejected(self):
        spec = SyntheticSceneSpec(primitives=(), noise_sigma=0.0, seed=0)
        with pytest.raises(EmptySceneError):
            synthesize_scene(spec)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PlanePrimitive((0, 0, 0), (1, 0, 0), (0, 1, 0), 1, -1, 10, 1, 0.5),
            lambda: PlanePrimitive((0, 0, 0), (1, 0, 0), (0, 1, 0), 1, 1, -1, 1, 0.5),
            lambda: PlanePrimitive((0, 0, 0), (1, 0, 0), (0, 1, 0), 1, 1, 10, 2**31, 0.5),
            lambda: PlanePrimitive((0, 0, 0), (1, 0, 0), (0, 1, 0), 1, 1, 2**61, 1, 0.5),
            lambda: BoxPrimitive((0, 0, 0), (1, math.nan, 1), 10, 1, 0.5),
            lambda: BoxPrimitive((0, 0, 0), (1, 0, 0), 10, 1, 0.5),
            lambda: CylinderPrimitive((0, 0, 0), -1, 1, 10, 1, 0.5),
            lambda: CylinderPrimitive((0, 0, 0), 1, math.nan, 10, 1, 0.5),
            lambda: SyntheticSceneSpec((), noise_sigma=math.nan),
        ],
        ids=[
            "extent", "count", "class-id", "count-2**61", "size-nan", "size-flat", "radius",
            "height-nan", "noise",
        ],
    )
    def test_primitive_out_of_range(self, make):
        # Each used to build, then fail in sampling or label casting, or for
        # the NaN noise to sample a noise-free cloud.
        with pytest.raises(ContractError):
            make()


def random_matrix(rng, u, k, roi="ring000-close", first=0):
    """A u x k matrix of float32-exact sorted values, anchored to points
    first .. first + u - 1 in random order."""
    values = np.sort(rng.uniform(0, 1, size=(u, k)).astype(np.float32), axis=1)
    values = values[np.lexsort(values[:, ::-1].T)].astype(np.float64)
    return RapidMatrix(
        values=values,
        roi_id=roi,
        k=k,
        scale=ReflectivityScale(
            float(rng.uniform(0, 0.5)),
            float(rng.uniform(0.5, 1)),
            float(rng.uniform(0, 1)),
            float(rng.uniform(1, 2)),
        ),
        anchors=first + rng.permutation(u).astype(np.int64),
    )


class TestFeatureContainer:
    def test_roundtrip_field_by_field(self, tmp_path, rng):
        mats = [random_matrix(rng, 12, 4), random_matrix(rng, 7, 6, "ring001-far", first=12)]
        path = tmp_path / "f.rapd"
        save_feature_file(path, feature_set(mats), {})
        loaded = load_feature_file(path).matrices
        assert len(loaded) == 2
        for a, b in zip(mats, loaded):
            assert np.array_equal(a.values, b.values)  # f32-representable
            assert np.array_equal(a.anchors, b.anchors)
            assert a.roi_id == b.roi_id and a.k == b.k and a.scale == b.scale

    def test_run_records_not_stored(self, tmp_path, rng):
        # seconds and the outlier count describe the rapid() call, not the matrix.
        cloud = random_cloud(rng, 60, spread=8.0)
        mat = rapid(np.arange(60), cloud, k=5, delta=0.8)
        save_feature_file(tmp_path / "a.rapd", feature_set([mat]), {})
        bare = replace(mat, seconds=(), outliers=None)
        save_feature_file(tmp_path / "b.rapd", feature_set([bare]), {})
        assert (tmp_path / "a.rapd").read_bytes() == (tmp_path / "b.rapd").read_bytes()
        loaded = load_feature_file(tmp_path / "a.rapd").matrices[0]
        assert mat.outliers > 0 and (loaded.seconds, loaded.outliers) == ((), None)

    @settings(max_examples=25, deadline=None)
    @given(n_mats=st.integers(0, 4), seed=st.integers(0, 2 ** 31))
    def test_roundtrip_property(self, n_mats, seed):
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(seed)
        mats, first = [], 0
        for i in range(n_mats):
            u, k = int(rng.integers(1, 20)), int(rng.integers(1, 8))
            mats.append(random_matrix(rng, u, k, roi=f"ring{i:03d}-mid", first=first))
            first += u
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.rapd"
            save_feature_file(path, feature_set(mats), {})
            loaded = load_feature_file(path).matrices
        assert len(loaded) == n_mats
        for a, b in zip(mats, loaded):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.anchors, b.anchors)
            assert (a.roi_id, a.k, a.scale) == (b.roi_id, b.k, b.scale)

    def test_empty_sequence(self, tmp_path):
        path = tmp_path / "empty.rapd"
        save_feature_file(path, feature_set([]), {})
        assert load_feature_file(path).matrices == ()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.rapd"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_feature_file(path)

    def test_kind_mismatch(self, tmp_path, capsys):
        # A weight file, a kind no command writes or reads, is a data error.
        path = tmp_path / "w.rapd"
        builder = _PayloadBuilder()
        data = builder.add(np.ones(3), "<f8")
        record = {"type": "tensor", "name": "t", "arrays": {"data": data}}
        _write_container(path, {"kind": "weights", "meta": {}, "records": [record]}, builder)
        with pytest.raises(FormatError, match="container holds 'weights'"):
            load_feature_file(path)
        argv = ["heatmap", str(path), "--roi", "t", "--out", str(tmp_path / "i.pgm")]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unknown_version(self, tmp_path, rng):
        path = tmp_path / "v9.rapd"
        save_feature_file(path, feature_set([random_matrix(rng, 3, 2)]), {})
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_feature_file(path)

    def test_truncated_payload(self, tmp_path, rng):
        # Resealed, so that the array bounds check, not the checksum, stops it.
        path = tmp_path / "trunc.rapd"
        save_feature_file(path, feature_set([random_matrix(rng, 8, 4)]), {})
        raw = path.read_bytes()
        path.write_bytes(sealed(raw[: len(raw) - 4 - 10]))
        with pytest.raises(FormatError, match="truncated payload"):
            load_feature_file(path)

    def test_record_missing_keys(self, tmp_path, rng):
        path = tmp_path / "m.rapd"
        save_feature_file(path, feature_set([random_matrix(rng, 3, 2)]), {})
        header, payload = _read_container(path)
        good, pointwise = header["records"]
        bad_records = [
            {k: v for k, v in good.items() if k != "type"},
            {k: v for k, v in good.items() if k != "k"},
            {**good, "scale": {"r_min": 0.0}},
            {**good, "arrays": "values"},
            {**good, "type": ["matrix"]},
            {"type": "pointwise", "arrays": {"values": good["arrays"]["values"]}},
            {"type": "tensor", "name": "t", "arrays": {"data": good["arrays"]["values"]}},
            ["matrix"],
        ]
        for rec in bad_records:
            write_raw_container(path, {**header, "records": [rec, pointwise]}, payload)
            with pytest.raises(FormatError):
                load_feature_file(path)

    def test_malformed_header(self, tmp_path, rng):
        path = tmp_path / "h.rapd"
        save_feature_file(path, feature_set([random_matrix(rng, 3, 2)]), {})
        header, payload = _read_container(path)
        for bad in ([], "rapid-features", 3, None):
            write_raw_container(path, bad, payload)
            with pytest.raises(FormatError):
                load_feature_file(path)
        for records in (5, "matrix", {"type": "matrix"}):
            write_raw_container(path, {**header, "records": records}, payload)
            with pytest.raises(FormatError):
                load_feature_file(path)

    def test_integer_of_too_many_digits_in_header(self, tmp_path, rng):
        # json refuses an integer of more than 4300 digits with a ValueError
        # that is not a JSONDecodeError; it used to escape load_feature_file.
        path = tmp_path / "n.rapd"
        save_feature_file(path, feature_set([random_matrix(rng, 3, 2)]), {})
        header, payload = _read_container(path)
        head = json.dumps({**header, "records": [{**header["records"][0], "k": 0}]})
        head = head.replace('"k": 0', '"k": ' + "9" * 5000).encode()
        start = MAGIC + struct.pack("<II", CONTAINER_VERSION, len(head))
        path.write_bytes(sealed(start + head + payload))
        with pytest.raises(FormatError, match="corrupt header"):
            load_feature_file(path)

    def test_malformed_array_descriptor(self, tmp_path, rng):
        path = tmp_path / "d.rapd"
        save_feature_file(path, feature_set([random_matrix(rng, 3, 2)]), {})
        header, payload = _read_container(path)
        rec, pointwise = header["records"]
        desc = rec["arrays"]["values"]
        bad_descriptors = [
            {**desc, "dtype": "bogus"},
            {**desc, "dtype": "|O"},
            {**desc, "dtype": None},
            {k: v for k, v in desc.items() if k != "dtype"},
            {**desc, "offset": -16},
            {**desc, "offset": 1.5},
            {**desc, "offset": "0"},
            {**desc, "offset": True},
            {**desc, "shape": [3, -2]},
            {**desc, "shape": [3.0, 2]},
            {**desc, "shape": "3x2"},
            {**desc, "shape": [2 ** 62, 2 ** 62]},
            {**desc, "shape": [0, 2 ** 63]},
            {**desc, "shape": [0] * 65},
            [desc],
        ]
        for bad in bad_descriptors:
            arrays = {**rec["arrays"], "values": bad}
            records = [{**rec, "arrays": arrays}, pointwise]
            write_raw_container(path, {**header, "records": records}, payload)
            with pytest.raises(FormatError):
                load_feature_file(path)

    def test_pointwise_record_roundtrip(self, tmp_path, scene_cloud):
        from rapidfeat import RangeAwareConfig, r_rapid

        fs = r_rapid(scene_cloud, small_geometry(), RangeAwareConfig(k_close=5, k_mid=4, k_far=3))
        path = tmp_path / "full.rapd"
        save_feature_file(path, fs, {"k": [5, 4, 3]})
        loaded = load_feature_file(path)
        assert loaded.meta == {"k": [5, 4, 3]}
        assert len(loaded.matrices) == len(fs.matrices)
        assert np.array_equal(
            loaded.pointwise.values, fs.values.astype(np.float32).astype(np.float64)
        )
        assert np.array_equal(loaded.pointwise.roi, fs.roi)
        assert np.array_equal(loaded.pointwise.valid_width, fs.valid_width)

    def test_decoded_matrices_carry_no_seconds(self, tmp_path, scene_cloud):
        fs = r_rapid(scene_cloud, small_geometry(), RangeAwareConfig(k_close=5, k_mid=4, k_far=3))
        path = tmp_path / "s.rapd"
        save_feature_file(path, fs, {})
        assert all(len(m.seconds) == 3 for m in fs.matrices)
        loaded = load_feature_file(path)
        assert loaded.matrices
        assert all(m.seconds == () for m in loaded.matrices)
        assert all(m.seconds == () for m in loaded.pointwise.matrices)


def _pointwise_file(path, anchors: list, k: int, width: int, points: int = 6) -> None:
    """A feature file whose pointwise record holds points roi ids and width,
    over one k-column matrix of values 1/16, 2/16, ... per anchor list,
    written by the writer as it is: the set is duck-typed, so nothing checks
    it before the loader does."""
    scale = ReflectivityScale(0.0, 1.0, 0.0, 1.0)
    matrices = [
        RapidMatrix(
            np.arange(1, len(a) * k + 1).reshape(len(a), k) / 16,
            f"ring00{i}-close", k, scale, np.array(a),
        )
        for i, a in enumerate(anchors)
    ]
    roi = np.zeros(points, dtype=np.int32)
    save_feature_file(path, SimpleNamespace(roi=roi, width=width, matrices=matrices), {})


def _rejected(path, match: str, tmp_path, capsys) -> None:
    """path is a FormatError matching match, and heatmap on it exits 2 with
    one error line and no traceback."""
    with pytest.raises(FormatError, match=match):
        load_feature_file(path)
    argv = ["heatmap", str(path), "--roi", "ring000-close", "--out", str(tmp_path / "i.pgm")]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


class TestDecodedValues:
    """A decoded matrix holds what rapid() writes: values finite, in [0, 1]
    and ascending within each row. A file holding others is a data error."""

    @pytest.mark.parametrize(
        "column, value, match",
        [
            (1, np.nan, r"values must be finite and in \[0, 1\]"),
            (2, 2.5, r"values must be finite and in \[0, 1\]"),
            (0, -1.0, r"values must be finite and in \[0, 1\]"),
            (None, None, "values must ascend within each row"),
        ],
        ids=["nan", "above-1", "below-0", "reversed-row"],
    )
    def test_values_rapid_never_writes(self, tmp_path, capsys, rng, column, value, match):
        # Each case breaks one rule only: the out-of-range values keep their
        # row ascending, and the reversed row stays in [0, 1].
        mat = random_matrix(rng, 6, 3)
        values = mat.values.copy()
        if column is None:
            values[2] = values[2, ::-1]
        else:
            values[2, column] = value
        path = tmp_path / "bad.rapd"
        save_feature_file(path, feature_set([replace(mat, values=values)]), {})
        _rejected(path, match, tmp_path, capsys)


class TestPointwiseRecord:
    """The pointwise record holds roi ids and a width; its rows are derived
    from the matrices, so a record the derivation cannot place is a data
    error, exit 2. Every file holds exactly one such record."""

    def test_no_pointwise_record(self, tmp_path, capsys, rng):
        builder = _PayloadBuilder()
        records = [_matrix_record(builder, random_matrix(rng, 3, 2))]
        path = tmp_path / "bare.rapd"
        _write_container(path, {"kind": "rapid-features", "meta": {}, "records": records}, builder)
        _rejected(path, "no pointwise record", tmp_path, capsys)

    def test_old_layout(self, tmp_path, capsys):
        # The layout that stored the rows as values and valid_width arrays.
        fs = r_rapid(
            PointCloud(np.random.default_rng(4).uniform(2, 30, (40, 3)), np.full(40, 0.5)),
            SensorGeometry(2, 0.1),
            RangeAwareConfig(k_close=3, k_mid=3, k_far=2),
        )
        builder = _PayloadBuilder()
        records = [_matrix_record(builder, m) for m in fs.matrices]
        arrays = {
            "values": builder.add(fs.values, "<f4"),
            "roi": builder.add(fs.roi, "<i4"),
            "valid_width": builder.add(fs.valid_width, "<i4"),
        }
        records.append({"type": "pointwise", "arrays": arrays})
        path = tmp_path / "old.rapd"
        _write_container(path, {"kind": "rapid-features", "meta": {}, "records": records}, builder)
        _rejected(path, r"records\[\d+\]\.width is missing", tmp_path, capsys)

    @pytest.mark.parametrize(
        "anchors, k, width, match",
        [
            ([[0, 1, 2], [2, 3, 4]], 2, 2, "anchors rows of two matrices"),
            ([[0, 1, 6]], 2, 2, r"anchors must lie in \[0, 6\)"),
            ([[-1, 0, 1]], 2, 2, r"anchors must lie in \[0, 6\)"),
            ([[0, 1, 2]], 3, 2, "at least every k"),
            ([[0, 1, 2]], 2, 0, r"must be in \[1, 2\^31\)"),
            ([[0, 1, 2]], 2, 2**31, r"must be in \[1, 2\^31\)"),
        ],
        ids=["overlap", "past-roi", "negative", "k-above-width", "width-0", "width-2^31"],
    )
    def test_record_the_rows_cannot_come_from(
        self, tmp_path, capsys, anchors, k, width, match
    ):
        path = tmp_path / "bad.rapd"
        _pointwise_file(path, anchors, k, width)
        _rejected(path, match, tmp_path, capsys)

    def test_disjoint_record_loads(self, tmp_path):
        path = tmp_path / "good.rapd"
        _pointwise_file(path, [[0, 1, 2], [5, 4]], 2, 3)
        pw = load_feature_file(path).pointwise
        assert pw.width == 3 and pw.valid_width.tolist() == [2, 2, 2, 0, 2, 2]
        expected = np.array([[1, 2, 16], [3, 4, 16], [5, 6, 16], [16] * 3, [3, 4, 16], [1, 2, 16]])
        assert np.array_equal(pw.values, expected / 16)


def _container_bytes(directory) -> bytes:
    """The bytes of f.rapd, a feature file with matrices and a pointwise record."""
    rng = np.random.default_rng(5)
    cloud = PointCloud(points=rng.uniform(2, 30, (40, 3)), remission=rng.uniform(0, 1, 40))
    fs = r_rapid(cloud, SensorGeometry(2, 0.1), RangeAwareConfig(k_close=3, k_mid=3, k_far=2))
    save_feature_file(directory / "f.rapd", fs, {"k": [3, 3, 2]})
    return (directory / "f.rapd").read_bytes()


# Bytes that keep a rewritten JSON header close to parseable.
_JSON_BYTES = st.sampled_from(list(b'0123456789-+.eE[]{}",: tfn'))


@st.composite
def _mutated(draw, raw: bytes) -> bytes:
    """raw truncated, or with bits flipped or header bytes rewritten and then
    resealed, so that the checks behind the checksum see the change."""
    out = bytearray(raw)
    kind = draw(st.sampled_from(["truncate", "flip", "rewrite"]))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        spots = st.tuples(st.integers(0, len(raw) - 5), st.integers(0, 7))
        for pos, bit in draw(st.lists(spots, min_size=1, max_size=4)):
            out[pos] ^= 1 << bit
        return sealed(bytes(out[:-4]))
    head_end = 12 + struct.unpack("<I", raw[8:12])[0]
    byte = st.one_of(_JSON_BYTES, st.integers(0, 255))
    for pos, value in draw(
        st.lists(st.tuples(st.integers(12, head_end - 1), byte), min_size=1, max_size=4)
    ):
        out[pos] = value
    return sealed(bytes(out[:-4]))


@st.composite
def _damaged(draw, raw: bytes) -> bytes:
    """raw truncated, or with one to three distinct bits flipped anywhere,
    the trailer included, and not resealed."""
    if draw(st.booleans()):
        return raw[: draw(st.integers(0, len(raw) - 1))]
    out = bytearray(raw)
    spots = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 7))
    for pos, bit in draw(st.lists(spots, min_size=1, max_size=3, unique=True)):
        out[pos] ^= 1 << bit
    return bytes(out)


class TestContainerFuzz:
    """Every mutated container ends in FormatError or a valid load."""

    @pytest.fixture(scope="class")
    def originals(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("fuzz")
        return directory, _container_bytes(directory)

    @staticmethod
    def _load(loader, directory, raw: bytes) -> None:
        path = directory / "mutated.rapd"
        path.write_bytes(raw)
        try:
            loader(path)
        except FormatError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_feature_file(self, originals, data):
        directory, raw = originals
        self._load(load_feature_file, directory, data.draw(_mutated(raw)))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_unsealed_damage_is_format_error(self, originals, data):
        # CRC-32 detects every error of up to three bits in a message under
        # 91,607 bits (Koopman, DSN 2002), and a truncated file reads its
        # last four bytes as the trailer.
        directory, raw = originals
        assert 8 * len(raw) < 91_607
        path = directory / "damaged.rapd"
        path.write_bytes(data.draw(_damaged(raw)))
        with pytest.raises(FormatError):
            load_feature_file(path)

    def test_pointwise_length_mismatch(self, tmp_path):
        # A header edit shortening the roi array: found by fuzzing, it used
        # to escape as ContractError.
        raw = _container_bytes(tmp_path)
        path = tmp_path / "f.rapd"
        header, payload = _read_container(path)
        header["records"][-1]["arrays"]["roi"]["shape"] = [39]
        write_raw_container(path, header, payload)
        with pytest.raises(FormatError):
            load_feature_file(path)
        path.write_bytes(raw)
        assert len(load_feature_file(path).pointwise.roi) == 40

    def test_second_pointwise_record(self, tmp_path):
        # A repeated pointwise record whose valid_width points at the roi
        # bytes: it used to load, the last record winning.
        _container_bytes(tmp_path)
        path = tmp_path / "f.rapd"
        header, payload = _read_container(path)
        first = header["records"][-1]
        arrays = {**first["arrays"], "valid_width": first["arrays"]["roi"]}
        header["records"].append({**first, "arrays": arrays})
        write_raw_container(path, header, payload)
        with pytest.raises(FormatError, match="more than one pointwise record"):
            load_feature_file(path)

    @pytest.mark.parametrize(
        "record, array, dtype",
        [
            ("matrix", "values", "<i4"),
            ("matrix", "anchors", "<f8"),
            ("pointwise", "roi", "<f4"),
        ],
    )
    def test_array_of_another_dtype(self, tmp_path, record, array, dtype):
        # A dtype of the same item size keeps the payload bounds, so only the
        # dtype check stops the bits being reinterpreted and cast (int roi
        # ids read as floats cast to 0).
        _container_bytes(tmp_path)
        path = tmp_path / "f.rapd"
        header, payload = _read_container(path)
        rec = next(r for r in header["records"] if r["type"] == record)
        rec["arrays"][array]["dtype"] = dtype
        write_raw_container(path, header, payload)
        with pytest.raises(FormatError, match="dtype"):
            load_feature_file(path)
        roi = next(r["roi_id"] for r in header["records"] if r["type"] == "matrix")
        argv = ["heatmap", str(path), "--roi", roi, "--out", str(tmp_path / "i.pgm")]
        assert main(argv) == EXIT_DATA


class TestContainerBytes:
    """The writer streams each converted array to the file; the bytes equal
    those of a payload joined in memory first, and decoding then encoding a
    file gives it back byte for byte."""

    def test_streamed_equals_joined(self, tmp_path, monkeypatch):
        streamed = _container_bytes(tmp_path)
        monkeypatch.setattr(scene_io, "_PayloadBuilder", JoinedPayload)
        assert _container_bytes(tmp_path) == streamed

    def test_decode_encode_round_trip(self, tmp_path):
        raw = _container_bytes(tmp_path)
        f = load_feature_file(tmp_path / "f.rapd")
        save_feature_file(tmp_path / "f2.rapd", f.pointwise, f.meta)
        assert (tmp_path / "f2.rapd").read_bytes() == raw


class TestPgm:
    def test_header_and_payload(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(np.array([[0.0, 1.0], [0.5, 1.0], [0.25, 0.75]]), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 3\n255\n")
        pixels = raw.split(b"255\n", 1)[1]
        assert list(pixels) == [0, 255, 128, 255, 64, 191]

    def test_all_ones_is_white(self, tmp_path):
        path = tmp_path / "white.pgm"
        write_pgm(np.ones((4, 3)), path)
        pixels = path.read_bytes().split(b"255\n", 1)[1]
        assert set(pixels) == {255}
