"""Command-line surface: config handling, commands, exit codes."""

import json
import math
import os
import re

import numpy as np
import pytest

from rapidfeat import (
    BoxPrimitive,
    ConfusionMatrix,
    ContractError,
    PointCloud,
    RangeAwareConfig,
    RunConfig,
    SensorGeometry,
    accumulate,
    miou,
    partition,
    save_kitti_labels,
    save_kitti_scan,
)
from rapidfeat import cli, metrics
from rapidfeat.cli import EXIT_DATA, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, main
from rapidfeat.scene_io import load_feature_file, save_feature_file

from conftest import feature_set, write_raw_container
from test_output_digests import README_CONFIG


SCENE = {
    "seed": 11,
    "noise_sigma": 0.02,
    "primitives": [
        {
            "type": "plane",
            "origin": [0, 0, -1.5],
            "u_axis": [1, 0, 0],
            "v_axis": [0, 1, 0],
            "extent_u": 14,
            "extent_v": 14,
            "count": 2200,
            "class_id": 1,
            "reflectivity": 0.2,
        },
        {
            "type": "box",
            "center": [8, 3, 0],
            "size": [4, 2, 1.6],
            "count": 600,
            "class_id": 2,
            "reflectivity": 0.6,
        },
    ],
}


def _scene_with(index, **fields):
    """SCENE with fields of primitive index replaced; a None value drops the field."""
    prims = [dict(p) for p in SCENE["primitives"]]
    prims[index].update(fields)
    prims[index] = {k: v for k, v in prims[index].items() if v is not None}
    return {**SCENE, "primitives": prims}


def _with_descriptor(header, **fields):
    """Header whose first record's values descriptor has fields replaced."""
    rec, *rest = header["records"]
    values = {**rec["arrays"]["values"], **fields}
    arrays = {**rec["arrays"], "values": values}
    return {**header, "records": [{**rec, "arrays": arrays}, *rest]}


def _with_field(header, **fields):
    """Header whose first record has fields replaced."""
    rec, *rest = header["records"]
    return {**header, "records": [{**rec, **fields}, *rest]}


def _die_in_helper(task):
    """A region job whose pool helper dies, as when the OOM killer ends it."""
    os._exit(1)


@pytest.fixture
def config_file(tmp_path):
    def write(**extra):
        doc = {
            "input": {"synthetic": SCENE},
            "output": {"features": str(tmp_path / "r.rapd")},
            "sensor": {"beam_count": 16, "vertical_fov_deg": [-10, 10]},
        }
        for key, value in extra.items():
            if isinstance(value, dict) and isinstance(doc.get(key), dict):
                doc[key].update(value)
            else:
                doc[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    return write


class TestRunConfig:
    def test_defaults_without_file(self):
        config = RunConfig.load(None)
        assert config.rapid.ks == (10, 7, 5)
        assert config.rapid.band_edges == (20.0, 50.0)
        assert config.rapid.delta == 2.0
        assert config.workers == 1
        assert vars(config) == {
            "scan": None,
            "labels": None,
            "synthetic": None,
            "features_out": "r_rapid.rapd",
            "class_features_out": None,
            "sensor": SensorGeometry.from_fov(64, (-24.8, 2.0)),
            "vertical_fov_deg": (-24.8, 2.0),
            "rapid": RangeAwareConfig((20.0, 50.0), k_close=10, k_mid=7, k_far=5, delta=2.0),
            "eval_num_classes": 20,
            "eval_ignore": (0,),
            "workers": 1,
            "seed": 0,
        }

    def test_integer_reads_as_float(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"rapid": {"band_edges": [15, 40], "delta": 1}}))
        c = RunConfig.load(str(path))
        assert repr((c.rapid.band_edges, c.rapid.delta)) == "((15.0, 40.0), 1.0)"

    def test_scene_is_read_at_load(self, config_file):
        spec = RunConfig.load(str(config_file())).synthetic
        assert spec.primitives[1] == BoxPrimitive((8.0, 3.0, 0.0), (4.0, 2.0, 1.6), 600, 2, 0.6)
        assert (spec.noise_sigma, spec.seed) == (0.02, 11)

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"rapid": {"k_close": 8, "k_mid": 6, "k_far": 3}}))
        config = RunConfig.load(str(path))
        assert config.rapid.ks == (8, 6, 3)
        assert config.rapid.delta == 2.0  # untouched default

    def test_flag_overrides_beat_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"workers": 2}))
        config = RunConfig.load(str(path), {"workers": 4})
        assert config.workers == 4

    def test_every_pipeline_hyperparameter_settable(self, tmp_path):
        doc = {
            "rapid": {
                "k_close": 9,
                "k_mid": 6,
                "k_far": 4,
                "band_edges": [15.0, 40.0],
                "delta": 1.5,
            },
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        c = RunConfig.load(str(path))
        assert c.rapid.band_edges == (15.0, 40.0) and c.rapid.delta == 1.5

    def test_unread_sections_ignored(self, config_file, tmp_path):
        plain_path = config_file()
        plain_sensor = RunConfig.load(str(plain_path)).sensor
        main(["extract", "--config", str(plain_path)])
        plain = (tmp_path / "r.rapd").read_bytes()
        # A synthetic scene holds no sensor pose; older configs set one.
        pose = {"rotation": [[0, -1, 0], [1, 0, 0], [0, 0, 1]], "translation": [1, 2, 3]}
        path = config_file(
            input={"synthetic": {**SCENE, "pose": pose}},
            voxel_size=0.4,
            embedding={"latents": 2, "width": 8, "reduced": 4, "stages": 1},
            fusion={"ratio": 2},
            loss={"alpha": 0.3, "lambda": 0.2, "sim": "dot"},
            sensor={"measurements_per_cycle": 90, "delta_theta": 0.5, "delta_phi": 0.01},
        )
        config = RunConfig.load(str(path))
        assert config.rapid.ks == (10, 7, 5) and config.sensor == plain_sensor
        assert config.synthetic == RunConfig.load(str(plain_path)).synthetic
        assert main(["extract", "--config", str(path)]) == EXIT_OK
        assert (tmp_path / "r.rapd").read_bytes() == plain

    @pytest.mark.parametrize(
        "beams, fov",
        [(64, (-24.8, 2.0)), (32, (-30.67, 10.67)), (16, (-10, 10))],
        ids=["64-beam", "32-beam", "readme"],
    )
    def test_sensor_is_from_fov(self, tmp_path, beams, fov):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"sensor": {"beam_count": beams, "vertical_fov_deg": fov}}))
        assert RunConfig.load(str(path)).sensor == SensorGeometry.from_fov(beams, fov)

    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param({"input": {"synthetic": {**SCENE, "noise_sigma": -1}}}, id="noise"),
            pytest.param({"input": {"synthetic": {**SCENE, "seed": -1}}}, id="scene-seed"),
            pytest.param({"input": {"synthetic": _scene_with(0, reflectivity=None)}}, id="refl"),
            pytest.param({"input": {"synthetic": _scene_with(0, count=-3)}}, id="count"),
            pytest.param({"input": {"synthetic": _scene_with(1, center=[8, 3])}}, id="center"),
            pytest.param({"sensor": {"vertical_fov_deg": [1, 2, 3]}}, id="fov"),
            pytest.param({"rapid": {"band_edges": [20]}}, id="band-edges"),
            pytest.param({"workers": "two"}, id="workers"),
            pytest.param({"rapid": {"k_close": "ten"}}, id="k-close"),
            pytest.param({"sensor": {"beam_count": 0}}, id="beam-count"),
            pytest.param({"input": {"synthetic": [1, 2]}}, id="synthetic-list"),
            pytest.param({"rapid": 5}, id="rapid-number"),
            pytest.param({"seed": -1}, id="seed"),
            pytest.param({"input": {"synthetic": None, "scan": 3}}, id="scan-path"),
            pytest.param({"output": {"features": [1]}}, id="features-path"),
            pytest.param({"sensor": {"vertical_fov_deg": [math.nan, 10]}}, id="fov-nan"),
            pytest.param({"sensor": {"vertical_fov_deg": [-10, math.inf]}}, id="fov-inf"),
            pytest.param({"rapid": {"delta": math.nan}}, id="delta-nan"),
            pytest.param({"rapid": {"k_close": "10"}}, id="k-close-string"),
            pytest.param({"rapid": {"delta": "2"}}, id="delta-string"),
            pytest.param({"eval": {"ignore": ["0"]}}, id="ignore-string"),
            pytest.param({"rapid": {"band_edges": ["20", "50"]}}, id="band-edges-string"),
            pytest.param({"sensor": {"beam_count": True}}, id="beam-count-bool"),
            pytest.param({"seed": True}, id="seed-bool"),
            pytest.param({"sensor": {"vertical_fov_deg": [True, 10]}}, id="fov-bool"),
            pytest.param({"sensor": {"beam_count": 16.9}}, id="beam-count-fraction"),
            pytest.param({"workers": 2.7}, id="workers-fraction"),
            pytest.param({"eval": {"num_classes": 20.0}}, id="num-classes-float"),
            pytest.param({"workers": 0}, id="workers-zero"),
            pytest.param({"workers": -3}, id="workers-negative"),
            pytest.param({"output": {"features": None}}, id="features-null"),
            pytest.param({"input": {"synthetic": _scene_with(0, count="900")}}, id="count-string"),
            pytest.param({"input": {"synthetic": _scene_with(0, count=900.7)}}, id="count-fraction"),
            pytest.param({"input": {"synthetic": _scene_with(1, class_id="1")}}, id="class-string"),
            pytest.param(
                {"input": {"synthetic": _scene_with(0, origin=["0", "0", "1"])}}, id="origin-string"
            ),
            pytest.param({"input": {"synthetic": {**SCENE, "seed": 2.9}}}, id="scene-seed-fraction"),
            pytest.param({"input": {"synthetic": {**SCENE, "noise_sigma": "0.1"}}}, id="noise-string"),
            pytest.param({"input": {"synthetic": _scene_with(0, type=["plane"])}}, id="type-list"),
            pytest.param({"input": {"synthetic": {**SCENE, "noise_sigma": math.nan}}}, id="noise-nan"),
            pytest.param({"rapid": {"delta": 1e400}}, id="delta-1e400"),
            pytest.param({"rapid": {"delta": 10**400}}, id="delta-400-digits"),
            pytest.param({"sensor": {"beam_count": 10**400}}, id="beam-count-400-digits"),
            pytest.param({"rapid": {"band_edges": [20, math.inf]}}, id="band-edge-inf"),
            pytest.param({"input": {"synthetic": _scene_with(0, extent_u=math.nan)}}, id="extent-nan"),
            pytest.param({"input": {"synthetic": _scene_with(0, extent_u=-15)}}, id="extent-negative"),
            pytest.param({"input": {"synthetic": _scene_with(1, size=[0, 0, 0])}}, id="size-zero"),
            pytest.param({"input": {"synthetic": _scene_with(1, size=[-4, 2, 1.6])}}, id="size-negative"),
            pytest.param({"input": {"synthetic": _scene_with(1, class_id=2**40)}}, id="class-2**40"),
            pytest.param({"input": {"synthetic": _scene_with(0, count=10**18)}}, id="count-10**18"),
            pytest.param({"input": {"synthetic": _scene_with(0, count=2**61)}}, id="count-2**61"),
            pytest.param({"rapid": {"k_close": 2**70}}, id="k-close-2**70"),
        ],
    )
    def test_malformed_value_is_data_error(self, config_file, capsys, extra):
        # Each used to end in a traceback (ValueError, TypeError,
        # ZeroDivisionError or AttributeError), or in the seed, NaN and
        # infinity cases to run; every case from k-close-string on except
        # type-list used to run too, its value coerced or, for
        # features-null, to end in a TypeError traceback. From noise-nan on,
        # the NaN noise, the infinite delta and band edge ran too; the rest
        # ended in an OverflowError, ValueError or MemoryError traceback.
        assert main(["extract", "--config", str(config_file(**extra))]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "extra, flags",
        [
            pytest.param({"output": {"features": "a\0b.rapd"}}, [], id="features"),
            pytest.param({"output": {"class_features": "c\0.rapd"}}, [], id="class-features"),
            pytest.param({"input": {"scan": "s\0.bin"}}, [], id="scan"),
            pytest.param({"input": {"labels": "l\0.label"}}, [], id="labels"),
            pytest.param({}, ["--out", "a\0b.rapd"], id="out-flag"),
            pytest.param({}, ["--class-out", "c\0.rapd"], id="class-out-flag"),
            pytest.param({}, ["--scan", "s\0.bin"], id="scan-flag"),
            pytest.param({}, ["--labels", "l\0.label"], id="labels-flag"),
        ],
    )
    def test_nul_in_a_path_is_data_error_before_any_work(
        self, config_file, monkeypatch, capsys, extra, flags
    ):
        # A NUL in output.features used to end, after R was computed, in
        # scene_io's "ValueError: embedded null byte" traceback (exit 1).
        monkeypatch.setattr(cli, "_load_cloud", lambda config: pytest.fail("loaded the scan"))
        argv = ["extract", "--config", str(config_file(**extra)), *flags]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "NUL" in err and len(err.splitlines()) == 1

    def test_workers_flag_zero_is_data_error(self, config_file, capsys):
        # --workers 0 used to be dropped, so the config's worker count ran.
        assert main(["extract", "--config", str(config_file()), "--workers", "0"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_integer_of_too_many_digits_is_data_error(self, config_file, capsys):
        # json refuses an integer of more than 4300 digits with a ValueError
        # that is not a JSONDecodeError; it used to end in a traceback.
        path = config_file(rapid={"delta": 0})
        path.write_text(path.read_text().replace('"delta": 0', '"delta": ' + "9" * 5000))
        assert main(["extract", "--config", str(path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ContractError):
            RunConfig.load(str(path))


class TestExtract:
    def test_row_count_equals_point_count(self, config_file, tmp_path):
        assert main(["extract", "--config", str(config_file())]) == EXIT_OK
        out = load_feature_file(tmp_path / "r.rapd")
        assert len(out.pointwise.values) == 2800
        assert out.meta["k"] == [10, 7, 5]

    def test_meta_names_the_settings_the_bytes_depend_on(self, config_file, tmp_path):
        # The field of view sets every ring id; the top-level seed is read
        # by check-invariance only, and a synthetic scene has its own.
        assert main(["extract", "--config", str(config_file(seed=3))]) == EXIT_OK
        assert load_feature_file(tmp_path / "r.rapd").meta == {
            "k": [10, 7, 5],
            "band_edges": [20.0, 50.0],
            "delta": 2.0,
            "beam_count": 16,
            "vertical_fov_deg": [-10.0, 10.0],
        }

    def test_byte_identical_reruns(self, config_file, tmp_path):
        path = config_file()
        main(["extract", "--config", str(path)])
        first = (tmp_path / "r.rapd").read_bytes()
        main(["extract", "--config", str(path)])
        assert (tmp_path / "r.rapd").read_bytes() == first

    def test_no_class_output_by_default(self, config_file, tmp_path):
        main(["extract", "--config", str(config_file())])
        assert not (tmp_path / "c.rapd").exists()

    def test_class_output_when_requested(self, config_file, tmp_path):
        path = config_file(output={"class_features": str(tmp_path / "c.rapd")})
        assert main(["extract", "--config", str(path)]) == EXIT_OK
        mats = load_feature_file(tmp_path / "c.rapd").matrices
        assert {m.roi_id[:8] for m in mats} <= {"class001", "class002"}

    @pytest.mark.parametrize("class_out", ["x.rapd", "./x.rapd", "sub/../x.rapd"])
    def test_both_outputs_at_one_path_is_data_error(
        self, config_file, tmp_path, capsys, monkeypatch, class_out
    ):
        # Both outputs at one path used to exit 0 and print "wrote" twice,
        # the file then holding only the class regions: R was lost.
        monkeypatch.chdir(tmp_path)
        argv = ["extract", "--config", str(config_file()), "--out", "x.rapd"]
        assert main([*argv, "--class-out", class_out]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: output.class_features") and len(err.splitlines()) == 1
        assert not (tmp_path / "x.rapd").exists()
        with pytest.raises(ContractError, match="is output.features"):
            RunConfig.from_dict({"output": {"features": "x.rapd", "class_features": class_out}})

    def test_missing_input_is_usage_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"output": {"features": str(tmp_path / "x.rapd")}}))
        assert main(["extract", "--config", str(path)]) == EXIT_USAGE

    def test_unreadable_scan_is_data_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {
                    "input": {"scan": str(tmp_path / "missing.bin")},
                    "output": {"features": str(tmp_path / "x.rapd")},
                }
            )
        )
        assert main(["extract", "--config", str(path)]) == EXIT_DATA

    def test_workers_flag_same_bytes(self, config_file, tmp_path):
        path = config_file(output={"class_features": str(tmp_path / "c.rapd")})
        main(["extract", "--config", str(path)])
        first = [(tmp_path / name).read_bytes() for name in ("r.rapd", "c.rapd")]
        main(["extract", "--config", str(path), "--workers", "2"])
        assert [(tmp_path / name).read_bytes() for name in ("r.rapd", "c.rapd")] == first

    def test_dead_helper_is_data_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(partition, "_region_job", _die_in_helper)
        doc = {
            **README_CONFIG,
            "output": {
                "features": str(tmp_path / "r.rapd"),
                "class_features": str(tmp_path / "c.rapd"),
            },
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["extract", "--config", str(path), "--workers", "2"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_prints_region_statistics(self, config_file, capsys):
        main(["extract", "--config", str(config_file())])
        out = capsys.readouterr().out
        assert "outliers" in out and "seconds" in out and "histogram" in out
        lines = out.splitlines()
        rows = [line.split("[")[0].split() for line in lines[2:-2]]
        region_seconds = [float(row[4]) for row in rows]
        assert rows and all(len(row) == 5 for row in rows)
        assert min(region_seconds) >= 0
        # Each region prints its rapid() step seconds summed; the last line
        # sums every step over the regions, both rounded to 4 places.
        steps = [float(v.split()[-1]) for v in lines[-1].split(":")[1].split(",")]
        assert lines[-1].startswith("step seconds: knn ") and sum(steps) > 0
        assert sum(region_seconds) == pytest.approx(sum(steps), abs=1e-4 * (len(rows) + 3))

    def test_no_computable_region(self, config_file, capsys):
        # 5 points cannot supply any k of the fallback chain: every row is
        # padding, no matrix carries seconds, and every step total is 0.
        scene = {**SCENE, "primitives": [{**SCENE["primitives"][0], "count": 5}]}
        argv = ["extract", "--config", str(config_file(input={"synthetic": scene}))]
        for workers in ("1", "2"):
            assert main(argv + ["--workers", workers]) == EXIT_OK
            out = capsys.readouterr().out.splitlines()
            assert "regions 0, pad-only points 5" in out[-2]
            assert out[-1] == "step seconds: knn 0.0000, normalize 0.0000, sort 0.0000"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_summary_counts_outliers(self, tmp_path, capsys, workers):
        # Class 1: 40 points in a 0.5 m cube, whose 4D distances all stay
        # below delta = 2; the summary used to count the normalized maximum
        # (1.0) as padding and print a pad_rate of 0.005. Class 2: two
        # 3-point clusters 5 m apart at one reflectivity, so at k = 5 each
        # row holds 3 distances above delta: 18 outliers.
        rng = np.random.default_rng(5)
        cube = np.array([10.0, 10.0, 0.0]) + rng.uniform(0.0, 0.5, (40, 3))
        cluster = np.array([[10, 0, 0], [10, 0.1, 0], [10, 0, 0.1]], dtype=np.float64)
        cloud = PointCloud(
            points=np.concatenate([cube, cluster, cluster + [0, 0, 5]]),
            remission=np.concatenate([rng.uniform(0, 1, 40), np.full(6, 0.5)]),
        )
        save_kitti_scan(cloud, tmp_path / "s.bin")
        save_kitti_labels(np.repeat([1, 2], [40, 6]), tmp_path / "s.label")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rapid": {"k_close": 5, "k_mid": 4, "k_far": 3}}))
        argv = ["extract", "--config", str(path), "--scan", str(tmp_path / "s.bin"),
                "--labels", str(tmp_path / "s.label"), "--out", str(tmp_path / "r.rapd"),
                "--class-out", str(tmp_path / "c.rapd"), "--workers", str(workers)]
        assert main(argv) == EXIT_OK
        rows = {line.split()[0]: line.split()[1:4] for line in capsys.readouterr().out.splitlines()}
        assert rows["class001-close"] == ["40", "5", "0"]
        assert rows["class002-close"] == ["6", "5", "18"]

    def test_class_output_without_labels_is_data_error(self, tmp_path, config_file):
        import struct

        scan = tmp_path / "bare.bin"
        scan.write_bytes(
            struct.pack("<4f", 1, 2, 3, 0.5) * 60
        )  # 60 coincident points, no labels
        cfg = tmp_path / "c2.json"
        cfg.write_text(
            json.dumps(
                {
                    "input": {"scan": str(scan)},
                    "output": {
                        "features": str(tmp_path / "r2.rapd"),
                        "class_features": str(tmp_path / "c2.rapd"),
                    },
                }
            )
        )
        assert main(["extract", "--config", str(cfg)]) == EXIT_DATA


class TestCheckInvariance:
    def test_rigid_trials_pass(self, config_file):
        code = main(
            ["check-invariance", "--config", str(config_file()), "--trials", "5"]
        )
        assert code == EXIT_OK

    def test_reports_what_it_compared(self, config_file, capsys):
        path = str(config_file())
        assert main(["check-invariance", "--config", path, "--trials", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert main(["extract", "--config", path]) == EXIT_OK
        matrices = load_feature_file(RunConfig.load(path).features_out).matrices
        rows = sum(m.u for m in matrices)
        assert matrices and f"compared {len(matrices)} regions, {rows} rows\n" in out

    def test_no_region_is_data_error(self, config_file, capsys):
        # 3 points cannot supply any k: nothing would be compared.
        scene = {**SCENE, "primitives": [{**SCENE["primitives"][1], "count": 3}]}
        argv = ["check-invariance", "--config", str(config_file(input={"synthetic": scene}))]
        assert main(argv + ["--trials", "2"]) == EXIT_DATA
        captured = capsys.readouterr()
        assert "max feature deviation" not in captured.out
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_workers_reach_the_trials(self, config_file, capsys, monkeypatch):
        # Every trial used to recompute its regions in a serial loop; they
        # now run through partition's job runner at the run's worker count.
        runs = []
        run_jobs = partition._run_jobs
        monkeypatch.setattr(
            cli, "_run_jobs", lambda *a: runs.append(a[3]) or run_jobs(*a)
        )
        lines = []
        for workers in ("1", "2"):
            argv = ["check-invariance", "--config", str(config_file()), "--trials", "2"]
            assert main(argv + ["--workers", workers]) == EXIT_OK
            lines.append(capsys.readouterr().out.splitlines()[-1])
        assert lines[0] == lines[1] and lines[0].startswith("max feature deviation over 2")
        assert runs == [1, 1, 2, 2]

    def test_non_rigid_negative_control(self, config_file):
        code = main(
            ["check-invariance", "--config", str(config_file()), "--trials", "2",
             "--non-rigid"]
        )
        assert code == EXIT_INVARIANT

    def test_zero_trials_usage_error(self, config_file):
        code = main(
            ["check-invariance", "--config", str(config_file()), "--trials", "0"]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_tolerance_must_be_finite_nonnegative(self, config_file, capsys, tolerance):
        # A nan tolerance used to pass every deviation (worst > nan is false).
        argv = ["check-invariance", "--config", str(config_file()), "--trials", "1"]
        assert main(argv + ["--non-rigid", "--tolerance", tolerance]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: ")


class TestEval:
    def write_labels(self, directory, name, values):
        directory.mkdir(exist_ok=True)
        save_kitti_labels(np.asarray(values, dtype=np.uint32), directory / name)

    def test_perfect_prediction(self, tmp_path, config_file, capsys):
        truth, pred = tmp_path / "truth", tmp_path / "pred"
        for scan in ("000000.label", "000001.label"):
            self.write_labels(truth, scan, [1, 2, 3, 1])
            self.write_labels(pred, scan, [1, 2, 3, 1])
        code = main(
            ["eval", "--config", str(config_file()), "--truth", str(truth),
             "--pred", str(pred)]
        )
        assert code == EXIT_OK
        assert "mIoU 1.0000" in capsys.readouterr().out

    def test_three_scan_hand_table(self, tmp_path, config_file, capsys):
        truth, pred = tmp_path / "t", tmp_path / "p"
        # accumulate per scan, oracle is one combined matrix
        scans = [
            ([1, 1, 2], [1, 2, 2]),
            ([2, 2, 1], [2, 2, 1]),
            ([1, 2, 1], [2, 2, 1]),
        ]
        cm = ConfusionMatrix.empty(20, ignore=(0,))
        for i, (t, p) in enumerate(scans):
            self.write_labels(truth, f"{i:06d}.label", t)
            self.write_labels(pred, f"{i:06d}.label", p)
            accumulate(cm, t, p)
        csv_path = tmp_path / "out.csv"
        code = main(
            ["eval", "--config", str(config_file()), "--truth", str(truth),
             "--pred", str(pred), "--csv", str(csv_path)]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert f"mIoU {miou(cm):.4f}" in out
        assert csv_path.read_text().strip().endswith(f"miou,{miou(cm):.6f}")

    def test_misaligned_lists_error(self, tmp_path, config_file):
        truth, pred = tmp_path / "t2", tmp_path / "p2"
        self.write_labels(truth, "a.label", [1])
        self.write_labels(pred, "b.label", [1])
        code = main(
            ["eval", "--config", str(config_file()), "--truth", str(truth),
             "--pred", str(pred)]
        )
        assert code == EXIT_DATA

    def test_length_mismatch_error(self, tmp_path, config_file):
        truth, pred = tmp_path / "t3", tmp_path / "p3"
        self.write_labels(truth, "a.label", [1, 2])
        self.write_labels(pred, "a.label", [1])
        code = main(
            ["eval", "--config", str(config_file()), "--truth", str(truth),
             "--pred", str(pred)]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "truth_bytes, pred_bytes, message",
        [
            pytest.param(None, [1], "label length mismatch", id="length"),
            pytest.param(None, [1, 25], r"labels outside \[0, num_classes\)", id="class-25"),
            pytest.param(b"\x01" * 5, None, "size 5 is not a multiple of 4", id="5-byte-truth"),
            pytest.param(None, b"\x01" * 5, "size 5 is not a multiple of 4", id="5-byte-pred"),
        ],
    )
    def test_label_error_names_the_scan(
        self, tmp_path, config_file, capsys, truth_bytes, pred_bytes, message
    ):
        # The second scan is bad; a class past num_classes used to print no
        # file name. Labels of [1, 2] unless a case gives a list or raw bytes.
        truth, pred = tmp_path / "t", tmp_path / "p"
        for directory, bad in ((truth, truth_bytes), (pred, pred_bytes)):
            self.write_labels(directory, "000000.label", [1, 2])
            if isinstance(bad, bytes):
                (directory / "000001.label").write_bytes(bad)
            else:
                self.write_labels(directory, "000001.label", [1, 2] if bad is None else bad)
        argv = ["eval", "--config", str(config_file()), "--truth", str(truth), "--pred", str(pred)]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert "000001.label" in err and re.search(message, err)

    def test_num_classes_past_16_bits_is_data_error(self, tmp_path, config_file, capsys):
        # 2**40 classes used to end in np.zeros' ValueError traceback (exit 1).
        truth = tmp_path / "t"
        self.write_labels(truth, "a.label", [1])
        path = config_file(eval={"num_classes": 2**40})
        argv = ["eval", "--config", str(path), "--truth", str(truth), "--pred", str(truth)]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "num_classes" in err and len(err.splitlines()) == 1

    def test_hand_worked_labels_at_the_16_bit_bound(self, tmp_path, config_file, capsys):
        # Classes 1 and 2 score 1/2, class 3 scores 1 and every other class
        # is undefined. A dense matrix of 2**16 classes needed 32 GiB, and
        # eval ended in "Unable to allocate 32.0 GiB" (exit 2).
        truth, pred = tmp_path / "t", tmp_path / "p"
        self.write_labels(truth, "000000.label", [1, 1, 2, 3])
        self.write_labels(pred, "000000.label", [1, 2, 2, 3])
        path = config_file(eval={"num_classes": 2**16})
        assert main(["eval", "--config", str(path), "--truth", str(truth), "--pred", str(pred)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "mIoU 0.6667" and len(lines) == 2**16
        assert lines[:4] == [
            "class   1  IoU 0.5000", "class   2  IoU 0.5000", "class   3  IoU 1.0000",
            "class   4  IoU undefined",
        ]
        assert lines[-2] == "class 65535  IoU undefined"

    def test_each_class_iou_computed_once(self, tmp_path, config_file, monkeypatch, capsys):
        # The table and the mean share one IoU per class; eval used to
        # compute every class twice, once for its row and once in miou.
        calls = []
        inner = metrics.iou
        for module in (cli, metrics):
            monkeypatch.setattr(module, "iou", lambda cm, c: calls.append(c) or inner(cm, c))
        truth, pred = tmp_path / "t", tmp_path / "p"
        self.write_labels(truth, "000000.label", [1, 1, 2, 3])
        self.write_labels(pred, "000000.label", [1, 2, 2, 3])
        argv = ["eval", "--config", str(config_file()), "--truth", str(truth), "--pred", str(pred)]
        assert main(argv) == EXIT_OK
        assert calls == list(range(1, 20))  # num_classes 20, class 0 ignored
        assert capsys.readouterr().out.splitlines()[-1] == "mIoU 0.6667"

    def test_no_defined_class_surfaces_undefined_metric(self, tmp_path, config_file, capsys):
        # every point carries the ignored class: no IoU is defined
        truth, pred = tmp_path / "t4", tmp_path / "p4"
        self.write_labels(truth, "a.label", [0, 0, 0])
        self.write_labels(pred, "a.label", [0, 0, 0])
        code = main(
            ["eval", "--config", str(config_file()), "--truth", str(truth),
             "--pred", str(pred)]
        )
        assert code == EXIT_DATA
        assert "no class has a defined IoU" in capsys.readouterr().err


class TestHeatmap:
    def test_padded_matrix_renders_white(self, tmp_path, config_file):
        from rapidfeat import RapidMatrix, ReflectivityScale

        mat = RapidMatrix(
            values=np.ones((6, 4)),
            roi_id="ring000-far",
            k=4,
            scale=ReflectivityScale(0, 1, 0, 1),
            anchors=np.arange(6),
        )
        feat = tmp_path / "f.rapd"
        save_feature_file(feat, feature_set([mat]), {})
        out = tmp_path / "img.pgm"
        code = main(["heatmap", str(feat), "--roi", "ring000-far", "--out", str(out)])
        assert code == EXIT_OK
        raw = out.read_bytes()
        assert raw.startswith(b"P5\n4 6\n255\n")
        assert set(raw.split(b"255\n", 1)[1]) == {255}

    def test_record_missing_keys_is_data_error(self, tmp_path, capsys):
        feat = tmp_path / "corrupt.rapd"
        header = {"kind": "rapid-features", "records": [{"type": "matrix", "roi_id": "x"}]}
        write_raw_container(feat, header)
        code = main(["heatmap", str(feat), "--roi", "x", "--out", str(tmp_path / "i.pgm")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "records[0].k is missing" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda header: [],
            lambda header: {**header, "records": 5},
            lambda header: _with_descriptor(header, dtype="bogus"),
            lambda header: _with_descriptor(header, offset=-16),
            lambda header: _with_field(header, k="two"),
            lambda header: _with_field(header, k=[2]),
            lambda header: _with_field(
                header, scale={"r_min": "0", "r_max": 1, "d_min": 0, "d_max": 1}
            ),
            lambda header: _with_field(header, roi_id=7),
            lambda header: _with_field(
                header, scale={"r_min": math.nan, "r_max": 1, "d_min": 0, "d_max": 1}
            ),
            lambda header: _with_field(header, k=True),
        ],
        ids=[
            "header-list",
            "records-int",
            "dtype-bogus",
            "offset-negative",
            "k-string",
            "k-list",
            "scale-string",
            "roi-id-number",
            "scale-nan",
            "k-bool",
        ],
    )
    def test_malformed_header_is_data_error(self, tmp_path, capsys, corrupt):
        from rapidfeat import RapidMatrix, ReflectivityScale
        from rapidfeat.scene_io import _read_container

        feat = tmp_path / "bad.rapd"
        mat = RapidMatrix(
            values=np.ones((3, 2)),
            roi_id="x",
            k=2,
            scale=ReflectivityScale(0, 1, 0, 1),
            anchors=np.arange(3),
        )
        save_feature_file(feat, feature_set([mat]), {})
        header, payload = _read_container(feat)
        write_raw_container(feat, corrupt(header), payload)
        code = main(["heatmap", str(feat), "--roi", "x", "--out", str(tmp_path / "i.pgm")])
        assert code == EXIT_DATA
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_roi(self, tmp_path, config_file):
        main(["extract", "--config", str(config_file())])
        out = tmp_path / "img.pgm"
        code = main(
            ["heatmap", str(tmp_path / "r.rapd"), "--roi", "ring099-far",
             "--out", str(out)]
        )
        assert code == EXIT_DATA

    def test_invariant_under_rigid_motion(self, tmp_path, config_file):
        # recompute features from a rotated cloud; image bytes must match
        import rapidfeat as rf

        config = RunConfig.load(str(config_file()))
        cloud = rf.synthesize_scene(config.synthetic)
        angle = 1.1
        rot = np.array(
            [
                [np.cos(angle), -np.sin(angle), 0],
                [np.sin(angle), np.cos(angle), 0],
                [0, 0, 1.0],
            ]
        )
        moved = cloud.with_points(cloud.points @ rot.T)
        base = rf.r_rapid(cloud, config.sensor, config.rapid)
        after = rf.r_rapid(moved, config.sensor, config.rapid)
        p1, p2 = tmp_path / "a.rapd", tmp_path / "b.rapd"
        rf.save_feature_file(p1, base, {})
        rf.save_feature_file(p2, after, {})
        roi = base.matrices[0].roi_id
        main(["heatmap", str(p1), "--roi", roi, "--out", str(tmp_path / "a.pgm")])
        main(["heatmap", str(p2), "--roi", roi, "--out", str(tmp_path / "b.pgm")])
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--truth", "t", "--pred", "p", "--workers", "2"],
            ["eval", "--truth", "t", "--pred", "p", "--seed", "1"],
            ["check-invariance", "--labels", "x"],
            ["check-invariance", "--identity"],
            ["extract", "--seed", "1"],
        ],
        ids=[
            "eval-workers", "eval-seed", "check-labels", "check-identity", "extract-seed",
        ],
    )
    def test_unread_flag_is_usage_error(self, config_file, capsys, argv):
        # Each command used to accept these flags. Most were never read;
        # --identity compared the scan with itself and overrode --non-rigid.
        assert main(argv + ["--config", str(config_file())]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_removed_command_is_usage_error(self, config_file, capsys):
        # bench was a second timing harness; extract's summary prints the
        # per-region seconds it read.
        assert main(["bench", "--config", str(config_file())]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_no_command_prints_help(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK
