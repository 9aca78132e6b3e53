"""The committed benchmark configs carry the published experiment settings."""

import json
from pathlib import Path

import pytest

from lsmkit import ConfigError
from lsmkit.config import from_dict, load_config, to_dict

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIG_NAMES = [p.name for p in sorted(CONFIG_DIR.glob("*.json"))]


def cfg(name):
    return load_config(CONFIG_DIR / name)


class TestSharedConstants:
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_neuron_and_law_constants(self, name):
        c = cfg(name)
        assert c.neuron.theta == 20
        assert c.neuron.dt == 1
        assert c.neuron.w_lsm == 1
        assert c.connectivity.c_table == {
            "EE": 0.2, "EI": 0.1, "IE": 0.05, "II": 0.3,
        }
        assert c.seeds is not None  # explicit seeds, no implicit entropy

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_file_is_canonical(self, name):
        # every field written out, no key the loader drops or defaults
        raw = json.loads((CONFIG_DIR / name).read_text())
        data = to_dict(cfg(name))
        data["dataset"]["manifest"] = raw["dataset"]["manifest"]
        assert data == raw


TEPRE, MULRE = "synthetic_tepre3.json", "nmnist_mulre3.json"
NAN, INF = float("nan"), float("inf")


class TestLoadTimeChecks:
    """A shipped config with one value broken fails to load, naming the
    field, before any reservoir is built."""

    @pytest.mark.parametrize(
        "name, section, key, value, named",
        [
            (TEPRE, "ensemble", "dims", [5, 5], "dims must be three integers"),
            (TEPRE, "ensemble", "dims", [5, 5, 24.0], "nz must be an integer, not 24.0"),
            (TEPRE, "ensemble", "dims", [5, True, 24], "ny must be an integer, not True"),
            (MULRE, "ensemble", "member_dims", [20.0, 20, 10], "nx must be an integer, not 20.0"),
            (MULRE, "ensemble", "member_dims", [4, 4], "member_dims must be three"),
            (TEPRE, "preprocessing", "time_window", 2.5, "time_window must be an integer"),
            (TEPRE, "preprocessing", "downscale", 1.5, "downscale must be an integer"),
            (TEPRE, "preprocessing", "gabor", "false", "gabor must be true or false"),
            (TEPRE, "neuron", "theta", NAN, "theta must be a finite number > 0, not nan"),
            (TEPRE, "neuron", "theta", INF, "theta must be a finite number > 0, not inf"),
            (TEPRE, "neuron", "tau_v", NAN, "tau_v must be a finite number > 0, not nan"),
            (TEPRE, "neuron", "w_lsm", INF, "w_lsm must be a finite number, not inf"),
            (TEPRE, "input", "density", 0, "density must be a finite number > 0 and <= 1, not 0"),
            (TEPRE, "input", "weight", NAN, "weight must be a finite number, not nan"),
            (
                TEPRE,
                "ensemble",
                "inter_density",
                2,
                "inter_density must be a finite number >= 0 and <= 1, not 2",
            ),
            (
                TEPRE,
                "ensemble",
                "inter_weight",
                1,
                "inter_weight must be a finite number < 0, not 1",
            ),
            (TEPRE, "ensemble", "dims", [5, 5, 3], "reservoir size 25 is odd"),
            (TEPRE, "ensemble", "dims", [5, 0, 24], "ny must be >= 1, not 0"),
            (MULRE, "ensemble", "member_dims", [5, 5, 5], "reservoir size 125 is odd"),
            (MULRE, "ensemble", "member_dims", [10, -10, 12], "ny must be >= 1"),
            (MULRE, "ensemble", "d_list", [0, NAN], "d must be a finite number >= 0, not nan"),
            (MULRE, "ensemble", "d_list", [0, INF], "d must be a finite number >= 0, not inf"),
            (MULRE, "input", "window", 11, "window 11 does not fit"),
            (TEPRE, "preprocessing", "steps", 2, "cannot split 2 steps into 3"),
            (TEPRE, "connectivity", "lam", NAN, "lam must be a finite number > 0, not nan"),
            (TEPRE, "connectivity", "lam", INF, "lam must be a finite number > 0, not inf"),
            # a bool is not a number here, though Python counts it as one
            (TEPRE, "connectivity", "lam", True, "connectivity section: lam must be a real"),
            (
                TEPRE,
                "connectivity",
                "c_table",
                {"EE": True, "EI": 0.1, "IE": 0.05, "II": 0.3},
                r"connectivity section: c_table\[EE\] must be a real number, not True",
            ),
            (MULRE, "ensemble", "d_list", [True], "ensemble section: d must be a real number"),
            (TEPRE, "readout", "epochs", 2.5, "epochs must be an integer"),
            (TEPRE, "readout", "l2", NAN, "l2 must be a finite number >= 0, not nan"),
            (TEPRE, "readout", "l2", INF, "l2 must be a finite number >= 0, not inf"),
            (
                TEPRE,
                "readout",
                "tolerance",
                INF,
                "tolerance must be a finite number >= 0, not inf",
            ),
            (TEPRE, "seeds", "input", -1, "input must be >= 0"),
            (TEPRE, None, "output_dir", 5, "output_dir must be a path"),
            # a field its variant or scheme does not read, set off its default
            (MULRE, "ensemble", "partitions", 6, "partitions does not apply to mulre"),
            (MULRE, "ensemble", "dims", [5, 5, 24], "dims does not apply to mulre"),
            (MULRE, "ensemble", "inter_density", 0.5, "inter_density does not apply"),
            (MULRE, "ensemble", "inter_weight", -2.0, "inter_weight does not apply"),
            (TEPRE, "ensemble", "d_list", [0, 4], "d_list does not apply to tepre"),
            (TEPRE, "ensemble", "member_dims", [5, 5, 8], "member_dims does not apply"),
            (TEPRE, "input", "window", 11, "window does not apply to standard"),
            # several fields at once: a window whose corner pool of one column
            # of one neuron cannot hold a +/- pair
            (
                "dvsgesture_rf.json",
                None,
                None,
                {"input": {"window": 2}, "ensemble": {"member_dims": [20, 20, 1]}},
                "window 2 leaves pixel",
            ),
        ],
    )
    def test_broken_value_rejected(self, name, section, key, value, named):
        data = json.loads((CONFIG_DIR / name).read_text())
        if key is None:
            for sec, fields in value.items():
                data[sec].update(fields)
        else:
            (data if section is None else data[section])[key] = value
        with pytest.raises(ConfigError, match=named):
            from_dict(data)

    def test_infinite_offset_in_a_config_file_rejected(self, tmp_path):
        # JSON's Infinity token parses to an infinite float
        data = json.loads((CONFIG_DIR / MULRE).read_text())
        data["ensemble"]["d_list"] = [0, float("inf")]
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(data))
        assert "Infinity" in path.read_text()
        with pytest.raises(ConfigError, match="d must be a finite number >= 0, not inf"):
            load_config(path)

    def test_foreign_field_at_default_loads_and_is_not_written(self):
        data = json.loads((CONFIG_DIR / MULRE).read_text())
        data["ensemble"]["partitions"] = 1
        c = from_dict(data)
        assert c == from_dict(json.loads((CONFIG_DIR / MULRE).read_text()))
        assert "partitions" not in to_dict(c)["ensemble"]


class TestNmnist:
    def test_tepre_settings(self):
        c = cfg("nmnist_tepre3.json")
        assert c.neuron.tau_v == 16 and c.neuron.tau_u == 16
        assert c.ensemble.partitions == 3
        nx, ny, nz = c.ensemble.dims
        assert nx * ny * nz == 3600
        assert c.input.scheme == "standard"

    def test_mulre_settings(self):
        c = cfg("nmnist_mulre3.json")
        assert c.ensemble.d_list == (0, 4, 6)
        nx, ny, nz = c.ensemble.member_dims
        assert nx * ny * nz * len(c.ensemble.d_list) == 3600
        assert c.preprocessing.gabor is True
        assert c.input.scheme == "receptive_field"
        assert c.input.window in (5, 6)


class TestShd:
    def test_settings(self):
        c = cfg("shd_tepre6.json")
        assert (c.neuron.tau_v, c.neuron.tau_u) == (40, 20)
        assert c.ensemble.dims == (10, 10, 30)
        assert c.ensemble.partitions == 6
        assert c.preprocessing.time_window == 1000
        assert c.input.scheme == "standard"


class TestDvsGesture:
    def test_standard(self):
        c = cfg("dvsgesture_standard.json")
        assert (c.neuron.tau_v, c.neuron.tau_u) == (5, 10)
        assert c.ensemble.dims == (20, 20, 10)
        assert c.ensemble.partitions == 1
        assert c.preprocessing.time_window == 20000
        assert c.preprocessing.downscale == 2  # 128 -> 64

    def test_receptive_field(self):
        c = cfg("dvsgesture_rf.json")
        assert c.ensemble.member_dims == (20, 20, 10)
        assert c.ensemble.d_list == (0,)
        assert c.input.scheme == "receptive_field"
        assert c.input.window in (5, 6)
        # shared seeds with the standard-input variant for the comparison
        std = cfg("dvsgesture_standard.json")
        assert c.seeds == std.seeds
        assert c.preprocessing == std.preprocessing
        assert (c.neuron.tau_v, c.neuron.tau_u) == (std.neuron.tau_v, std.neuron.tau_u)
