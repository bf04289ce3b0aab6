"""Flat ``section.key = value`` run configuration."""

import dataclasses
import re
from pathlib import Path

import pytest

from ctdenoise.config import (
    SCHEMA,
    ConfigError,
    RunConfig,
    load_run_config,
    parse_config_text,
)
from ctdenoise.ctsim import DoseConfig, ScanGeometry, default_geometry
from ctdenoise.model import ModelConfig
from ctdenoise.training import TrainConfig


class TestParsing:
    def test_typed_values(self):
        text = """
        data.n_pairs = 4
        data.i0 = 2e4          # photons per ray
        model.width = 0.5
        model.use_positional = yes
        model.variant = no_transformer
        """
        out = parse_config_text(text)
        assert out == {
            "data.n_pairs": 4,
            "data.i0": 2e4,
            "model.width": 0.5,
            "model.use_positional": True,
            "model.variant": "no_transformer",
        }

    def test_comments_and_blanks_skipped(self):
        assert parse_config_text("# nothing\n\n   \n") == {}

    def test_unknown_key_suggests_neighbor(self):
        with pytest.raises(ConfigError, match=r"model\.widt.*did you mean.*model\.width"):
            parse_config_text("model.widt = 0.5")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("model.width 0.5")
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("model.width =")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match=r"<config>:1: bad value for data\.n_pairs"):
            parse_config_text("data.n_pairs = many")
        with pytest.raises(ConfigError, match="boolean"):
            parse_config_text("model.use_positional = maybe")

    @pytest.mark.parametrize("key", sorted(k for k, (_, default) in SCHEMA.items()
                                           if isinstance(default, float)))
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_float_rejected(self, key, text):
        with pytest.raises(ConfigError, match=rf"run\.cfg:2: bad value for {key}: .*finite"):
            parse_config_text(f"# header\n{key} = {text}\n", source="run.cfg")


class TestLoadRunConfig:
    def test_defaults_complete(self):
        cfg = load_run_config()
        assert set(cfg.values) == set(SCHEMA)
        assert cfg["model.width"] == 0.25
        assert cfg["train.epochs"] == 300

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.epochs = 12\nmodel.sigma = 2.0\n")
        cfg = load_run_config(path)
        assert cfg["train.epochs"] == 12
        assert cfg["model.sigma"] == 2.0
        assert cfg["train.batch_size"] == 8

    def test_explicit_overrides_win(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.epochs = 12\n")
        cfg = load_run_config(path, overrides={"train.epochs": 99})
        assert cfg["train.epochs"] == 99

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "nope.cfg")

    def test_unknown_override(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_run_config(overrides={"model.depth": 9})

    def test_dump_parse_round_trip(self):
        cfg = load_run_config(overrides={"data.i0": 5e4, "model.variant": "no_dual_path"})
        parsed = parse_config_text(cfg.dump())
        assert RunConfig(parsed).values == cfg.values


    def test_dump_refuses_a_value_that_would_not_read_back(self):
        cfg = load_run_config(overrides={"model.variant": "full  # the default"})
        with pytest.raises(ValueError, match=r"entry 'model\.variant'"):
            cfg.dump()

class TestTypedViews:
    def test_model_config(self):
        cfg = load_run_config(overrides={"model.width": 0.5, "model.n_heads": 2})
        mc = cfg.model_config()
        assert mc.width == 0.5
        assert mc.n_heads == 2
        assert mc.variant == "full"

    def test_model_keys_are_the_model_config_fields(self):
        fields = {f"model.{f.name}" for f in dataclasses.fields(ModelConfig)}
        assert {k for k in SCHEMA if k.startswith("model.")} == fields
        # the one default the CLI sets apart from ModelConfig: the desk-size width
        assert load_run_config().model_config() == ModelConfig(width=0.25)

    # the keys that are not a field of their section's dataclass
    CLI_KEYS = {"data.n_pairs", "data.size", "data.n_ellipses", "data.seed", "data.n_views",
                "model.width", "train.lr", "train.lr_drop_epoch", "train.lr_dropped",
                "train.val_pairs", "eval.data_range"}
    DERIVED = {f"{section}.{f.name}": f.default
               for section, cls in (("data", DoseConfig), ("model", ModelConfig),
                                    ("train", TrainConfig))
               for f in dataclasses.fields(cls) if f.name != "lr_schedule"}

    def test_default_views_are_the_dataclass_defaults(self):
        cfg = load_run_config()
        assert cfg.dose_config() == DoseConfig()
        assert cfg.train_config() == TrainConfig()
        assert cfg.geometry() == default_geometry(cfg["data.size"])

    def test_derived_defaults_are_the_field_defaults(self):
        for key, default in self.DERIVED.items():
            if key != "model.width":
                assert SCHEMA[key][1] == default, key
        (_, lr), (drop, dropped) = TrainConfig().lr_schedule
        assert [SCHEMA[k][1] for k in ("train.lr", "train.lr_drop_epoch", "train.lr_dropped")] \
            == [lr, drop, dropped]
        assert SCHEMA["data.n_views"][1] == ScanGeometry().n_views

    def test_every_key_is_derived_or_the_clis_own(self):
        assert set(SCHEMA) == set(self.DERIVED) | self.CLI_KEYS
        assert set(self.DERIVED) & self.CLI_KEYS == {"model.width"}

    def test_every_model_key_round_trips(self, tmp_path):
        want = ModelConfig(width=0.5, n_heads=2, ffn_mult=2, lrelu_slope=0.1, sigma=2.0,
                           variant="no_transformer", use_positional=True,
                           pos_image_size=32, seed=7)
        default = ModelConfig()
        for f in dataclasses.fields(ModelConfig):
            assert getattr(want, f.name) != getattr(default, f.name), f.name
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"model.{k} = {v}\n"
                                for k, v in dataclasses.asdict(want).items()))
        assert load_run_config(path).model_config() == want

    def test_train_schedule_with_drop(self):
        cfg = load_run_config(overrides={"train.epochs": 300})
        tc = cfg.train_config()
        assert tc.lr_schedule == ((0, 1e-4), (180, 1e-5))
        assert tc.clip_norm == 1.0

    def test_train_schedule_drop_outside_run(self):
        cfg = load_run_config(overrides={"train.epochs": 100})
        assert cfg.train_config().lr_schedule == ((0, 1e-4),)

    def test_dose_config(self):
        cfg = load_run_config(overrides={"data.i0": 3e4, "data.dose_fraction": 0.5})
        dc = cfg.dose_config()
        assert dc.i0 == 3e4
        assert dc.dose_fraction == 0.5

    def test_geometry(self):
        cfg = load_run_config(overrides={"data.size": 64, "data.n_views": 90})
        geom = cfg.geometry()
        assert geom.image_size == 64
        assert geom.n_views == 90
        assert geom.n_detectors % 2 == 1


class TestFrozenConfigs:
    """A config is checked when it is built and cannot change afterwards; a
    variant made with ``replace`` is checked again."""

    @pytest.mark.parametrize("record, name, value", [
        (DoseConfig(), "dose_fraction", 5.0),
        (TrainConfig(), "clip_norm", float("nan")),
        (ScanGeometry(), "n_views", 0),
        (load_run_config(), "values", {}),
    ], ids=["dose", "train", "geometry", "run"])
    def test_assignment_refused(self, record, name, value):
        before = getattr(record, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, value)
        assert getattr(record, name) is before

    @pytest.mark.parametrize("record, change, message", [
        (DoseConfig(), {"dose_fraction": 5.0}, r"dose_fraction must lie in \(0,1\], got 5.0"),
        (TrainConfig(), {"clip_norm": float("nan")}, "clip_norm must be finite and >= 0, got nan"),
        (ScanGeometry(), {"n_views": 0}, "n_views must be >= 1, got 0"),
    ], ids=["dose", "train", "geometry"])
    def test_replace_checks_again(self, record, change, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(record, **change)


def test_readme_config_table_matches_schema():
    # each row of the README table is "| `group.` | `key` (default), ... |"; the
    # first word in parentheses is the default, as a config file would spell it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = {}
    for group, keys in re.findall(r"^\| `(\w+)\.` ?\|(.*)\|$", readme, flags=re.M):
        for key, default in re.findall(r"`(\w+)` \(([^)]*)\)", keys):
            documented[f"{group}.{key}"] = default.split()[0]
    assert set(documented) == set(SCHEMA)
    for key, text in documented.items():
        parser, default = SCHEMA[key]
        value = parser(text)
        assert (value, type(value)) == (default, type(default)), key
