"""Flat ``section.key = value`` run configuration."""

import pytest

from ctdenoise.config import (
    SCHEMA,
    ConfigError,
    RunConfig,
    load_run_config,
    parse_config_text,
)


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


class TestTypedViews:
    def test_model_config(self):
        cfg = load_run_config(overrides={"model.width": 0.5, "model.n_heads": 2})
        mc = cfg.model_config()
        assert mc.width == 0.5
        assert mc.n_heads == 2
        assert mc.variant == "full"

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
