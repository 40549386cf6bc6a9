"""Tests for the key=value run configuration."""
import json
import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfaf.config import (
    ConfigError,
    RunConfig,
    config_dict,
    config_lines,
    load_run_config,
    parse_config_text,
    sub_config,
)
from dfaf.data import ToyTaskSpec, answer_vocabulary
from dfaf.model import ModelConfig
from dfaf.training import TrainConfig


class TestParseText:
    def test_pairs_comments_and_blanks(self):
        text = "# a comment\n\ndim=32\n  order = e_then_r  \n"
        assert parse_config_text(text) == {"dim": "32", "order": "e_then_r"}

    def test_value_may_contain_equals(self):
        assert parse_config_text("gradcheck_corrupt=a=b") == {
            "gradcheck_corrupt": "a=b"
        }

    def test_syntax_errors_collected_with_line_numbers(self):
        text = "dim=32\nnot a pair\n=nokey\ndim=64\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, source="f.cfg")
        messages = err.value.errors
        assert len(messages) == 3
        assert "f.cfg:2" in messages[0]
        assert "f.cfg:3" in messages[1]
        assert "duplicate" in messages[2]


class TestLoadRunConfig:
    def test_no_sources_gives_defaults(self):
        assert load_run_config(env={}) == RunConfig()

    def test_override_beats_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dim=32\nheads=2\n")
        cfg = load_run_config(str(path), ["dim=16"], env={})
        assert cfg.dim == 16
        assert cfg.heads == 2

    def test_env_seed_beats_overrides(self):
        cfg = load_run_config(None, ["seed=5"], env={"DFAF_SEED": "99"})
        assert cfg.seed == 99

    def test_bad_env_seed_reported(self):
        with pytest.raises(ConfigError, match="DFAF_SEED"):
            load_run_config(env={"DFAF_SEED": "not-a-number"})

    def test_tuple_fields_parse(self):
        cfg = load_run_config(
            None,
            ["templates=attribute, relational"],
            env={},
        )
        assert cfg.templates == ("attribute", "relational")

    def test_unknown_and_unparsable_collected_together(self):
        with pytest.raises(ConfigError) as err:
            load_run_config(None, ["dim=banana", "wat=1", "epochs=x"], env={})
        joined = "\n".join(err.value.errors)
        assert "banana" in joined
        assert "wat" in joined
        assert "epochs" in joined

    def test_semantic_errors_listed_per_subsystem(self):
        with pytest.raises(ConfigError) as err:
            load_run_config(None, ["heads=3", "clip=-1"], env={})
        joined = "\n".join(err.value.errors)
        assert "model:" in joined
        assert "training:" in joined

    def test_task_semantic_error_reported(self):
        with pytest.raises(ConfigError, match="task:"):
            load_run_config(None, ["n_shapes=5"], env={})

    def test_gradcheck_keys_validated(self):
        with pytest.raises(ConfigError, match="gradcheck"):
            load_run_config(None, ["gradcheck_eps=0"], env={})

    def test_missing_file_reported(self):
        with pytest.raises(ConfigError, match="no-such-file.cfg"):
            load_run_config("no-such-file.cfg", env={})

    def test_bad_set_syntax_reported(self):
        with pytest.raises(ConfigError, match="--set"):
            load_run_config(None, ["dim"], env={})


KEYS = [f.name for f in fields(RunConfig)]
ADVERSARIAL = [
    "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "-1", "-0", "0", "1", "2", "4",
    "0.5", "", " ", "1_0", "\u0663", "\uff11\uff12", "\u0661.\u0665", "abc",
    "attribute,counting", "3,7", "concat", "parallel", "dyintra_only",
]
VALUES = st.one_of(
    st.sampled_from(ADVERSARIAL),
    st.integers(-3, 40).map(str),
    st.floats().map(repr),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=4),
)


class TestGeneratedConfigText:
    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=6),
        st.one_of(st.none(), VALUES),
    )
    def test_yields_run_config_or_config_error(self, tmp_path_factory, pairs, env_seed):
        path = tmp_path_factory.getbasetemp() / "generated.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in pairs.items()), encoding="utf-8")
        env = {} if env_seed is None else {"DFAF_SEED": env_seed}
        try:
            cfg = load_run_config(str(path), env=env)
        except ConfigError:
            return
        for key in KEYS:
            value = getattr(cfg, key)
            if isinstance(value, float):
                assert math.isfinite(value), key
            if key.endswith("seed"):
                assert value >= 0, key

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200))
    def test_raw_bytes_yield_run_config_or_config_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "raw.cfg"
        path.write_bytes(raw)
        try:
            assert isinstance(load_run_config(str(path), env={}), RunConfig)
        except ConfigError:
            pass


class TestRoundTrip:
    def test_lines_reload_to_equal_config(self, tmp_path):
        cfg = load_run_config(
            None,
            [
                "templates=existence,counting",
                "noise_std=0.05",
                "base_lr=0.0005",
                "attention_type=dyintra_only",
                "dim=32",
                "heads=2",
                "grid_rows=2",
                "grid_cols=2",
                "n_colors=7",
                "n_shapes=2",
            ],
            env={},
        )
        path = tmp_path / "echo.cfg"
        path.write_text(config_lines(cfg))
        assert load_run_config(str(path), env={}) == cfg

    def test_dict_is_json_ready_strings(self):
        payload = config_dict(RunConfig())
        assert all(isinstance(v, str) for v in payload.values())
        json.dumps(payload)

    def test_every_field_appears_exactly_once(self):
        lines = config_lines(RunConfig()).strip().splitlines()
        keys = [line.split("=", 1)[0] for line in lines]
        assert len(keys) == len(set(keys))
        assert set(keys) == set(config_dict(RunConfig()).keys())


class TestSubConfigs:
    def test_task_spec_fields_flow_through(self):
        cfg = load_run_config(
            None, ["grid_rows=2", "grid_cols=4", "seed=9", "noise_std=0.1"], env={}
        )
        spec = sub_config(cfg, ToyTaskSpec)
        assert (spec.grid_rows, spec.grid_cols) == (2, 4)
        assert spec.seed == 9
        assert spec.noise_std == 0.1

    def test_model_config_gets_answer_count_from_task(self):
        cfg = load_run_config(None, ["templates=attribute"], env={})
        spec = sub_config(cfg, ToyTaskSpec)
        n_answers = len(answer_vocabulary(spec))
        mc = sub_config(cfg, ModelConfig, n_answers=n_answers)
        assert mc.n_answers == 4
        assert mc.d_v == cfg.d_v

    def test_train_config_shares_seed(self):
        cfg = load_run_config(None, ["seed=31"], env={})
        assert sub_config(cfg, TrainConfig).seed == 31
        assert sub_config(cfg, ToyTaskSpec).seed == 31
