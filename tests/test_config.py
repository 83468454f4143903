"""Tests for the flat key = value configuration format."""

import dataclasses
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrsdag
from lrsdag import cli, config, losses, sampling
from lrsdag.config import ExperimentConfig


class TestParse:
    def test_empty_text_gives_all_defaults(self):
        assert config.parse_text("") == ExperimentConfig()

    def test_whitespace_and_comments_only(self):
        text = "\n   \n# just a comment\n\t\n"
        assert config.parse_text(text) == ExperimentConfig()

    def test_single_assignment(self):
        cfg = config.parse_text("lr = 0.001\n")
        assert cfg.lr == 0.001
        assert cfg.batch_size == ExperimentConfig().batch_size

    def test_assignment_without_spaces(self):
        assert config.parse_text("batch_size=64").batch_size == 64

    def test_inline_comment_stripped(self):
        cfg = config.parse_text("trials = 5  # how many repeats")
        assert cfg.trials == 5

    def test_string_field(self):
        cfg = config.parse_text("loss = cls_kl\nsampling = random\n")
        assert cfg.loss == "cls_kl"
        assert cfg.sampling == "random"

    def test_int_field_rejects_float_text(self):
        with pytest.raises(config.ParseError):
            config.parse_text("batch_size = 12.5")

    def test_bad_float_reports_line(self):
        with pytest.raises(config.ParseError) as err:
            config.parse_text("seed = 3\nlr = abc\n")
        assert err.value.line == 2
        assert "lr" in str(err.value)

    def test_unknown_key(self):
        with pytest.raises(config.UnknownKey) as err:
            config.parse_text("learning_rate = 0.1")
        assert err.value.line == 1
        assert "learning_rate" in str(err.value)

    def test_missing_equals(self):
        with pytest.raises(config.ParseError) as err:
            config.parse_text("lr 0.001")
        assert err.value.line == 1

    def test_duplicate_key(self):
        with pytest.raises(config.ParseError) as err:
            config.parse_text("lr = 0.1\nlr = 0.2\n")
        assert err.value.line == 2
        assert "duplicate" in str(err.value)

    def test_all_fields_assignable(self):
        lines = [f"{f.name} = {config._format(getattr(ExperimentConfig(), f.name))}"
                 for f in dataclasses.fields(ExperimentConfig)]
        assert config.parse_text("\n".join(lines)) == ExperimentConfig()


class TestRoundTrip:
    def test_render_lists_every_field(self):
        text = config.render(ExperimentConfig())
        for field in dataclasses.fields(ExperimentConfig):
            assert f"\n{field.name} = " in text

    def test_render_parse_identity_on_defaults(self):
        cfg = ExperimentConfig()
        assert config.parse_text(config.render(cfg)) == cfg

    def test_render_parse_identity_on_awkward_floats(self):
        cfg = dataclasses.replace(ExperimentConfig(), lr=0.1 + 0.2,
                                  weight_decay=1e-7, stop_threshold=3.3e-45)
        again = config.parse_text(config.render(cfg))
        assert again == cfg
        assert again.lr == cfg.lr

    def test_write_resolved_file_round_trip(self, tmp_path):
        cfg = dataclasses.replace(ExperimentConfig(), model="cnn", lr=0.00123,
                                  trials=7, loss="coral", sampling="random")
        config.write_resolved(cfg, tmp_path)
        assert config.load(os.path.join(tmp_path, "config-resolved.txt")) == cfg

    def test_load_reads_utf8_file(self, tmp_path):
        path = os.path.join(tmp_path, "exp.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# run settings\nmodel = fcn\nseed = 11\n")
        cfg = config.load(path)
        assert cfg.model == "fcn"
        assert cfg.seed == 11


def _field_values():
    """Every field of ExperimentConfig: for the text fields their table's
    names or text with '#', whitespace, line breaks and lone surrogates in
    it, then finite floats and ints."""
    awkward = st.sampled_from("#= \t\n\r\x0b\x0c\x85\u2028/.a")
    text = st.text(awkward | st.characters(codec="utf-8")
                   | st.characters(categories=["Cs"]), max_size=8)
    # no float field may be negative; checks refuse the rest
    floats = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from(
        [0.1 + 0.2, 1e-7, 3.3e-45, 5e-324, -0.0, 1.7976931348623157e308])
    kinds = {float: floats, int: st.integers(-1, 2**40)}
    named = {"model": tuple(config.MODELS), "loss": tuple(losses.LOSSES),
             "sampling": sampling.SAMPLER_KINDS}
    return st.fixed_dictionaries({
        f.name: st.sampled_from(named[f.name]) | text if f.name in named
        else kinds[f.type] for f in dataclasses.fields(ExperimentConfig)})


@given(values=_field_values())
@settings(max_examples=300, deadline=None)
def test_every_config_survives_its_file(values):
    """A config either cannot be made, or its rendered file can be
    written as UTF-8 and parses back to it and to its hash."""
    try:
        cfg = ExperimentConfig(**values)
    except config.ConfigError:
        return
    text = config.render(cfg)
    assert text.encode("utf-8").decode("utf-8") == text
    again = config.parse_text(text)
    assert again == cfg
    assert config.config_hash(again) == config.config_hash(cfg)


class TestModule:
    def test_importing_config_loads_no_engine(self):
        src = os.path.dirname(os.path.dirname(lrsdag.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, lrsdag.config; print(sorted(sys.modules))"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert "'lrsdag.config'" in out
        assert "'lrsdag.engine'" not in out

    @pytest.mark.parametrize("error, line", [
        (config.ConfigError, None), (config.ParseError, 3),
        (config.UnknownKey, 4)])
    def test_every_config_error_exits_1(self, monkeypatch, capsys, error, line):
        def refuse(args):
            raise error("bad setting", line)

        monkeypatch.setattr(cli, "cmd_evaluate", refuse)
        assert cli.main(["evaluate", "--checkpoint", "c.npz",
                         "--data-dir", "d"]) == 1
        assert "configuration error: bad setting" in capsys.readouterr().err
        assert error("bad setting", line).line == line
