import configparser
import dataclasses
import re
from pathlib import Path

import pytest

from lexiforge.config import (
    SECTIONS,
    EmbeddingSettings,
    ProviderSettings,
    _cast,
    build_embedder,
    build_provider,
    evaluation_snapshot,
    load_config,
)
from lexiforge.embedding import CachingEmbedder, DeterministicEmbedder, RemoteEmbedder
from lexiforge.exceptions import ConfigError
from lexiforge.providers import HttpChatProvider, StubProvider


README = Path(__file__).resolve().parents[1] / "README.md"

#: fields set from another section instead of their own: [prompt] template and fewshot fill these
NOT_OPTIONS = {"generation": {"prompt_template", "fewshot_examples"}}


def write_config(tmp_path, text):
    path = tmp_path / "config.ini"
    path.write_text(text, encoding="utf-8")
    return path


def options(section):
    return [f for f in dataclasses.fields(SECTIONS[section]) if f.name not in NOT_OPTIONS.get(section, ())]


def sample_value(section, field, tmp_path):
    """(text for the config file, value the loader must read back) for *field*, never its default."""
    if field.type == "Path | None":
        path = tmp_path / f"{field.name}.dat"
        content = {"template": "Lemas: {{BATCH}}", "fewshot": '[["sal", "Nombre femenino", "Sal.", "Sal."]]'}
        path.write_text(content.get(field.name, ""), encoding="utf-8")
        return path.name, path.resolve()
    if (section, field.name) == ("provider", "kind"):
        return "stub", "stub"
    samples = {"int": ("7", 7), "float": ("0.25", 0.25), "str": ("dato", "dato")}
    samples["str | None"] = samples["str"]
    return samples[field.type]


class TestLoadConfig:
    def test_defaults_from_empty_file(self, tmp_path):
        config = load_config(write_config(tmp_path, ""))
        assert config.generation.batch_size == 32
        assert config.generation.max_retries == 3
        assert config.embedding.dimension == 512
        assert config.error_analysis.hallucination_threshold == 0.1

    def test_spec_field_aliases(self, tmp_path):
        config = load_config(
            write_config(
                tmp_path,
                "[generation]\nretries = 5\nbackoff = 0.5\nconcurrency = 2\n",
            )
        )
        assert config.generation.max_retries == 5
        assert config.generation.retry_backoff == 0.5
        assert config.generation.max_concurrent_batches == 2

    def test_relative_paths_resolve_against_config_dir(self, tmp_path, data_dir):
        import shutil

        shutil.copy(data_dir / "stub_replies.json", tmp_path / "stub_replies.json")
        config = load_config(write_config(tmp_path, "[provider]\nkind = stub\nreplies = stub_replies.json\n"))
        assert config.provider.replies == (tmp_path / "stub_replies.json").resolve()

    def test_unparseable_number_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, "[generation]\nbatch_size = muchos\n"))

    @pytest.mark.parametrize(
        "section,option,value",
        [
            ("error_analysis", "hallucination_threshold", "3.0"),
            ("embedding", "remote_batch_size", "0"),
            ("embedding", "remote_max_retries", "-1"),
            ("embedding", "remote_retry_backoff", "-1"),
            ("embedding", "remote_retry_backoff", "nan"),
            ("embedding", "remote_timeout", "0"),
            ("provider", "timeout", "0"),
            ("provider", "timeout", "-5"),
            ("generation", "max_output_tokens", "0"),
            ("generation", "temperature", "-1"),
            ("generation", "temperature", "nan"),
            ("generation", "retry_backoff", "nan"),
        ],
    )
    def test_bad_threshold_is_config_error(self, tmp_path, section, option, value):
        with pytest.raises(ConfigError, match=f"\\[{section}\\] {option} must be"):
            load_config(write_config(tmp_path, f"[{section}]\n{option} = {value}\n"))

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "section,option",
        [
            ("generation", "temperature"),
            ("generation", "retry_backoff"),
            ("provider", "timeout"),
            ("embedding", "remote_timeout"),
            ("embedding", "remote_retry_backoff"),
        ],
    )
    def test_non_finite_float_is_config_error(self, tmp_path, section, option, value):
        # inf passes a lower bound, and would go out as a null temperature or overflow a clock
        with pytest.raises(ConfigError, match=f"^\\[{section}\\] {option} must be a finite number, got '{value}'$"):
            load_config(write_config(tmp_path, f"[{section}]\n{option} = {value}\n"))

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_unknown_provider_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, "[provider]\nkind = telegraph\n"))

    def test_prompt_template_from_file(self, tmp_path):
        (tmp_path / "prompt.txt").write_text("Define estos lemas:\n{{BATCH}}\n", encoding="utf-8")
        config = load_config(write_config(tmp_path, "[prompt]\ntemplate = prompt.txt\n"))
        assert config.generation.prompt_template.startswith("Define estos lemas:")

    @pytest.mark.parametrize("content", ["Define estos lemas.\n", "{{BATCH}}\n{{BATCH}}\n"], ids=["none", "two"])
    def test_prompt_template_without_one_batch_placeholder_names_the_option_and_file(self, tmp_path, content):
        (tmp_path / "prompt.txt").write_text(content, encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, "[prompt]\ntemplate = prompt.txt\n"))
        message = str(exc.value)
        assert message.startswith(f"[prompt] template {(tmp_path / 'prompt.txt').resolve()} ") and "{{BATCH}}" in message

    def test_every_option_of_every_section_read_with_its_type(self, tmp_path):
        text, expected = "", {}
        for section in SECTIONS:
            text += f"[{section}]\n"
            for field in options(section):
                raw, value = sample_value(section, field, tmp_path)
                text += f"{field.name} = {raw}\n"
                expected[section, field.name] = value
        config = load_config(write_config(tmp_path, text))
        for (section, name), value in expected.items():
            if section == "prompt":
                continue
            read = getattr(getattr(config, section), name)
            assert read == value and type(read) is type(value), (section, name, read)
            assert read != getattr(SECTIONS[section](), name)
        assert config.generation.prompt_template == "Lemas: {{BATCH}}"
        assert config.generation.fewshot_examples == (("sal", "Nombre femenino", "Sal.", "Sal."),)

    @pytest.mark.parametrize(
        ("text", "named"),
        [
            ("[error_anlysis]\nhallucination_threshold = 0.2\n", "[error_anlysis]"),
            ("[embeding]\n", "[embeding]"),
            ("[embedding]\ndimenson = 64\n", "[embedding] unknown option 'dimenson'"),
            ("[generation]\nmax_concurent_batches = 8\n", "[generation] unknown option 'max_concurent_batches'"),
            ("[generation]\nprompt_template = x\n", "[generation] unknown option 'prompt_template'"),
            ("[prompt]\ntemplate_file = p.txt\n", "[prompt] unknown option 'template_file'"),
            ("[DEFAULT]\ndimension = 64\n", "[DEFAULT] sets dimension"),
            ("[embedding]\ninclude_examples = true\n", "[embedding] unknown option 'include_examples'"),
            ("[provider]\ntimeout = 10%\n", "[provider] timeout: cannot parse '10%'"),
            ("[embedding]\ndimension = \n", "[embedding] dimension: cannot parse ''"),
        ],
    )
    def test_misspelt_section_option_or_boolean_is_config_error(self, tmp_path, text, named):
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, text))
        assert named in str(exc.value)

    def test_field_type_without_a_reader_is_type_error(self, tmp_path):
        parser = configparser.ConfigParser()
        parser.read_string("[embedding]\nflag = true\n")
        with pytest.raises(TypeError, match="no reader for a field of type bool"):
            _cast(parser, "embedding", "flag", "bool", tmp_path)

    def test_empty_default_section_allowed(self, tmp_path):
        assert load_config(write_config(tmp_path, "[DEFAULT]\n[embedding]\ndimension = 64\n")).embedding.dimension == 64

    def test_option_wins_over_its_alias(self, tmp_path):
        config = load_config(write_config(tmp_path, "[generation]\nretries = 5\nmax_retries = 1\n"))
        assert config.generation.max_retries == 1

    def test_settings_validate_on_construction(self):
        with pytest.raises(ConfigError, match="kind"):
            ProviderSettings(kind="telegraph")
        with pytest.raises(ConfigError, match="dimension"):
            EmbeddingSettings(dimension=0)

    def test_snapshot_error_analysis_block_order(self, tmp_path):
        config = load_config(write_config(tmp_path, "[error_analysis]\nhallucination_threshold = 0.2\n"))
        block = evaluation_snapshot("deterministic", config)["error_analysis"]
        assert list(block) == [
            "hallucination_threshold",
            "overcorrection_max_edit_distance",
            "overcorrection_similarity_floor",
            "fabricated_polysemy_similarity",
            "refusal_patterns",
            "proper_noun_patterns",
        ]
        assert block["hallucination_threshold"] == 0.2

    def test_snapshot_names_the_encoder_not_its_address(self, tmp_path):
        config = load_config(
            write_config(tmp_path, "[embedding]\nremote_url = http://127.0.0.1:8123/embed\nremote_identifier = enc-v2\n")
        )
        snapshot = evaluation_snapshot("remote", config)
        assert snapshot["embedding"] == {"dimension": 512, "remote_batch_size": 64, "remote_identifier": "enc-v2"}
        assert "8123" not in repr(snapshot)

    def test_fewshot_from_file(self, tmp_path):
        (tmp_path / "fewshot.json").write_text(
            '[["sal", "Nombre femenino", "Cloruro de sodio.", "Pásame la sal."]]', encoding="utf-8"
        )
        config = load_config(write_config(tmp_path, "[prompt]\nfewshot = fewshot.json\n"))
        assert config.generation.fewshot_examples == (
            ("sal", "Nombre femenino", "Cloruro de sodio.", "Pásame la sal."),
        )

    @pytest.mark.parametrize(
        ("content", "message"),
        [
            ('[["sal", "Nombre", "Sal.", "Sal."], [1, null, 2.5, ["x"]]]', r"example 1 in .*: lemma must be a string, got 1$"),
            ('[["sal", null, "Sal.", "Sal."]]', r"example 0 in .*: pos-label must be a string, got None$"),
            ('[["sal", "Nombre", "Sal.", 2.5]]', r"example 0 in .*: example must be a string, got 2\.5$"),
            ('[["sal", "Nombre", "Sal."]]', r"example 0 in .* is not a list of lemma, pos-label, definition, example$"),
            ('["abcd"]', r"example 0 in .* is not a list of"),
            ('{"sal": 1}', r"holds no examples$"),
            ("[]", r"holds no examples$"),
            ("[[", r"cannot load few-shot examples"),
        ],
    )
    def test_fewshot_example_of_four_strings_only(self, tmp_path, content, message):
        (tmp_path / "fewshot.json").write_text(content, encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, "[prompt]\nfewshot = fewshot.json\n"))

    def test_values_are_read_literally(self, tmp_path):
        config = load_config(
            write_config(tmp_path, "[embedding]\nremote_url = http://h/embed?x=%20y\nremote_identifier = a%%b\n")
        )
        assert config.embedding.remote_url == "http://h/embed?x=%20y"
        assert config.embedding.remote_identifier == "a%%b"


class TestFactories:
    def test_stub_provider(self, tmp_path, data_dir):
        import shutil

        shutil.copy(data_dir / "stub_replies.json", tmp_path / "stub_replies.json")
        config = load_config(write_config(tmp_path, "[provider]\nkind = stub\nreplies = stub_replies.json\n"))
        assert isinstance(build_provider(config.provider), StubProvider)

    def test_stub_requires_replies(self, tmp_path):
        config = load_config(write_config(tmp_path, "[provider]\nkind = stub\n"))
        with pytest.raises(ConfigError):
            build_provider(config.provider)

    def test_http_provider_requires_endpoint(self, tmp_path):
        config = load_config(write_config(tmp_path, "[provider]\nkind = openai-chat\n"))
        with pytest.raises(ConfigError):
            build_provider(config.provider)

    def test_http_provider_needs_its_credential_variable(self, tmp_path, monkeypatch):
        config = load_config(
            write_config(tmp_path, "[provider]\nendpoint = http://localhost:9/v1\ncredential_env = LEXIFORGE_TEST_KEY\n")
        )
        monkeypatch.delenv("LEXIFORGE_TEST_KEY", raising=False)
        with pytest.raises(ConfigError, match="LEXIFORGE_TEST_KEY"):
            build_provider(config.provider)
        monkeypatch.setenv("LEXIFORGE_TEST_KEY", "")
        with pytest.raises(ConfigError, match="LEXIFORGE_TEST_KEY"):
            build_provider(config.provider)
        monkeypatch.setenv("LEXIFORGE_TEST_KEY", "sk-secreto")
        assert isinstance(build_provider(config.provider), HttpChatProvider)

    def test_http_provider_built(self, tmp_path):
        config = load_config(
            write_config(tmp_path, "[provider]\nendpoint = http://localhost:9/v1\nmodel = m\n")
        )
        provider = build_provider(config.provider)
        assert isinstance(provider, HttpChatProvider)
        assert provider.model == "m"

    def test_deterministic_embedder(self, tmp_path):
        config = load_config(write_config(tmp_path, "[embedding]\ndimension = 128\n"))
        embedder = build_embedder("deterministic", config.embedding)
        assert isinstance(embedder, DeterministicEmbedder)
        assert embedder.dimension == 128

    def test_remote_embedder_with_knobs(self, tmp_path):
        config = load_config(
            write_config(
                tmp_path,
                "[embedding]\nremote_url = http://h/embed\nremote_max_retries = 1\nremote_timeout = 5\n",
            )
        )
        embedder = build_embedder("remote", config.embedding)
        assert isinstance(embedder, RemoteEmbedder)
        assert embedder.max_retries == 1 and embedder.timeout == 5.0

    def test_remote_requires_url(self, tmp_path):
        config = load_config(write_config(tmp_path, ""))
        with pytest.raises(ConfigError):
            build_embedder("remote", config.embedding)

    def test_cache_wraps_embedder(self, tmp_path):
        config = load_config(write_config(tmp_path, "[embedding]\ncache = vectors.jsonl\n"))
        embedder = build_embedder("deterministic", config.embedding)
        assert isinstance(embedder, CachingEmbedder)


class TestReadmeSample:
    @staticmethod
    def block():
        return re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL).group(1)

    def test_loads_as_written(self, tmp_path):
        config = load_config(write_config(tmp_path, self.block()))
        assert config.provider.kind == "openai-chat"
        assert config.provider.credential_env == "OPENAI_API_KEY"
        assert config.provider.endpoint == "https://api.openai.com/v1/chat/completions"
        # every other value the sample sets is the default
        defaults = load_config(write_config(tmp_path, ""))
        assert dataclasses.replace(config, provider=defaults.provider) == defaults

    def test_lists_every_option_of_every_section(self):
        listed, section = {}, None
        for line in self.block().splitlines():
            header = re.fullmatch(r"\[(\w+)\]", line)
            if header:
                section = header.group(1)
                listed[section] = set()
            option = re.match(r"(?:; )?(\w+) = ", line)
            if option:
                listed[section].add(option.group(1))
        assert listed == {section: {f.name for f in options(section)} for section in SECTIONS}
