"""Configuration file loading and object factories.

The config file is INI-style with ``[provider]``, ``[generation]``,
``[prompt]``, ``[embedding]`` and ``[error_analysis]`` sections, each read
into the dataclass whose fields are its options. An option or section left
out keeps its default; one the reader does not know is a ConfigError.
Relative paths are resolved against the config file's directory.
"""

from __future__ import annotations

import configparser
import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .embedding import CachingEmbedder, DeterministicEmbedder, RemoteEmbedder
from .error_analysis import DEFAULT_PROPER_NOUN_PATTERNS, ErrorAnalysisConfig
from .exceptions import ConfigError
from .generation import DEFAULT_FEWSHOT, DEFAULT_PROMPT_TEMPLATE, DEFAULT_REFUSAL_PATTERNS, GenerationConfig
from .providers import HttpChatProvider, StubProvider


@dataclass
class ProviderSettings:
    kind: str = "openai-chat"  # or "stub"
    endpoint: str = ""
    model: str = "gpt-4-turbo"
    credential_env: str | None = None
    timeout: float = 60.0
    replies: Path | None = None  # stub lookup table

    def __post_init__(self):
        if self.kind not in ("openai-chat", "stub"):
            raise ConfigError(f"[provider] kind must be 'openai-chat' or 'stub', got {self.kind!r}")


@dataclass
class PromptSettings:
    template: Path | None = None  # replaces DEFAULT_PROMPT_TEMPLATE
    fewshot: Path | None = None  # replaces DEFAULT_FEWSHOT


@dataclass
class EmbeddingSettings:
    dimension: int = 512
    remote_url: str | None = None
    remote_batch_size: int = 64
    remote_identifier: str = "remote"
    remote_max_retries: int = 3
    remote_retry_backoff: float = 1.0
    remote_timeout: float = 30.0
    cache: Path | None = None
    include_examples: bool = False

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigError(f"[embedding] dimension must be >= 1, got {self.dimension}")


@dataclass
class AppConfig:
    provider: ProviderSettings = field(default_factory=ProviderSettings)
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    embedding: EmbeddingSettings = field(default_factory=EmbeddingSettings)
    error_analysis: ErrorAnalysisConfig = field(default_factory=ErrorAnalysisConfig)


SECTIONS = dict(  # each section of the file -> the dataclass whose fields are its options
    provider=ProviderSettings, generation=GenerationConfig, prompt=PromptSettings,
    embedding=EmbeddingSettings, error_analysis=ErrorAnalysisConfig,
)
ALIASES = {"generation": {"retries": "max_retries", "backoff": "retry_backoff", "concurrency": "max_concurrent_batches"}}
_CASTS = {"int": int, "float": float, "str": str, "str | None": str}  # bool and Path are read in _cast


def _cast(parser: configparser.ConfigParser, section: str, option: str, annotation: str, base: Path):
    """The option's value as its field's type; a path is resolved against *base*."""
    if annotation == "bool":
        return parser.getboolean(section, option)
    raw = parser.get(section, option)
    if annotation == "Path | None":
        return Path(raw) if Path(raw).is_absolute() else (base / raw).resolve()
    if annotation not in _CASTS:
        raise TypeError(f"[{section}] {option}: no reader for a field of type {annotation}")
    return _CASTS[annotation](raw)


def _read_section(parser: configparser.ConfigParser, section: str, base: Path, **given):
    """The section's dataclass built from its options, each cast by the annotation of the field it names.

    Fields in *given* come from the caller, not the file. An option naming no field, or a field in
    *given*, is a ConfigError; a field with no option keeps its default. An option wins
    over its alias.
    """
    cls = SECTIONS[section]
    annotations = {f.name: f.type for f in fields(cls) if f.name not in given}
    aliases = ALIASES.get(section, {})
    values = dict(given)
    for option in parser.options(section) if parser.has_section(section) else ():
        name = aliases.get(option, option)
        if name not in annotations:
            raise ConfigError(f"[{section}] unknown option {option!r}; known: {', '.join(annotations)}")
        if name != option and parser.has_option(section, name):
            continue
        try:
            values[name] = _cast(parser, section, option, annotations[name], base)
        except (ValueError, configparser.Error) as exc:
            raw = parser.get(section, option, raw=True)
            raise ConfigError(f"[{section}] {option}: cannot parse {raw!r} as {annotations[name]}") from exc
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


_FEWSHOT_FIELDS = ("lemma", "pos-label", "definition", "example")


def _load_fewshot(path: Path) -> tuple[tuple[str, str, str, str], ...]:
    """The examples of a JSON list of [lemma, pos-label, definition, example] lists of strings."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load few-shot examples from {path}: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise ConfigError(f"few-shot file {path} holds no examples")
    for index, example in enumerate(data):
        if not isinstance(example, list) or len(example) != len(_FEWSHOT_FIELDS):
            raise ConfigError(f"few-shot example {index} in {path} is not a list of {', '.join(_FEWSHOT_FIELDS)}")
        for name, value in zip(_FEWSHOT_FIELDS, example):
            if not isinstance(value, str):
                raise ConfigError(f"few-shot example {index} in {path}: {name} must be a string, got {value!r}")
    return tuple(tuple(example) for example in data)


def load_config(path: str | Path) -> AppConfig:
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)  # values are read literally: a % is a %
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"invalid config file {path}: {exc}") from exc
    unknown = [f"[{name}]" for name in parser.sections() if name not in SECTIONS]
    if unknown:
        raise ConfigError(f"unknown section {', '.join(unknown)} in {path}; known: {', '.join(SECTIONS)}")
    if parser.defaults():
        raise ConfigError(f"[DEFAULT] sets {', '.join(parser.defaults())}; move each option into its own section")
    base = path.parent

    provider = _read_section(parser, "provider", base)
    prompt = _read_section(parser, "prompt", base)
    try:
        template = DEFAULT_PROMPT_TEMPLATE if prompt.template is None else prompt.template.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read prompt template {prompt.template}: {exc}") from exc
    fewshot = DEFAULT_FEWSHOT if prompt.fewshot is None else _load_fewshot(prompt.fewshot)
    return AppConfig(
        provider=provider,
        generation=_read_section(parser, "generation", base, prompt_template=template, fewshot_examples=fewshot),
        embedding=_read_section(parser, "embedding", base),
        error_analysis=_read_section(parser, "error_analysis", base),
    )


def build_provider(settings: ProviderSettings):
    if settings.kind == "stub":
        if settings.replies is None:
            raise ConfigError("[provider] kind=stub requires a 'replies' file")
        return StubProvider.from_file(settings.replies)
    if not settings.endpoint:
        raise ConfigError("[provider] endpoint is required for kind=openai-chat")
    if settings.credential_env and not os.environ.get(settings.credential_env):
        raise ConfigError(f"[provider] credential_env names {settings.credential_env}, which is unset or empty")
    return HttpChatProvider(
        endpoint=settings.endpoint,
        model=settings.model,
        credential_env=settings.credential_env,
        timeout=settings.timeout,
    )


def build_embedder(choice: str, settings: EmbeddingSettings):
    """Embedder for cmd_evaluate: 'deterministic' or 'remote' (+ optional cache)."""
    if choice == "deterministic":
        embedder = DeterministicEmbedder(dimension=settings.dimension)
    elif choice == "remote":
        if not settings.remote_url:
            raise ConfigError("[embedding] remote_url is required for --embedder remote")
        embedder = RemoteEmbedder(
            url=settings.remote_url,
            batch_size=settings.remote_batch_size,
            max_retries=settings.remote_max_retries,
            retry_backoff=settings.remote_retry_backoff,
            timeout=settings.remote_timeout,
            identifier=settings.remote_identifier,
        )
    else:
        raise ConfigError(f"unknown embedder {choice!r}")
    if settings.cache is not None:
        embedder = CachingEmbedder(embedder, settings.cache)
    return embedder


def evaluation_snapshot(choice: str, config: AppConfig) -> dict:
    """Evaluation-relevant effective configuration embedded in the report.

    Generation-side settings (concurrency, retries, prompt) are excluded
    on purpose: they cannot influence evaluation output, and leaving them
    out keeps report bytes identical across unrelated config edits.
    """
    embedding = config.embedding
    return {
        "embedder": choice,
        "embedding": {
            "dimension": embedding.dimension,
            "remote_url": embedding.remote_url,
            "remote_batch_size": embedding.remote_batch_size,
            "remote_identifier": embedding.remote_identifier,
            "include_examples": embedding.include_examples,
        },
        "error_analysis": {
            **asdict(config.error_analysis),
            "refusal_patterns": list(DEFAULT_REFUSAL_PATTERNS),
            "proper_noun_patterns": list(DEFAULT_PROPER_NOUN_PATTERNS),
        },
    }
