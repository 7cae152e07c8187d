"""Configuration file loading and object factories.

The config file is INI-style with ``[provider]``, ``[generation]``,
``[prompt]``, ``[embedding]`` and ``[error_analysis]`` sections, each read
into the dataclass whose fields are its options. An option or section left
out keeps its default; one the reader does not know is a ConfigError.
Relative paths are resolved against the config file's directory.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import orjson

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
        if not self.timeout > 0:
            raise ConfigError(f"[provider] timeout must be > 0, got {self.timeout}")


@dataclass
class PromptSettings:
    template: Path | None = None  # replaces DEFAULT_PROMPT_TEMPLATE
    fewshot: Path | None = None  # replaces DEFAULT_FEWSHOT


#: ``remote_identifier`` left unset: it names no encoder, so a vector cache cannot be keyed by it.
DEFAULT_REMOTE_IDENTIFIER = "remote"


@dataclass
class EmbeddingSettings:
    dimension: int = 512
    remote_url: str | None = None
    remote_batch_size: int = 64
    remote_identifier: str = DEFAULT_REMOTE_IDENTIFIER
    remote_max_retries: int = 3
    remote_retry_backoff: float = 1.0
    remote_timeout: float = 30.0
    cache: Path | None = None

    def __post_init__(self):
        least = dict(dimension=1, remote_batch_size=1, remote_max_retries=0, remote_retry_backoff=0)
        for name, low in least.items():
            if not getattr(self, name) >= low:  # NaN is not >= anything, so it fails too
                raise ConfigError(f"[embedding] {name} must be >= {low}, got {getattr(self, name)}")
        if not self.remote_timeout > 0:
            raise ConfigError(f"[embedding] remote_timeout must be > 0, got {self.remote_timeout}")


@dataclass
class AppConfig:
    provider: ProviderSettings = field(default_factory=ProviderSettings)
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    embedding: EmbeddingSettings = field(default_factory=EmbeddingSettings)
    error_analysis: ErrorAnalysisConfig = field(default_factory=ErrorAnalysisConfig)
    prompt: PromptSettings = field(default_factory=PromptSettings)  # the files read into ``generation``


SECTIONS = dict(  # each section of the file -> the dataclass whose fields are its options
    provider=ProviderSettings, generation=GenerationConfig, prompt=PromptSettings,
    embedding=EmbeddingSettings, error_analysis=ErrorAnalysisConfig,
)
ALIASES = {"generation": {"retries": "max_retries", "backoff": "retry_backoff", "concurrency": "max_concurrent_batches"}}
_CASTS = {"int": int, "float": float, "str": str, "str | None": str}  # Path is read in _cast


def _cast(parser: configparser.ConfigParser, section: str, option: str, annotation: str, base: Path):
    """The option's value as its field's type; a path is resolved against *base*."""
    raw = parser.get(section, option)
    if annotation == "Path | None":
        return Path(raw) if Path(raw).is_absolute() else (base / raw).resolve()
    if annotation not in _CASTS:
        raise TypeError(f"[{section}] {option}: no reader for a field of type {annotation}")
    value = _CASTS[annotation](raw)
    # float() reads inf and nan, which no option takes: orjson writes them as null, and
    # a timeout or backoff of inf overflows the socket's or time.sleep's clock
    if annotation == "float" and not math.isfinite(value):
        raise ConfigError(f"[{section}] {option} must be a finite number, got {raw!r}")
    return value


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
        data = orjson.loads(path.read_bytes())
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
    if prompt.template is not None and template.count("{{BATCH}}") != 1:
        raise ConfigError(f"[prompt] template {prompt.template} must contain the {{{{BATCH}}}} placeholder exactly once")
    fewshot = DEFAULT_FEWSHOT if prompt.fewshot is None else _load_fewshot(prompt.fewshot)
    return AppConfig(
        provider=provider,
        generation=_read_section(parser, "generation", base, prompt_template=template, fewshot_examples=fewshot),
        embedding=_read_section(parser, "embedding", base),
        error_analysis=_read_section(parser, "error_analysis", base),
        prompt=prompt,
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
        if settings.cache is not None and settings.remote_identifier == DEFAULT_REMOTE_IDENTIFIER:
            # the cache keys vectors by the identifier: without a name of its own, a
            # different encoder behind remote_url would be handed this one's vectors
            raise ConfigError(
                "[embedding] cache with --embedder remote needs remote_identifier set to a name for the encoder "
                f"behind remote_url, not {DEFAULT_REMOTE_IDENTIFIER!r}: the cache keys its vectors by that name"
            )
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
        try:
            embedder = CachingEmbedder(embedder, settings.cache)
        except OSError as exc:
            raise ConfigError(f"cannot read [embedding] cache {settings.cache}: {exc}") from exc
    return embedder


def evaluation_snapshot(choice: str, config: AppConfig) -> dict:
    """Evaluation-relevant effective configuration embedded in the report.

    Generation-side settings (concurrency, retries, prompt) and the
    embedding service's address (``remote_url``) are excluded on purpose:
    they cannot influence evaluation output, and leaving them out keeps
    report bytes identical across unrelated config edits and across hosts
    and ports that serve the same encoder, which ``remote_identifier``
    names.
    """
    embedding = config.embedding
    return {
        "embedder": choice,
        "embedding": {
            "dimension": embedding.dimension,
            "remote_batch_size": embedding.remote_batch_size,
            "remote_identifier": embedding.remote_identifier,
        },
        "error_analysis": {
            **asdict(config.error_analysis),
            "refusal_patterns": list(DEFAULT_REFUSAL_PATTERNS),
            "proper_noun_patterns": list(DEFAULT_PROPER_NOUN_PATTERNS),
        },
    }
