"""Configuration file loading and object factories.

The config file is INI-style with ``[provider]``, ``[generation]``,
``[prompt]``, ``[embedding]`` and ``[error_analysis]`` sections; every
command reads the sections it needs and falls back to defaults for the
rest. Relative paths are resolved against the config file's directory.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field
from pathlib import Path

from .embedding import CachingEmbedder, DeterministicEmbedder, EmbeddingCache, RemoteEmbedder
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


@dataclass
class AppConfig:
    provider: ProviderSettings = field(default_factory=ProviderSettings)
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    embedding: EmbeddingSettings = field(default_factory=EmbeddingSettings)
    error_analysis: ErrorAnalysisConfig = field(default_factory=ErrorAnalysisConfig)


def _get(parser: configparser.ConfigParser, section: str, option: str, cast, default, alias: str | None = None):
    if not parser.has_option(section, option):
        if alias is not None and parser.has_option(section, alias):
            option = alias
        else:
            return default
    raw = parser.get(section, option)
    try:
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {option}: cannot parse {raw!r}") from exc


def _load_fewshot(path: Path) -> tuple[tuple[str, str, str, str], ...]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        examples = tuple((str(a), str(b), str(c), str(d)) for a, b, c, d in data)
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(f"cannot load few-shot examples from {path}: {exc}") from exc
    if not examples:
        raise ConfigError(f"few-shot file {path} holds no examples")
    return examples


def load_config(path: str | Path) -> AppConfig:
    path = Path(path)
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"invalid config file {path}: {exc}") from exc
    base = path.parent

    def resolve(raw: str | None) -> Path | None:
        return None if raw is None else (base / raw).resolve() if not Path(raw).is_absolute() else Path(raw)

    provider = ProviderSettings(
        kind=_get(parser, "provider", "kind", str, "openai-chat"),
        endpoint=_get(parser, "provider", "endpoint", str, ""),
        model=_get(parser, "provider", "model", str, "gpt-4-turbo"),
        credential_env=_get(parser, "provider", "credential_env", str, None),
        timeout=_get(parser, "provider", "timeout", float, 60.0),
        replies=resolve(_get(parser, "provider", "replies", str, None)),
    )
    if provider.kind not in ("openai-chat", "stub"):
        raise ConfigError(f"[provider] kind must be 'openai-chat' or 'stub', got {provider.kind!r}")

    template = DEFAULT_PROMPT_TEMPLATE
    template_path = resolve(_get(parser, "prompt", "template", str, None))
    if template_path is not None:
        try:
            template = template_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read prompt template {template_path}: {exc}") from exc
    fewshot = DEFAULT_FEWSHOT
    fewshot_path = resolve(_get(parser, "prompt", "fewshot", str, None))
    if fewshot_path is not None:
        fewshot = _load_fewshot(fewshot_path)

    generation = GenerationConfig(
        batch_size=_get(parser, "generation", "batch_size", int, 32),
        max_retries=_get(parser, "generation", "max_retries", int, 3, alias="retries"),
        retry_backoff=_get(parser, "generation", "retry_backoff", float, 2.0, alias="backoff"),
        max_concurrent_batches=_get(parser, "generation", "max_concurrent_batches", int, 4, alias="concurrency"),
        prompt_template=template,
        fewshot_examples=fewshot,
        temperature=_get(parser, "generation", "temperature", float, 0.0),
        max_output_tokens=_get(parser, "generation", "max_output_tokens", int, 2048),
    )

    embedding = EmbeddingSettings(
        dimension=_get(parser, "embedding", "dimension", int, 512),
        remote_url=_get(parser, "embedding", "remote_url", str, None),
        remote_batch_size=_get(parser, "embedding", "remote_batch_size", int, 64),
        remote_identifier=_get(parser, "embedding", "remote_identifier", str, "remote"),
        remote_max_retries=_get(parser, "embedding", "remote_max_retries", int, 3),
        remote_retry_backoff=_get(parser, "embedding", "remote_retry_backoff", float, 1.0),
        remote_timeout=_get(parser, "embedding", "remote_timeout", float, 30.0),
        cache=resolve(_get(parser, "embedding", "cache", str, None)),
        include_examples=_get(parser, "embedding", "include_examples", bool, False),
    )
    if embedding.dimension < 1:
        raise ConfigError(f"[embedding] dimension must be >= 1, got {embedding.dimension}")

    try:
        error_analysis = ErrorAnalysisConfig(
            hallucination_threshold=_get(parser, "error_analysis", "hallucination_threshold", float, 0.1),
            overcorrection_max_edit_distance=_get(
                parser, "error_analysis", "overcorrection_max_edit_distance", int, 2
            ),
            overcorrection_similarity_floor=_get(
                parser, "error_analysis", "overcorrection_similarity_floor", float, 0.5
            ),
            fabricated_polysemy_similarity=_get(
                parser, "error_analysis", "fabricated_polysemy_similarity", float, 0.9
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"[error_analysis] {exc}") from exc

    return AppConfig(provider=provider, generation=generation, embedding=embedding, error_analysis=error_analysis)


def build_provider(settings: ProviderSettings):
    if settings.kind == "stub":
        if settings.replies is None:
            raise ConfigError("[provider] kind=stub requires a 'replies' file")
        try:
            return StubProvider.from_file(settings.replies)
        except OSError as exc:
            raise ConfigError(f"cannot read stub replies {settings.replies}: {exc}") from exc
    if not settings.endpoint:
        raise ConfigError("[provider] endpoint is required for kind=openai-chat")
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
        embedder = CachingEmbedder(embedder, EmbeddingCache(settings.cache))
    return embedder


def evaluation_snapshot(choice: str, config: AppConfig) -> dict:
    """Evaluation-relevant effective configuration embedded in the report.

    Generation-side settings (concurrency, retries, prompt) are excluded
    on purpose: they cannot influence evaluation output, and leaving them
    out keeps report bytes identical across unrelated config edits.
    """
    embedding = config.embedding
    errors = config.error_analysis
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
            "hallucination_threshold": errors.hallucination_threshold,
            "overcorrection_max_edit_distance": errors.overcorrection_max_edit_distance,
            "overcorrection_similarity_floor": errors.overcorrection_similarity_floor,
            "fabricated_polysemy_similarity": errors.fabricated_polysemy_similarity,
            "refusal_patterns": list(DEFAULT_REFUSAL_PATTERNS),
            "proper_noun_patterns": list(DEFAULT_PROPER_NOUN_PATTERNS),
        },
    }
