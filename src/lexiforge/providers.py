"""Text-generation provider clients: a chat-completions HTTP client and a
file-backed stub with the same contract, used for hermetic tests and dry runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import orjson

from ._http import TRANSPORT_ERRORS, JsonPoster
from .exceptions import ConfigError, ProviderError


@dataclass(frozen=True)
class ProviderRequest:
    prompt: str
    lemmas: tuple[str, ...] = ()  # the batch the prompt asks about, for providers that answer by lookup
    temperature: float = 0.0
    max_tokens: int = 2048


@dataclass(frozen=True)
class ProviderResponse:
    """Raw provider output, preserved verbatim for audit."""

    text: str
    finish_reason: str = "stop"
    prompt_tokens: int = 0
    completion_tokens: int = 0


class Provider(Protocol):
    def complete(self, request: ProviderRequest) -> ProviderResponse: ...


class HttpChatProvider:
    """Client for a chat-completions-style endpoint.

    Sends ``{"model", "messages", "temperature", "max_tokens"}`` and reads
    the generated text from ``choices[0].message.content``. The API key is
    read from the environment variable named by ``credential_env`` (never
    from config values or flags). Concurrent calls share one poster's
    kept-alive connections; ``close`` closes the idle ones.
    """

    def __init__(self, endpoint: str, model: str, credential_env: str | None = None, timeout: float = 60.0):
        self.model = model
        self.credential_env = credential_env
        self._poster = JsonPoster(endpoint, timeout)

    def close(self) -> None:
        self._poster.close()

    def complete(self, request: ProviderRequest) -> ProviderResponse:
        key = os.environ.get(self.credential_env, "") if self.credential_env else ""
        headers = {"Authorization": f"Bearer {key}"} if key else {}
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        try:
            status, data, retry_after = self._poster.post(body, headers)
        except TRANSPORT_ERRORS as exc:
            raise ProviderError(f"transport failure: {exc}") from exc
        if status >= 400:  # a 429 or 5xx may pass
            raise ProviderError(f"HTTP {status} from provider", status == 429 or status >= 500, retry_after)
        try:
            payload = orjson.loads(data)
            choice = payload["choices"][0]
            text = choice["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"content is {text!r}, not a string")
            usage = payload.get("usage", {})
            if not isinstance(usage, dict):
                raise TypeError(f"usage is {usage!r}, not an object")
            tokens = {name: usage.get(name, 0) for name in ("prompt_tokens", "completion_tokens")}
            if any(type(count) is not int for count in tokens.values()):  # int() would take 12.5, "12" and true
                raise TypeError(f"token counts {tokens} are not all integers")
            return ProviderResponse(text=text, finish_reason=choice.get("finish_reason", "stop"), **tokens)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed provider reply: {exc}", retryable=False) from exc


class StubProvider:
    """Lemma -> reply lookup table behind the provider contract.

    The stub answers the request's ``lemmas`` (the prompt's layout does
    not matter) by concatenating the table's reply block for each. Lemmas
    missing from the table are simply omitted from the reply, which the
    response parser then records as failures.
    """

    def __init__(self, replies: dict[str, str]):
        self.replies = dict(replies)

    @classmethod
    def from_file(cls, path: str | Path) -> "StubProvider":
        """The table of a JSON file holding one object of lemma -> reply strings."""
        try:
            data = orjson.loads(Path(path).read_bytes())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load stub replies from {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"stub replies file {path} must hold a JSON object of lemma -> reply strings")
        for lemma, reply in data.items():
            if not isinstance(reply, str):
                raise ConfigError(f"stub replies file {path}: the reply to {lemma!r} must be a string, got {reply!r}")
        return cls(data)

    def complete(self, request: ProviderRequest) -> ProviderResponse:
        text = "\n".join(self.replies[lemma].rstrip("\n") for lemma in request.lemmas if lemma in self.replies)
        return ProviderResponse(
            text=text,
            prompt_tokens=len(request.prompt.split()),
            completion_tokens=len(text.split()),
        )
