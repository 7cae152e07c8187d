"""Text-generation provider clients: a chat-completions HTTP client and a
file-backed stub with the same contract, used for hermetic tests and dry runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

from ._http import TRANSPORT_ERRORS, post_json
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
    from config values or flags).
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        credential_env: str | None = None,
        timeout: float = 60.0,
    ):
        self.endpoint = endpoint
        self.model = model
        self.credential_env = credential_env
        self.timeout = timeout

    def complete(self, request: ProviderRequest) -> ProviderResponse:
        headers = {}
        if self.credential_env:
            key = os.environ.get(self.credential_env, "")
            if key:
                headers["Authorization"] = f"Bearer {key}"
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        try:
            status, data = post_json(self.endpoint, body, self.timeout, headers)
        except TRANSPORT_ERRORS as exc:
            raise ProviderError(f"transport failure: {exc}", retryable=True) from exc
        if status == 429 or status >= 500:
            raise ProviderError(f"HTTP {status} from provider", retryable=True)
        if status >= 400:
            raise ProviderError(f"HTTP {status} from provider", retryable=False)
        try:
            payload = json.loads(data)
            choice = payload["choices"][0]
            text = choice["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"content is {text!r}, not a string")
            usage = payload.get("usage", {})
            if not isinstance(usage, dict):
                raise TypeError(f"usage is {usage!r}, not an object")
            return ProviderResponse(
                text=text,
                finish_reason=choice.get("finish_reason", "stop"),
                prompt_tokens=int(usage.get("prompt_tokens", 0)),
                completion_tokens=int(usage.get("completion_tokens", 0)),
            )
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
        self.calls = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "StubProvider":
        """The table of a JSON file holding one object of lemma -> reply strings."""
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load stub replies from {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"stub replies file {path} must hold a JSON object of lemma -> reply strings")
        for lemma, reply in data.items():
            if not isinstance(reply, str):
                raise ConfigError(f"stub replies file {path}: the reply to {lemma!r} must be a string, got {reply!r}")
        return cls(data)

    def complete(self, request: ProviderRequest) -> ProviderResponse:
        self.calls += 1
        parts = []
        for lemma in request.lemmas:
            reply = self.replies.get(lemma)
            if reply is not None:
                parts.append(reply.rstrip("\n"))
        text = "\n".join(parts)
        return ProviderResponse(
            text=text,
            prompt_tokens=len(request.prompt.split()),
            completion_tokens=len(text.split()),
        )
