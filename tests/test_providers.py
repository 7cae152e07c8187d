import json
from http.server import BaseHTTPRequestHandler

import pytest
from click.testing import CliRunner

from lexiforge.cli import main
from lexiforge.exceptions import ConfigError, ProviderError
from lexiforge.generation import GenerationConfig, LemmaRecord, build_prompt, render_reply_block, run_generation
from lexiforge.ingestion import parse_dictionary, parse_failures
from lexiforge.model import PosTag
from lexiforge.providers import HttpChatProvider, ProviderRequest, StubProvider

from conftest import http_server


class ChatHandler(BaseHTTPRequestHandler):
    """Scriptable chat-completions endpoint for wire-contract tests."""

    script: list[dict] = []  # each: {"status": int, "body": dict|str}
    requests_seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        ChatHandler.requests_seen.append(
            {"body": payload, "auth": self.headers.get("Authorization"), "target": self.path}
        )
        step = ChatHandler.script.pop(0) if ChatHandler.script else {"status": 200, "body": _ok_body("hola")}
        body = step["body"]
        data = (body if isinstance(body, str) else json.dumps(body)).encode("utf-8")
        self.send_response(step["status"])
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def _ok_body(text: str) -> dict:
    return {
        "choices": [{"message": {"content": text}, "finish_reason": "stop"}],
        "usage": {"prompt_tokens": 11, "completion_tokens": 7},
    }


@pytest.fixture
def chat_server():
    with http_server(ChatHandler) as url:
        ChatHandler.script = []
        ChatHandler.requests_seen = []
        yield f"{url}/v1/chat/completions"


REQUEST = ProviderRequest(prompt="define: casa", temperature=0.0, max_tokens=256)


class TestHttpChatProvider:
    def test_success_parses_text_and_usage(self, chat_server):
        ChatHandler.script = [{"status": 200, "body": _ok_body("casa: Nombre femenino: Edificio.")}]
        provider = HttpChatProvider(chat_server, model="gpt-4-turbo")
        response = provider.complete(REQUEST)
        assert response.text == "casa: Nombre femenino: Edificio."
        assert response.prompt_tokens == 11 and response.completion_tokens == 7
        sent = ChatHandler.requests_seen[0]["body"]
        assert sent["model"] == "gpt-4-turbo"
        assert sent["messages"] == [{"role": "user", "content": "define: casa"}]
        assert sent["temperature"] == 0.0 and sent["max_tokens"] == 256

    def test_credential_env_sets_bearer_header(self, chat_server, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "sk-secreto")
        provider = HttpChatProvider(chat_server, model="m", credential_env="TEST_PROVIDER_KEY")
        provider.complete(REQUEST)
        assert ChatHandler.requests_seen[0]["auth"] == "Bearer sk-secreto"

    def test_server_error_is_retryable(self, chat_server):
        ChatHandler.script = [{"status": 503, "body": {}}]
        provider = HttpChatProvider(chat_server, model="m")
        with pytest.raises(ProviderError) as exc:
            provider.complete(REQUEST)
        assert exc.value.retryable

    def test_rate_limit_is_retryable(self, chat_server):
        ChatHandler.script = [{"status": 429, "body": {}}]
        with pytest.raises(ProviderError) as exc:
            HttpChatProvider(chat_server, model="m").complete(REQUEST)
        assert exc.value.retryable

    def test_client_error_is_not_retryable(self, chat_server):
        ChatHandler.script = [{"status": 400, "body": {}}]
        with pytest.raises(ProviderError) as exc:
            HttpChatProvider(chat_server, model="m").complete(REQUEST)
        assert not exc.value.retryable

    def test_malformed_body_is_not_retryable(self, chat_server):
        ChatHandler.script = [{"status": 200, "body": {"unexpected": True}}]
        with pytest.raises(ProviderError) as exc:
            HttpChatProvider(chat_server, model="m").complete(REQUEST)
        assert not exc.value.retryable

    @pytest.mark.parametrize(
        "body",
        [
            {**_ok_body("x"), "choices": [{"message": {"content": None}, "finish_reason": "stop"}]},
            {**_ok_body("x"), "usage": None},
            {**_ok_body("x"), "usage": {"prompt_tokens": "x", "completion_tokens": 7}},
        ],
        ids=["null-content", "null-usage", "token-count-not-a-number"],
    )
    def test_malformed_reply_becomes_provider_error_failures(self, chat_server, body, tmp_path):
        # one batch at a time, so the malformed reply answers the first batch; it must not
        # be retried: a retry would get the well-formed default reply, which defines
        # nothing and records parse errors
        ChatHandler.script = [{"status": 200, "body": body}]
        (tmp_path / "lemmas.txt").write_text("casa\ngato\nperro\n", encoding="utf-8")
        (tmp_path / "chat.ini").write_text(
            f"[provider]\nendpoint = {chat_server}\n"
            "[generation]\nbatch_size = 2\nretry_backoff = 0.0\nmax_concurrent_batches = 1\n",
            encoding="utf-8",
        )
        result = CliRunner().invoke(
            main,
            [
                "generate",
                "--lemmas", str(tmp_path / "lemmas.txt"),
                "--config", str(tmp_path / "chat.ini"),
                "--out", str(tmp_path / "dictionary.jsonl"),
                "--failures", str(tmp_path / "failures.jsonl"),
            ],
        )
        assert result.exit_code == 0, result.output
        with open(tmp_path / "dictionary.jsonl", encoding="utf-8") as fh:
            entries = parse_dictionary(fh).entries()
        with open(tmp_path / "failures.jsonl", encoding="utf-8") as fh:
            failures = parse_failures(fh)
        assert len(entries) + len(failures) == 3
        malformed = [f for f in failures if f.reason.value == "provider_error"]
        assert [f.lemma for f in malformed] == ["casa", "gato"]
        assert all("malformed provider reply" in f.detail for f in malformed)

    def test_connection_failure_is_retryable(self):
        provider = HttpChatProvider("http://127.0.0.1:1/none", model="m", timeout=0.2)
        with pytest.raises(ProviderError) as exc:
            provider.complete(REQUEST)
        assert exc.value.retryable

    @pytest.mark.parametrize(
        "url", ["chat-service/v1/chat/completions", "http://[::1", "http://127.0.0.1:port/", "file:///dev/null"]
    )
    def test_url_that_cannot_be_sent_to_is_transport_failure(self, url):
        with pytest.raises(ProviderError, match="transport failure") as exc:
            HttpChatProvider(url, model="m").complete(REQUEST)
        assert exc.value.retryable

    def test_credential_with_line_break_is_transport_failure(self, chat_server, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "sk-secreto\r\nX-Injected: 1")
        provider = HttpChatProvider(chat_server, model="m", credential_env="TEST_PROVIDER_KEY")
        with pytest.raises(ProviderError, match="transport failure") as exc:
            provider.complete(REQUEST)
        assert exc.value.retryable
        assert ChatHandler.requests_seen == []

    def test_http_proxy_from_environment(self, chat_server, monkeypatch):
        # the test server plays the proxy: it gets the absolute URL as the request target
        for name in ("no_proxy", "NO_PROXY", "http_proxy", "HTTP_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("http_proxy", chat_server.rsplit("/v1/", 1)[0])
        HttpChatProvider("http://127.0.0.1:9/v1/chat/completions", model="m").complete(REQUEST)
        assert ChatHandler.requests_seen[0]["target"] == "http://127.0.0.1:9/v1/chat/completions"


def prompt_lemmas(prompt: str) -> list[str]:
    """The lemmas of a prompt laid out by the default template: its trailing run of non-empty lines."""
    block = []
    for line in reversed(prompt.rstrip().splitlines()):
        if not line.strip():
            break
        block.append(line.strip())
    # instruction headers end with ':'; lemma lines never do
    return [line.split(" — ")[0].strip() for line in reversed(block) if not line.endswith(":")]


class LemmaChatHandler(BaseHTTPRequestHandler):
    """Chat endpoint that defines every lemma of the prompt and records the connection of each request.

    It speaks HTTP/1.1, so a client that keeps connections alive sends
    several requests over one of them.
    """

    protocol_version = "HTTP/1.1"
    served: list[tuple[int, int]] = []  # (client port, number of this request on its connection)

    def do_POST(self):
        self.on_connection = getattr(self, "on_connection", 0) + 1
        LemmaChatHandler.served.append((self.client_address[1], self.on_connection))
        prompt = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["messages"][0]["content"]
        text = "\n".join(
            render_reply_block(lemma, "Verbo", [(f"Acción propia de {lemma[::-1]}.", None)])
            for lemma in prompt_lemmas(prompt)
        )
        data = json.dumps(_ok_body(text)).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class TestConcurrentGeneration:
    def test_worker_threads_share_no_connection(self):
        LemmaChatHandler.served = []
        with http_server(LemmaChatHandler) as url:
            provider = HttpChatProvider(f"{url}/v1/chat/completions", model="m")
            lemmas = [LemmaRecord(f"lema{i:02d}") for i in range(48)]
            config = GenerationConfig(batch_size=3, max_concurrent_batches=4)
            dictionary, failures, stats = run_generation(lemmas, provider, config)
        assert len(dictionary) + len(failures) == len(lemmas)
        assert failures == [] and {entry.lemma for entry in dictionary.entries()} == {r.lemma for r in lemmas}
        assert len(LemmaChatHandler.served) == stats.requests == 16
        assert {number for _, number in LemmaChatHandler.served} == {1}


class RecordingStub(StubProvider):
    def __init__(self, replies):
        super().__init__(replies)
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return super().complete(request)


class TestStubProvider:
    def test_request_carries_batch_lemmas(self):
        provider = RecordingStub({})
        run_generation([LemmaRecord("casa"), LemmaRecord("limitar")], provider, GenerationConfig(batch_size=2))
        assert [r.lemmas for r in provider.requests] == [("casa", "limitar")]

    def test_request_lemmas_leave_out_the_pos_label(self):
        provider = RecordingStub({})
        run_generation([LemmaRecord("gato", PosTag.from_label("Nombre masculino"))], provider)
        assert provider.requests[0].lemmas == ("gato",)
        assert "gato — Nombre masculino" in provider.requests[0].prompt

    @pytest.mark.parametrize(
        "template",
        ["Define estos lemas:\n{{BATCH}}\n\nResponde en español.\n", "Lemas: {{BATCH}}"],
        ids=["text-after-batch", "batch-inline"],
    )
    def test_custom_template_defines_every_lemma(self, template):
        lemmas = ["casa", "limitar", "gato"]
        provider = StubProvider({lemma: f"{lemma}: Verbo: Definición de {lemma}." for lemma in lemmas})
        config = GenerationConfig(prompt_template=template)
        dictionary, failures, _ = run_generation([LemmaRecord(lemma) for lemma in lemmas], provider, config)
        assert failures == []
        assert sorted(entry.lemma for entry in dictionary.entries()) == sorted(lemmas)

    def test_lookup_concatenates_known_replies(self):
        provider = StubProvider({"casa": "casa: Nombre femenino: Edificio para habitar."})
        prompt = build_prompt([LemmaRecord("casa"), LemmaRecord("perdido")], GenerationConfig())
        response = provider.complete(ProviderRequest(prompt=prompt, lemmas=("casa", "perdido")))
        assert response.text == "casa: Nombre femenino: Edificio para habitar."
        assert provider.calls == 1

    def test_from_file(self, data_dir):
        provider = StubProvider.from_file(data_dir / "stub_replies.json")
        assert "limitar" in provider.replies

    @pytest.mark.parametrize(
        ("text", "named"),
        [
            ('{"casa": ', "cannot load stub replies"),
            ('["casa"]', "must hold a JSON object"),
            ('{"casa": null}', "the reply to 'casa' must be a string, got None"),
            ('{"casa": 3}', "the reply to 'casa' must be a string, got 3"),
        ],
        ids=["invalid-json", "not-an-object", "null-reply", "number-reply"],
    )
    def test_malformed_file_is_config_error(self, tmp_path, text, named):
        path = tmp_path / "replies.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=named) as exc:
            StubProvider.from_file(path)
        assert str(path) in str(exc.value)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot load stub replies"):
            StubProvider.from_file(tmp_path / "no_such_replies.json")
