"""Hermetic fake services the benchmark runs in child processes.

    python3 perfbench/fakes.py embed --texts TEXTS.json
    python3 perfbench/fakes.py chat

Each binds 127.0.0.1 on a free port and prints ``PORT <n>`` once it is
listening. Besides its service endpoint (``POST /embed`` or ``POST
/v1/chat/completions``) each answers ``GET /stats`` with its own counters
and ``POST /reset`` to zero them between repetitions.

Replies depend only on request content (and, for the chat fake, on how
often that same prompt was sent before), never on arrival order, so
outcomes do not depend on thread interleaving. Every reply goes out in a
single write with TCP_NODELAY: a keep-alive server that writes headers
and body separately runs into delayed ACKs and stretches each call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import fixtures  # noqa: E402

EMBED_LATENCY_S = 0.002
EMBED_PER_TEXT_S = 0.00005
CHAT_LATENCY_S = 0.030
CHAT_PER_WORD_S = 0.00012
CHAT_429_PERCENT = 5  # of prompts, on their first attempt only
# The program ignores Retry-After today; 0 keeps honouring it free, so a
# change that starts honouring it is not charged for waiting the fake
# never enforces.
RETRY_AFTER = "0"


class Meter:
    """Request counts, service time and in-flight occupancy of one fake.

    ``busy_s`` is time with at least one request in flight, ``idle_s`` time
    between the first arrival and the last reply with fewer than
    ``lanes`` requests in flight.
    """

    def __init__(self, lanes: int):
        self.lanes = lanes
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.counts: dict[str, int] = {}
            self.in_flight = 0
            self.max_in_flight = 0
            self.service_s = 0.0
            self.busy_s = 0.0
            self.idle_s = 0.0
            self._mark: float | None = None

    def _advance(self, now: float) -> None:
        if self._mark is not None:
            elapsed = now - self._mark
            if self.in_flight:
                self.busy_s += elapsed
            if self.in_flight < self.lanes:
                self.idle_s += elapsed
        self._mark = now

    def enter(self) -> float:
        now = time.perf_counter()
        with self._lock:
            self._advance(now)
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        return now

    def leave(self, started: float, **counts: int) -> None:
        now = time.perf_counter()
        with self._lock:
            self._advance(now)
            self.in_flight -= 1
            self.service_s += now - started
            for name, n in counts.items():
                self.counts[name] = self.counts.get(name, 0) + n

    def snapshot(self) -> dict:
        with self._lock:
            return {
                **self.counts,
                "max_in_flight": self.max_in_flight,
                "service_s": self.service_s,
                "busy_s": self.busy_s,
                "idle_s": self.idle_s,
            }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server_version = "perfbench-fake"

    def log_message(self, format, *args):  # keep stderr quiet
        pass

    def _reply(self, status: int, body: bytes, extra: str = "") -> None:
        reason = {200: "OK", 404: "Not Found", 429: "Too Many Requests"}.get(status, "Error")
        head = (
            f"HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n{extra}\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def _body(self) -> dict:
        return json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))) or b"{}")

    def do_GET(self):
        if self.path == "/stats":
            self._reply(200, json.dumps(self.server.meter.snapshot()).encode())
        else:
            self._reply(404, b"{}")

    def do_POST(self):
        if self.path == "/reset":
            self._body()
            self.server.reset()
            self._reply(200, b"{}")
            return
        self.server.serve(self)


class EmbedServer(ThreadingHTTPServer):
    """Sentence-encoder stand-in: signed trigram counts, precomputed."""

    daemon_threads = True

    def __init__(self, texts: list[str]):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.meter = Meter(lanes=1)
        matrix = fixtures.trigram_matrix(texts)
        rows = json.dumps(matrix.tolist())[2:-2].split("], [")
        self.vectors = {text: ("[" + row + "]").encode() for text, row in zip(texts, rows)}

    def reset(self) -> None:
        self.meter.reset()

    def serve(self, handler: _Handler) -> None:
        started = self.meter.enter()
        texts = handler._body()["texts"]
        misses = [t for t in texts if t not in self.vectors]
        if misses:
            for text, row in zip(misses, fixtures.trigram_matrix(misses)):
                self.vectors[text] = json.dumps(row.tolist()).encode()
        body = b'{"dimension": %d, "vectors": [' % fixtures.DIMENSION + b",".join(self.vectors[t] for t in texts) + b"]}"
        time.sleep(EMBED_LATENCY_S + EMBED_PER_TEXT_S * len(texts))
        handler._reply(200, body)
        self.meter.leave(started, requests=1, texts=len(texts), misses=len(misses))


_WORD_END = re.compile(r"\S+")


def batch_lines(prompt: str) -> list[tuple[str, str | None]]:
    """(lemma, label) pairs from the trailing block of the prompt."""
    block = []
    for line in reversed(prompt.rstrip().splitlines()):
        if not line.strip():
            break
        block.append(line.strip())
    pairs = []
    for line in reversed(block):
        if line.endswith(":"):
            continue
        lemma, _, label = line.partition(" — ")
        pairs.append((lemma.strip(), label.strip() or None))
    return pairs


class ChatServer(ThreadingHTTPServer):
    """Chat-completions stand-in: a lexicographer with faults.

    Latency is fixed plus a per-word cost of the reply. About 5% of
    prompts get a 429 on their first attempt. A reply longer than the
    request's ``max_tokens`` (counted in words) is cut there and marked
    ``finish_reason: "length"``.
    """

    daemon_threads = True

    def __init__(self, lanes: int):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.meter = Meter(lanes=lanes)
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    def reset(self) -> None:
        self.meter.reset()
        with self._lock:
            self._attempts.clear()

    def serve(self, handler: _Handler) -> None:
        started = self.meter.enter()
        request = handler._body()
        prompt = request["messages"][-1]["content"]
        key = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        with self._lock:
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
        if attempt == 0 and fixtures.bucket(key, "429") < CHAT_429_PERCENT:
            time.sleep(CHAT_LATENCY_S)
            handler._reply(429, b'{"error": "rate limited"}', f"Retry-After: {RETRY_AFTER}\r\n")
            self.meter.leave(started, requests=1, http_429=1)
            return
        blocks = [fixtures.chat_reply(lemma, label) for lemma, label in batch_lines(prompt)]
        text = "\n".join(b for b in blocks if b)
        limit = int(request.get("max_tokens") or 0)
        words = list(_WORD_END.finditer(text))
        finish = "stop"
        if limit and len(words) > limit:
            text = text[: words[limit - 1].end()]
            words = words[:limit]
            finish = "length"
        body = json.dumps(
            {
                "choices": [{"message": {"role": "assistant", "content": text}, "finish_reason": finish}],
                "usage": {"prompt_tokens": len(prompt.split()), "completion_tokens": len(words)},
            },
            ensure_ascii=False,
        ).encode("utf-8")
        time.sleep(CHAT_LATENCY_S + CHAT_PER_WORD_S * len(words))
        handler._reply(200, body)
        self.meter.leave(started, requests=1, truncated=int(finish == "length"), completion_words=len(words))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("kind", choices=["embed", "chat"])
    parser.add_argument("--texts", help="JSON list of texts the encoder precomputes (embed)")
    parser.add_argument("--lanes", type=int, help="concurrency the idle time is measured against (chat)")
    args = parser.parse_args()
    if args.kind == "chat" and not args.lanes:
        parser.error("chat needs --lanes")
    if args.kind == "embed":
        server = EmbedServer(json.loads(Path(args.texts).read_text(encoding="utf-8")))
    else:
        server = ChatServer(args.lanes)
    print(f"PORT {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
