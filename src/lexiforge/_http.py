"""The one request engine both service clients use: POST JSON over kept-alive
connections, retry transient failures, and run requests on lanes in input order."""

from __future__ import annotations

import base64
import collections
import http.client
import itertools
import re
import threading
import urllib.parse
import urllib.request
from concurrent.futures import CancelledError, ThreadPoolExecutor
from typing import Callable, Iterable, Iterator

import orjson

from .exceptions import RequestError

#: What ``JsonPoster.post`` raises when no reply came back: a URL or header
#: it cannot send, a refused, broken or timed-out connection.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)

#: The longest wait, in seconds, a ``Retry-After`` header can ask of ``retry``.
RETRY_AFTER_CAP = 60.0

# Characters a request target keeps as they are (requests' set): the URL
# delimiters and ``%`` of escapes already made. Anything else, such as a
# space or a non-ASCII letter, is percent-encoded as UTF-8.
_TARGET_SAFE = "!#$%&'()*+,/:;=?@[]~"
_DELAY_SECONDS = re.compile(r"\d+(\.\d+)?")


def ordered_map(fn: Callable, items: Iterable, lanes: int) -> Iterator:
    """``fn(item, stop)`` of every item, run on *lanes* threads, yielded in input order.

    At most ``2 * lanes`` items are sent ahead of the one being consumed.
    The first item to raise sets the event *stop*, which ends the other
    items' ``retry`` in ``CancelledError`` before their next request; its
    exception is raised when the consumer reaches that item, and the
    results before it are yielded up to the first item it stopped. Close
    the iterator when leaving it early, so that its lanes stop at once.
    """
    stop = threading.Event()
    items = iter(items)

    def run(item):
        try:
            return fn(item, stop)
        except BaseException:
            stop.set()
            raise

    with ThreadPoolExecutor(lanes) as pool:
        try:
            pending = collections.deque(pool.submit(run, item) for item in itertools.islice(items, 2 * lanes))
            stopped = False  # an item was stopped: no later result may be yielded
            while pending:
                future = pending.popleft()
                try:
                    result = future.result()
                except CancelledError:
                    stopped = True  # the failure that stopped it is raised when the loop reaches it
                    continue
                if not stop.is_set():
                    pending.extend(pool.submit(run, item) for item in itertools.islice(items, 1))
                if not stopped:
                    yield result
        finally:
            stop.set()


def retry(call: Callable, max_retries: int, backoff: float, sleep: Callable[[float], None], stop: threading.Event):
    """``call()``, called again after each retryable ``RequestError``, at most *max_retries* times.

    Retry n waits ``backoff * 2**n`` seconds, or the error's ``retry_after``
    when that is longer, up to ``RETRY_AFTER_CAP``. Once *stop* is set, no
    call is made: ``CancelledError`` is raised instead.
    """
    for attempt in itertools.count():
        if stop.is_set():
            raise CancelledError
        try:
            return call()
        except RequestError as exc:
            if not exc.retryable or attempt >= max_retries:
                raise
            sleep(max(backoff * 2**attempt, min(exc.retry_after or 0.0, RETRY_AFTER_CAP)))


class JsonPoster:
    """POSTs JSON to one URL over kept-alive connections; safe to share between threads.

    Each post takes the idle connection last put back on a stack, or opens
    one when none is idle, and puts it back once the reply is read: posts
    in a row pay the TCP and TLS set-up once, and a poster never holds more
    connections than it has had posts in flight at once. A 4xx or 5xx reply
    is returned for the caller to classify, with the delta-seconds of a 429
    or 503's ``Retry-After``; redirects are not followed. The environment's
    proxy settings (``http_proxy``, ``https_proxy``, ``no_proxy``) apply.
    """

    def __init__(self, url: str, timeout: float):
        self.url = url
        self.timeout = timeout
        self._idle: list[tuple[http.client.HTTPConnection, str, dict[str, str]]] = []
        self._lock = threading.Lock()

    def post(self, body, headers: dict[str, str] | None = None) -> tuple[int, bytes, float | None]:
        """POST *body* as JSON; the reply's status and body, and the delay a 429 or 503 asks for."""
        data = orjson.dumps(body)
        headers = {"Content-Type": "application/json", **(headers or {})}
        with self._lock:
            kept = self._idle.pop() if self._idle else None
        if kept is not None:
            try:
                return self._exchange(kept, data, headers)
            except ConnectionError:
                pass  # the server closed the kept connection while it was idle: send again on a new one
        return self._exchange(None, data, headers)

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for connection, _, _ in idle:
            connection.close()

    def _exchange(self, kept, data: bytes, headers: dict[str, str]) -> tuple[int, bytes, float | None]:
        """One POST over the *kept* (connection, target, proxy headers), or over a new connection when None."""
        connection = None
        try:
            connection, target, proxy_headers = kept or self._connect()
            connection.request("POST", target, data, {**proxy_headers, **headers})
            reply = connection.getresponse()
            status, content = reply.status, reply.read()
        except (ValueError, *TRANSPORT_ERRORS) as exc:
            if connection is not None:
                connection.close()
            if isinstance(exc, ValueError):  # a malformed URL, or a header value with a line break
                raise http.client.HTTPException(f"cannot send to {self.url!r}: {exc}") from exc
            raise
        if reply.will_close:
            connection.close()
        else:
            with self._lock:
                self._idle.append((connection, target, proxy_headers))
        delay = (reply.getheader("Retry-After") or "").strip() if status in (429, 503) else ""
        return status, content, float(delay) if _DELAY_SECONDS.fullmatch(delay) else None

    def _connect(self) -> tuple[http.client.HTTPConnection, str, dict[str, str]]:
        """A new connection, with the request target and the proxy headers each request on it sends."""
        url = urllib.parse.urlsplit(self.url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError("not an http or https URL")
        connection_type = http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        target = urllib.parse.quote(url.path or "/", safe=_TARGET_SAFE)
        if url.query:
            target += "?" + urllib.parse.quote(url.query, safe=_TARGET_SAFE)
        proxy = urllib.request.getproxies().get(url.scheme)
        if not proxy or urllib.request.proxy_bypass(url.hostname):
            return connection_type(url.hostname, url.port, timeout=self.timeout), target, {}
        proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
        proxy_headers = {}
        if proxy_url.username:
            credentials = f"{urllib.parse.unquote(proxy_url.username)}:{urllib.parse.unquote(proxy_url.password or '')}"
            proxy_headers["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials.encode()).decode()
        connection = connection_type(proxy_url.hostname, proxy_url.port or 80, timeout=self.timeout)
        if url.scheme == "https":  # a CONNECT tunnel to the host; TLS runs end to end through it
            connection.set_tunnel(url.hostname, url.port, headers=proxy_headers)
            return connection, target, {}
        # a plain-HTTP proxy takes the absolute URL as the request target
        return connection, f"http://{url.netloc.rpartition('@')[2]}{target}", proxy_headers
