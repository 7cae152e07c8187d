"""The one HTTP exchange both service clients make: POST a JSON body, read the reply."""

from __future__ import annotations

import base64
import http.client
import json
import urllib.parse
import urllib.request

#: What ``JsonPoster.post`` and ``post_json`` raise when no reply came back:
#: a URL or header they cannot send, a refused, broken or timed-out connection.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)

# Characters a request target keeps as they are (requests' set): the URL
# delimiters and ``%`` of escapes already made. Anything else, such as a
# space or a non-ASCII letter, is percent-encoded as UTF-8.
_TARGET_SAFE = "!#$%&'()*+,/:;=?@[]~"


class JsonPoster:
    """POSTs JSON to one URL over one connection, kept open between posts.

    A caller that posts one request after another pays the TCP and TLS
    set-up once. A poster is not thread-safe: each thread needs its own.
    A 4xx or 5xx reply is returned like any other, for the caller to
    classify; redirects are not followed. The environment's proxy settings
    (``http_proxy``, ``https_proxy``, ``no_proxy``) apply.
    """

    def __init__(self, url: str, timeout: float):
        self.url = url
        self.timeout = timeout
        self._connection: http.client.HTTPConnection | None = None
        self._target = ""
        self._proxy_headers: dict[str, str] = {}

    def post(self, body, headers: dict[str, str] | None = None) -> tuple[int, bytes]:
        """POST *body* as JSON; return the reply's status and body bytes."""
        data = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json", **(headers or {})}
        if self._connection is not None:
            try:
                return self._exchange(data, headers)
            except ConnectionError:
                pass  # the server closed the kept connection while it was idle: send again on a new one
        return self._exchange(data, headers)

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def _exchange(self, data: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        try:
            if self._connection is None:
                self._connect()
            self._connection.request("POST", self._target, data, {**self._proxy_headers, **headers})
            reply = self._connection.getresponse()
            status, content = reply.status, reply.read()
        except ValueError as exc:  # a malformed URL, or a header value with a line break
            self.close()
            raise http.client.HTTPException(f"cannot send to {self.url!r}: {exc}") from exc
        except TRANSPORT_ERRORS:
            self.close()
            raise
        if reply.will_close:
            self.close()
        return status, content

    def _connect(self) -> None:
        self._proxy_headers = {}
        url = urllib.parse.urlsplit(self.url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError("not an http or https URL")
        connection_type = http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        self._target = urllib.parse.quote(url.path or "/", safe=_TARGET_SAFE)
        if url.query:
            self._target += "?" + urllib.parse.quote(url.query, safe=_TARGET_SAFE)
        proxy = urllib.request.getproxies().get(url.scheme)
        if not proxy or urllib.request.proxy_bypass(url.hostname):
            self._connection = connection_type(url.hostname, url.port, timeout=self.timeout)
            return
        proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
        if proxy_url.username:
            credentials = f"{urllib.parse.unquote(proxy_url.username)}:{urllib.parse.unquote(proxy_url.password or '')}"
            self._proxy_headers["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials.encode()).decode()
        self._connection = connection_type(proxy_url.hostname, proxy_url.port or 80, timeout=self.timeout)
        if url.scheme == "https":  # a CONNECT tunnel to the host; TLS runs end to end through it
            self._connection.set_tunnel(url.hostname, url.port, headers=self._proxy_headers)
            self._proxy_headers = {}
        else:  # a plain-HTTP proxy takes the absolute URL as the request target
            self._target = f"http://{url.netloc.rpartition('@')[2]}{self._target}"


def post_json(url: str, body, timeout: float, headers: dict[str, str] | None = None) -> tuple[int, bytes]:
    """POST *body* once, over a connection of its own that is closed afterwards."""
    poster = JsonPoster(url, timeout)
    try:
        return poster.post(body, headers)
    finally:
        poster.close()
