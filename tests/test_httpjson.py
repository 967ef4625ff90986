"""The stdlib HTTP/JSON core shared by ``repro serve`` and ``repro broker``."""

import http.client
import json
import socket
import threading

import pytest

from repro.httpjson import JsonHandler, JsonService


class _EchoHandler(JsonHandler):
    error_fields = {"schema": "echo/1"}

    def do_POST(self):  # noqa: N802 - http.server API
        body = self.read_json()
        if body is not None:
            self.send_json(200, {"echo": body})


class _EchoService(JsonService):
    name = "echo"
    handler = _EchoHandler
    max_body_bytes = 64

    def __init__(self):
        super().__init__("127.0.0.1", 0)
        self.drains = 0

    def on_drain(self):
        self.drains += 1


@pytest.fixture
def echo():
    service = _EchoService()
    host, port = service.start()
    yield service, host, port
    service.stop()


def exchange(host, port, body: bytes, headers=None):
    """One raw POST /echo; returns (status, decoded JSON body)."""
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("POST", "/echo", body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


class TestJsonHandler:
    def test_round_trip(self, echo):
        _, host, port = echo
        assert exchange(host, port, b'{"a": [1, 2]}') == (
            200, {"echo": {"a": [1, 2]}}
        )

    @pytest.mark.parametrize("body,headers,needle", [
        (b"", None, "bytes required"),
        (b'{"pad": "' + b"x" * 80 + b'"}', None, "bytes required"),
        (b"{not json", None, "malformed JSON"),
        (b"\xff\xfe", None, "malformed JSON"),
        (b"{}", {"Content-Length": "two"}, "Content-Length"),
    ], ids=["empty", "oversized", "not-json", "not-utf8", "bad-length"])
    def test_unreadable_body_is_400_with_error_fields(
        self, echo, body, headers, needle
    ):
        _, host, port = echo
        status, reply = exchange(host, port, body, headers)
        assert status == 400
        assert reply["schema"] == "echo/1" and needle in reply["error"]

    def test_error_reply_closes_the_connection(self, echo):
        # An oversized body is never read, so its bytes must not be
        # parsed as a next request on the same connection.
        _, host, port = echo
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 100"
                b"\r\n\r\n" + b"GET /echo HTTP/1.1\r\n\r\n" * 4
            )
            data = b""
            while chunk := sock.recv(4096):
                data += chunk
        assert data.startswith(b"HTTP/1.1 400")
        assert data.count(b"HTTP/1.") == 1


class TestJsonService:
    def test_address_needs_a_start(self):
        with pytest.raises(RuntimeError, match="not started"):
            _EchoService().address

    def test_concurrent_stops_drain_exactly_once(self, echo):
        service, host, port = echo
        stoppers = [threading.Thread(target=service.stop) for _ in range(4)]
        for t in stoppers:
            t.start()
        for t in stoppers:
            t.join(timeout=10)
        assert service.draining and service.drains == 1
        with pytest.raises(OSError):
            exchange(host, port, b"{}")

    def test_stop_before_start_returns(self):
        service = _EchoService()
        service.stop()
        assert service.draining and service.drains == 1
