"""The stdlib HTTP/JSON core behind ``repro serve`` and ``repro broker``.

:class:`JsonHandler` is the request-handler base: framed JSON replies
and error bodies, a bounded JSON body reader that answers 400 itself,
and no per-request log.  :class:`JsonService` is the daemon base: bind,
serve on a thread, drain exactly once, and -- in ``serve_forever`` --
drain on SIGINT/SIGTERM.  Each daemon subclasses both with only its
endpoints and its own start and drain work.  This module imports
nothing from the rest of the package.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class JsonHandler(BaseHTTPRequestHandler):
    """Request-handler base: JSON replies, bounded JSON bodies, no log.

    ``self.service`` is the :class:`JsonService` whose listener accepted
    the request; subclasses route on ``self.route``.
    """

    server: "_Listener"
    protocol_version = "HTTP/1.1"
    #: Extra keys of every error body (serve tags its schema id).
    error_fields: dict = {}

    @property
    def service(self) -> "JsonService":
        """The service that owns this request's listener."""
        return self.server.service

    @property
    def route(self) -> str:
        """The request path without its trailing slash."""
        return self.path.rstrip("/")

    def send_json(self, status: int, body: dict) -> None:
        """Serialize one JSON response with correct framing."""
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def send_json_error(self, status: int, message: str) -> None:
        """One-line JSON error body; the connection closes after it.

        An error may answer before the request body was read, so the
        connection cannot carry another request.
        """
        self.close_connection = True
        self.send_json(status, {**self.error_fields, "error": message})

    def read_json(self):
        """The request's JSON body, or None after a 400 reply."""
        limit = self.service.max_body_bytes
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self.send_json_error(400, "bad Content-Length")
            return None
        if length <= 0 or length > limit:
            self.send_json_error(
                400, f"JSON request body of 1..{limit} bytes required"
            )
            return None
        try:
            return json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self.send_json_error(400, f"malformed JSON body: {exc}")
            return None

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr chatter (tests and CI logs)."""


class _Listener(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying a reference to its service."""

    daemon_threads = True
    allow_reuse_address = True
    #: Set by :meth:`JsonService.start` right after the bind.
    service: "JsonService"


class JsonService:
    """A JSON-over-HTTP daemon: bind, serve on a thread, drain once.

    Drive one in-process with :meth:`start` / :meth:`stop` (tests), or
    call :meth:`serve_forever` (CLI: blocks until a signal drains it).
    """

    #: ``repro <name>`` in the printed lines and the thread names.
    name = "service"
    #: The request-handler class the listener instantiates.
    handler: type[JsonHandler] = JsonHandler
    #: Largest accepted request body, in bytes.
    max_body_bytes = 1024 * 1024

    def __init__(self, host: str, port: int) -> None:
        """Remember where to bind (nothing binds until :meth:`start`)."""
        self.draining = False
        self._bind = (host, port)
        self._httpd: _Listener | None = None
        self._serve_thread: threading.Thread | None = None
        self._drain_lock = threading.Lock()
        self._drained = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) -- valid after :meth:`start`."""
        if self._httpd is None:
            raise RuntimeError(f"repro {self.name} not started")
        return self._httpd.server_address[:2]

    def on_start(self) -> None:
        """Service work after the bind, before the first request."""

    def on_drain(self) -> None:
        """Service work of a drain, while the listener still answers."""

    def start(self) -> tuple[str, int]:
        """Bind, run :meth:`on_start`, serve on a thread; (host, port).

        With ``port=0`` the returned address is where the OS-assigned
        port surfaces.
        """
        self._httpd = _Listener(self._bind, self.handler)
        self._httpd.service = self
        self.on_start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-{self.name}-listener",
            daemon=True,
        )
        self._serve_thread.start()
        return self.address

    def stop(self) -> None:
        """Drain once: raise ``draining``, run :meth:`on_drain`, unbind.

        A concurrent or repeated call waits for the first drain to
        finish, so "stop() returned" always means fully down.
        """
        with self._drain_lock:
            if self.draining:
                self._drained.wait()
                return
            self.draining = True
        try:
            self.on_drain()
        finally:
            if self._serve_thread is not None:
                self._httpd.shutdown()
                self._serve_thread.join()
            if self._httpd is not None:
                self._httpd.server_close()
            self._drained.set()

    def serve_forever(self) -> int:
        """CLI entry point: serve until SIGINT/SIGTERM, then drain.

        The signal handler hands the drain to a helper thread --
        :meth:`stop` must not run on the thread executing the handler,
        which may be blocked inside the listener it is about to stop.
        """
        host, port = self.start()

        def _drain(signum: int, frame) -> None:
            threading.Thread(
                target=self.stop, name=f"repro-{self.name}-drain", daemon=True
            ).start()

        previous = {
            sig: signal.signal(sig, _drain)
            for sig in (signal.SIGINT, signal.SIGTERM)
        }
        print(f"repro {self.name}: listening on http://{host}:{port}", flush=True)
        try:
            while self._serve_thread.is_alive():
                self._serve_thread.join(timeout=0.2)
        finally:
            self.stop()  # no-op when the drain already ran
            for sig, old in previous.items():
                signal.signal(sig, old)
        print(f"repro {self.name}: drained", flush=True)
        return 0
