"""The ``urllib`` HTTP client both sides of the broker use.

Stdlib-only, one short-lived connection per call -- the broker's
endpoints are all small JSON bodies, and connection reuse is not worth
a dependency.  Two error classes separate the failure modes the callers
care about:

- :class:`BrokerUnavailable` -- the broker cannot be reached at all
  (connection refused, DNS, socket timeout).  Workers back off and
  retry; the coordinator counts it and lets the retry ladder degrade.
- :class:`BrokerError` -- the broker answered with an HTTP error
  (malformed envelope, draining, unknown endpoint).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

from repro.errors import ReproError

#: Default per-request socket timeout, seconds (long-polls add theirs).
REQUEST_TIMEOUT = 10.0


class BrokerError(ReproError):
    """The broker answered an HTTP error status."""

    def __init__(self, status: int, message: str) -> None:
        """Wrap the broker's HTTP ``status`` and error ``message``."""
        super().__init__(f"broker answered {status}: {message}")
        self.status = status


class BrokerUnavailable(ReproError):
    """The broker could not be reached (refused, unreachable, timeout)."""


class BrokerClient:
    """Thin JSON-over-HTTP client for one broker address."""

    def __init__(
        self, address: str, timeout: float = REQUEST_TIMEOUT
    ) -> None:
        """Talk to the broker at ``address`` (``HOST:PORT``)."""
        self.address = address
        self.base = f"http://{address}"
        self.timeout = timeout

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        timeout: float | None = None,
    ) -> dict:
        """One JSON request/response round-trip."""
        data = None if body is None else json.dumps(body).encode("utf-8")
        req = urllib.request.Request(
            f"{self.base}{path}",
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(
                req, timeout=timeout or self.timeout
            ) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8")).get("error", "")
            except (ValueError, OSError):
                detail = exc.reason
            raise BrokerError(exc.code, str(detail)) from exc
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise BrokerUnavailable(
                f"broker {self.address} unreachable: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # endpoint wrappers
    # ------------------------------------------------------------------

    def submit_task(self, envelope: dict) -> dict:
        """``POST /tasks``: queue one task envelope."""
        return self._request("POST", "/tasks", envelope)

    def next_task(self, worker: str, wait: float = 0.0) -> dict:
        """``POST /tasks/next``: long-poll for a lease (worker side)."""
        return self._request(
            "POST",
            "/tasks/next",
            {"worker": worker, "wait": wait},
            timeout=self.timeout + wait,
        )

    def post_result(self, envelope: dict) -> dict:
        """``POST /results``: record one result envelope (worker side)."""
        return self._request("POST", "/results", envelope)

    def task_status(self, task_id: str) -> dict:
        """``GET /tasks/<id>``: one task's state (coordinator side)."""
        return self._request("GET", f"/tasks/{task_id}")

    def cancel(self, task_id: str) -> dict:
        """``DELETE /tasks/<id>``: cancel or collect-and-forget."""
        return self._request("DELETE", f"/tasks/{task_id}")

    def healthz(self) -> dict:
        """``GET /healthz``: liveness probe."""
        return self._request("GET", "/healthz")

    def wait_ready(self, seconds: float, poll: float = 0.2) -> bool:
        """Poll ``/healthz`` until it answers ok, up to ``seconds``.

        Lets coordinators and scripted deployments start broker and
        clients in any order without racing the bind.
        """
        deadline = time.monotonic() + seconds
        while True:
            try:
                if self.healthz().get("status") == "ok":
                    return True
            except (BrokerUnavailable, BrokerError):
                pass
            if time.monotonic() >= deadline:
                return False
            time.sleep(poll)
