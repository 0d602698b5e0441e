"""Blocking client facade for the estimation service.

:class:`Client` talks to a :class:`~repro.service.server.ServiceServer`
over its socket; each call opens one connection (the protocol is
one-request-per-connection, so a single ``Client`` is safe to share
across threads — concurrent queries just open concurrent connections).

    client = Client("/tmp/repro.sock")
    estimate = client.query("srw2css", k=4, budget=50_000, seed=7)
    for snapshot in client.stream("srw1", k=3, budget=100_000):
        print(snapshot.steps, snapshot.estimate.concentrations)
"""

from __future__ import annotations

from multiprocessing.connection import Client as _connect
from typing import Iterator, Optional

from ..core.result import Estimate
from .messages import EstimateRequest, RequestFailed, Snapshot
from .server import DEFAULT_AUTHKEY


class Client:
    """Blocking facade over the service socket protocol."""

    def __init__(self, address, authkey: bytes = DEFAULT_AUTHKEY) -> None:
        self.address = address
        self.authkey = authkey

    def _open(self):
        return _connect(self.address, authkey=self.authkey)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def stream(
        self, method: Optional[str] = None, *, request: Optional[EstimateRequest] = None, **kwargs
    ) -> Iterator[Snapshot]:
        """Yield progressive snapshots, ending with the final one.

        Pass either a prebuilt ``request`` or ``method`` plus
        :class:`EstimateRequest` keyword arguments.
        """
        if request is None:
            if method is None:
                raise ValueError("stream() needs a method name or a request")
            request = EstimateRequest(method=method, **kwargs)
        conn = self._open()
        try:
            conn.send(("estimate", request))
            while True:
                try:
                    kind, payload = conn.recv()
                except EOFError:
                    raise RequestFailed(
                        "connection closed before the final snapshot "
                        "(server shut down mid-request?)"
                    ) from None
                if kind == "error":
                    raise RequestFailed(payload)
                yield payload
                if payload.final:
                    return
        finally:
            conn.close()

    def query(
        self, method: Optional[str] = None, *, request: Optional[EstimateRequest] = None, **kwargs
    ) -> Estimate:
        """Block for the final answer; raise on timeout/error outcomes.

        Mirrors :meth:`RequestHandle.result`: a deadline-hit request
        raises :class:`RequestTimeout` whose ``.snapshot`` is the last
        any-time answer, a failed one raises :class:`RequestFailed`.
        """
        final: Optional[Snapshot] = None
        for snapshot in self.stream(method, request=request, **kwargs):
            final = snapshot
        return final.outcome()

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def ping(self) -> dict:
        """Round-trip to the server; returns the daemon's stats dict."""
        conn = self._open()
        try:
            conn.send(("ping",))
            kind, payload = conn.recv()
            if kind != "pong":
                raise RequestFailed(f"unexpected ping reply {kind!r}")
            return payload
        finally:
            conn.close()

    def shutdown(self) -> None:
        """Ask the server to shut down (``repro serve`` then exits)."""
        conn = self._open()
        try:
            conn.send(("shutdown",))
            conn.recv()  # ("ok",)
        finally:
            conn.close()
