"""Serving the control plane: a sync dispatcher plus an asyncio front end.

:class:`Dispatcher` is the protocol brain — a synchronous, deterministic
mapping from request dicts to response dicts over one
:class:`~repro.control.service.ControlPlane`.  Both front ends share it:

* :class:`~repro.control.client.LocalClient` calls it in-process (what the
  experiments and property tests use — zero I/O, fully deterministic);
* :class:`ControlServer` exposes it over a unix domain socket with
  newline-delimited JSON.  Requests are handled strictly sequentially in
  arrival order — the simulator is single-threaded state, so the server
  never interleaves two requests — which keeps socket-driven campaigns as
  deterministic as in-process ones for a single client.

Subscribers: a connection that sends ``subscribe`` gets, after every
subsequent state-advancing request, one extra line per new control-plane
event (joins, leaves, completions, replans) plus periodic
:mod:`repro.obs` metric snapshots — the streaming half of the protocol.
"""

from __future__ import annotations

import asyncio
import json

from .membership import MembershipError
from .protocol import ProtocolError, decode, encode, error, ok, require
from .service import ControlError, ControlPlane

#: Longest request line the server reads, newline excluded (asyncio's
#: default stream limit).  A longer line is dropped whole and answered
#: with a ``protocol`` error.
MAX_LINE_BYTES = 1 << 16


class Dispatcher:
    """Synchronous request handler over one control plane."""

    def __init__(self, control: ControlPlane) -> None:
        self.control = control
        #: Event-stream cursor for subscriber broadcasts.
        self._cursor = 0
        self.shutdown_requested = False

    def handle(self, req: dict) -> dict:
        """One request dict -> one response dict; never raises for
        domain errors (they become ``{"ok": false}`` responses)."""
        try:
            return self._dispatch(req)
        except ProtocolError as exc:
            return error(str(exc), kind="protocol")
        except ControlError as exc:
            return error(str(exc), kind="control")
        except MembershipError as exc:
            return error(str(exc), kind="membership")
        except ValueError as exc:
            return error(str(exc), kind="value")
        except KeyError as exc:
            return error(f"unknown key: {exc}", kind="unknown-key")

    def _dispatch(self, req: dict) -> dict:
        control = self.control
        op = req["op"]
        if op == "ping":
            return ok(t_s=control.now)
        if op == "create":
            gid = control.create_group(
                require(req, "tenant", str),
                require(req, "source", str),
                req.get("members", ()),
            )
            return ok(group=gid)
        if op in ("join", "leave"):
            fn = control.join if op == "join" else control.leave
            fn(
                require(req, "group", int),
                require(req, "host", str),
                req.get("at_s"),
            )
            return ok(group=req["group"], host=req["host"])
        if op == "submit":
            job = control.submit(
                require(req, "group", int),
                require(req, "message_bytes", int),
                req.get("at_s"),
            )
            return ok(job=job)
        if op == "advance":
            processed = control.advance(
                until=req.get("until_s"), max_events=req.get("max_events")
            )
            return ok(processed=processed, t_s=control.now)
        if op == "run":
            processed = control.run()
            return ok(processed=processed, t_s=control.now)
        if op == "stats":
            return ok(stats=control.stats())
        if op == "events":
            events, cursor = control.drain_events(req.get("cursor", 0))
            return ok(events=events, cursor=cursor)
        if op == "metrics":
            obs = control.runtime.obs
            if obs is None:
                return error("service was started without observability")
            return ok(metrics=json.loads(obs.registry.to_json()))
        if op == "subscribe":
            # Connection-level concern; the async server intercepts this op.
            return ok(subscribed=True)
        if op == "report":
            violations = control.finalize_checks()
            report = control.report()
            return ok(
                scheme=report.scheme,
                violations=[str(v) for v in violations],
                tenants={
                    row.tenant: {
                        "completed": row.completed,
                        "rejected": row.rejected,
                        "p50_cct_s": row.cct.p50_s,
                        "p99_cct_s": row.cct.p99_s,
                        "mean_queue_s": row.mean_queue_s,
                    }
                    for row in report.tenants
                },
                completed=report.total.completed,
                p99_cct_s=report.total.cct.p99_s,
                cache_hits=report.cache_hits,
                cache_invalidations=report.cache_invalidations,
                switch_updates=report.switch_updates,
            )
        if op == "shutdown":
            self.shutdown_requested = True
            return ok(shutdown=True)
        raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover

    def drain_new_events(self) -> list[dict]:
        """Control-plane events since the last drain (subscriber feed)."""
        events, self._cursor = self.control.drain_events(self._cursor)
        return events


class ControlServer:
    """Asyncio unix-socket front end over a :class:`Dispatcher`."""

    def __init__(self, control: ControlPlane, path: str) -> None:
        self.dispatcher = Dispatcher(control)
        self.path = path
        self._subscribers: list[asyncio.StreamWriter] = []
        self._done: asyncio.Event | None = None

    async def serve(self) -> None:
        """Serve until a client sends ``shutdown``."""
        self._done = asyncio.Event()
        server = await asyncio.start_unix_server(
            self._client, path=self.path, limit=MAX_LINE_BYTES
        )
        async with server:
            await self._done.wait()
        for writer in self._subscribers:
            writer.close()

    def serve_forever(self) -> None:
        """Blocking entry point (what ``scripts``/CI use)."""
        asyncio.run(self.serve())

    async def _client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self.dispatcher.shutdown_requested:
                line = await _read_line(reader)
                if line == b"":
                    break
                try:
                    req = _parse(line)
                except ProtocolError as exc:
                    await self._send(writer, error(str(exc), kind="protocol"))
                    continue
                resp = self.dispatcher.handle(req)
                if req.get("op") == "subscribe" and resp.get("ok"):
                    self._subscribers.append(writer)
                await self._send(writer, resp)
                await self._broadcast()
                if self.dispatcher.shutdown_requested:
                    self._done.set()
        finally:
            if writer not in self._subscribers:
                writer.close()

    async def _send(self, writer: asyncio.StreamWriter, obj: dict) -> None:
        writer.write((encode(obj) + "\n").encode("utf-8"))
        await writer.drain()

    async def _broadcast(self) -> None:
        """Push new control-plane events (and a metric snapshot, when obs
        is attached) to every subscriber."""
        if not self._subscribers:
            return
        events = self.dispatcher.drain_new_events()
        if not events:
            return
        lines = [encode({"stream": "event", **event}) for event in events]
        obs = self.dispatcher.control.runtime.obs
        if obs is not None:
            lines.append(
                encode(
                    {
                        "stream": "metrics",
                        "t_s": self.dispatcher.control.now,
                        "metrics": json.loads(obs.registry.to_json()),
                    }
                )
            )
        payload = ("\n".join(lines) + "\n").encode("utf-8")
        for writer in list(self._subscribers):
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                self._subscribers.remove(writer)


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next request line; ``b""`` at end of stream, ``None`` for a line
    longer than the stream limit (consumed up to its newline)."""
    overlong = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial  # the last line, unterminated
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)  # drop it, keep looking
            overlong = True
            continue
        return None if overlong else line


def _parse(line: bytes | None) -> dict:
    """One request from a raw line; every malformed line is a
    :class:`ProtocolError`."""
    if line is None:
        raise ProtocolError(f"request line longer than {MAX_LINE_BYTES} bytes")
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"request is not UTF-8: {exc}") from exc
    return decode(text)
