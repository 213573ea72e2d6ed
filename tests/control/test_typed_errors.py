"""Typed error surfacing: error kinds over the wire, churn × protection.

Refusals used to reach clients as bare strings; now every ``{"ok":
false}`` response carries a ``kind`` naming the exception family the
dispatcher caught, and both client transports raise the matching
:class:`ControlRequestError` subclass — so a campaign script can branch
on ``MembershipRequestError`` without regex-matching message text.  The
churn × protection combination is the motivating case: the control-plane
constructor refuses it, and the refusal must arrive typed through the
local and socket clients alike.
"""

import threading
import time

import pytest

from repro.control import (
    ControlError,
    ControlPlane,
    ControlPlaneRequestError,
    ControlRequestError,
    ControlServer,
    Dispatcher,
    LocalClient,
    MembershipRequestError,
    ProtocolRequestError,
    SocketClient,
)
from repro.control.client import decode_response
from repro.control.protocol import error
from repro.control.server import MAX_LINE_BYTES
from repro.sim import SimConfig
from repro.topology import LeafSpine

KB = 1024


def control_plane(**kwargs) -> ControlPlane:
    return ControlPlane(
        LeafSpine(2, 4, 2), "peel", SimConfig(segment_bytes=16 * KB), **kwargs
    )


def detach_host(control: ControlPlane, host: str) -> None:
    """Sever a host from its ToR so a mid-flight graft cannot reach it."""
    tor = control.env.topo.tor_of(host)
    control.env.topo.graph.remove_edge(host, tor)


def start_inflight_collective(client) -> int:
    """A group with one collective guaranteed to be in flight at `now`."""
    gid = client.create_group("t", "host:l0:0", ["host:l0:1", "host:l1:0"])
    client.submit(gid, 1 << 20)
    client.advance(until_s=10e-6)
    return gid


class TestProtocolErrorKind:
    def test_error_rejects_unknown_kinds(self):
        with pytest.raises(ValueError, match="kind"):
            error("boom", kind="mystery")

    def test_kind_is_omitted_when_absent(self):
        assert "kind" not in error("boom")
        assert error("boom", kind="control")["kind"] == "control"


class TestDispatcherKinds:
    def test_missing_field_is_protocol_kind(self):
        resp = Dispatcher(control_plane()).handle({"op": "create", "tenant": "t"})
        assert resp["ok"] is False and resp["kind"] == "protocol"

    def test_unknown_group_is_control_kind(self):
        resp = Dispatcher(control_plane()).handle(
            {"op": "submit", "group": 7, "message_bytes": KB}
        )
        assert resp["ok"] is False and resp["kind"] == "control"

    def test_unreachable_graft_is_membership_kind(self):
        control = control_plane()
        client = LocalClient(control)
        gid = start_inflight_collective(client)
        detach_host(control, "host:l3:1")
        resp = client.request("join", group=gid, host="host:l3:1")
        assert resp["ok"] is False and resp["kind"] == "membership"
        assert "disconnected" in resp["error"]


class TestLocalClientTyped:
    def test_control_refusal_raises_typed(self):
        client = LocalClient(control_plane())
        with pytest.raises(ControlPlaneRequestError) as exc:
            client.submit(5, KB)
        assert exc.value.kind == "control"
        assert isinstance(exc.value, ControlRequestError)

    def test_protocol_refusal_raises_typed(self):
        client = LocalClient(control_plane())
        with pytest.raises(ProtocolRequestError) as exc:
            client._checked("create", tenant="t")  # no source
        assert exc.value.kind == "protocol"

    def test_membership_refusal_raises_typed(self):
        control = control_plane()
        client = LocalClient(control)
        gid = start_inflight_collective(client)
        detach_host(control, "host:l3:1")
        with pytest.raises(MembershipRequestError) as exc:
            client.join(gid, "host:l3:1")
        assert exc.value.kind == "membership"

    def test_untyped_response_still_raises_base_error(self):
        # Talking to an old server that sends no kind must keep working.
        client = LocalClient(control_plane())
        original = client.dispatcher.handle
        client.dispatcher.handle = lambda req: {"ok": False, "error": "x"}
        try:
            with pytest.raises(ControlRequestError) as exc:
                client.ping()
            assert type(exc.value) is ControlRequestError
            assert exc.value.kind is None
        finally:
            client.dispatcher.handle = original


def serve_on_socket(tmp_path, control: ControlPlane):
    """Start a server thread on a fresh socket; returns (thread, client)."""
    path = str(tmp_path / "control.sock")
    server = ControlServer(control, path)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    for _ in range(50):
        try:
            return thread, SocketClient(path)
        except (FileNotFoundError, ConnectionRefusedError):
            time.sleep(0.05)
    pytest.fail("server socket never came up")


def send_raw(client: SocketClient, payload: bytes) -> dict:
    """Write raw bytes on the client's connection; read one response."""
    client._file.write(payload)
    client._file.flush()
    line = client._file.readline()
    assert line, "server closed the connection"
    return decode_response(line.decode("utf-8"))


class TestSocketClientTyped:
    def test_kinds_survive_the_wire(self, tmp_path):
        control = control_plane()
        thread, client = serve_on_socket(tmp_path, control)
        with client:
            with pytest.raises(ControlPlaneRequestError) as exc:
                client.submit(5, KB)
            assert exc.value.kind == "control"
            with pytest.raises(ProtocolRequestError):
                client._checked("create", tenant="t")
            gid = start_inflight_collective(client)
            detach_host(control, "host:l3:1")
            with pytest.raises(MembershipRequestError) as exc:
                client.join(gid, "host:l3:1")
            assert exc.value.kind == "membership"
            client.shutdown()
        thread.join(timeout=5)
        assert not thread.is_alive()


class TestSocketBadBytes:
    """Bytes no request can be made of get a typed ``protocol`` error, and
    the connection keeps serving."""

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param(b"\xff\xfe\n", id="not-utf8"),
            pytest.param(b"x" * (MAX_LINE_BYTES + 1) + b"\n", id="over-limit"),
            pytest.param(
                b"x" * (4 * MAX_LINE_BYTES) + b"\n", id="several-limits"
            ),
            pytest.param(b"{not json\n", id="not-json"),
        ],
    )
    def test_protocol_error_and_keep_serving(self, tmp_path, payload):
        thread, client = serve_on_socket(tmp_path, control_plane())
        with client:
            resp = send_raw(client, payload)
            assert resp["ok"] is False
            assert resp["kind"] == "protocol"
            client.ping()  # the same connection still answers
            client.shutdown()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_line_at_the_limit_is_read(self, tmp_path):
        """The limit bounds a line, not a request: padding up to it parses."""
        thread, client = serve_on_socket(tmp_path, control_plane())
        request = b'{"op":"ping"}'
        padded = request + b" " * (MAX_LINE_BYTES - len(request)) + b"\n"
        with client:
            assert send_raw(client, padded)["ok"] is True
            client.shutdown()
        thread.join(timeout=5)
        assert not thread.is_alive()


class TestChurnTimesProtection:
    def test_control_plane_protection_refused_as_control_error(self):
        with pytest.raises(ControlError, match="protection"):
            control_plane(protection=1)
