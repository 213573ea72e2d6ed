"""Shard worker process: one shard's build → windows → finalize loop.

Started via the ``fork`` context, so the build request (spec + partition
plan) arrives by address-space inheritance, not pickling; only the
per-window chunks and the final payload cross the pipe.  Protocol (worker
side)::

    send ("setup", segments, first_peek)
    loop:
        recv ("advance", edge)   -> send ("chunk", records, lines, pauses, peek)
        recv ("finalize",)       -> send ("final", payload); exit

Any exception turns into ``("error", message)`` and a clean exit; the
coordinator raises it as a :class:`~repro.shard.errors.ShardError`.  EOF
on the pipe (the coordinator closed its end) ends the worker quietly.
"""

from __future__ import annotations

import weakref

__all__ = ["COORDINATOR_CONNS", "shard_worker_main"]

#: The coordinator's ends of the live worker pipes.  A forked worker
#: inherits copies of them all; unless it closes those, a coordinator-side
#: close never reaches a worker as EOF.
COORDINATOR_CONNS: weakref.WeakSet = weakref.WeakSet()


def _build(build_request: tuple):
    kind = build_request[0]
    if kind == "scenario":
        from .runner import build_scenario_shard, finalize_scenario_shard

        _, spec, plan, index = build_request
        return build_scenario_shard(spec, plan, index), finalize_scenario_shard
    if kind == "serve":
        from .serve import build_serve_shard, finalize_serve_shard

        _, sspec, plan, index = build_request
        return build_serve_shard(sspec, plan, index), finalize_serve_shard
    raise ValueError(f"unknown shard build request {kind!r}")


def shard_worker_main(conn, build_request: tuple) -> None:
    for inherited in list(COORDINATOR_CONNS):
        inherited.close()
    try:
        state, finalize_fn = _build(build_request)
        sim = state.sim
        conn.send(("setup", state.segments, sim.peek_time()))
        while True:
            msg = conn.recv()
            if msg[0] == "advance":
                sim.run_window(msg[1])
                records, lines = sim.take_chunk()
                conn.send(
                    ("chunk", records, lines, state.take_pauses(), sim.peek_time())
                )
            elif msg[0] == "finalize":
                conn.send(("final", finalize_fn(state)))
                return
            else:
                raise ValueError(f"unknown coordinator message {msg[0]!r}")
    except EOFError:  # coordinator died or closed early; just exit
        return
    except BaseException as exc:  # noqa: BLE001 - forwarded to coordinator
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (OSError, BrokenPipeError):  # pragma: no cover
            pass
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
