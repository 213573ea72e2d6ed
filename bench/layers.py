"""Layer map and per-layer attribution from a ``cProfile`` pass.

Every ``src/repro/**/*.py`` belongs to exactly one layer (``LAYERS``, glob
patterns relative to ``src/repro``); ``tests/test_layers.py`` guards that.
Code outside the package lands in an ``ext.*`` bucket.  From one profile:

* a layer's **self time** is the sum of ``tottime`` over its modules;
* an entry point's **busy time** and **calls** are the ``cumtime`` and
  ``ncalls`` of its functions, counting only calls from outside the entry
  point itself (so ``CompositeAdmission.decide`` calling
  ``TcamAdmission.decide`` is one decision, not two).
"""

from __future__ import annotations

import importlib
import pstats
import sysconfig
from fnmatch import fnmatchcase
from pathlib import Path, PurePosixPath

#: Layer -> modules, as globs relative to ``src/repro``.
LAYERS: dict[str, tuple[str, ...]] = {
    "sim.engine": ("sim/engine.py",),
    "sim.network": (
        "sim/__init__.py", "sim/network.py", "sim/packet.py", "sim/dcqcn.py",
        "sim/routing.py", "sim/config.py", "sim/observer.py", "sim/stats.py",
    ),
    "sim.transfer": ("sim/transfer.py",),
    "sim.invariants": ("sim/invariants.py", "sim/trace.py"),
    "core": ("core/*.py",),
    "collectives": ("collectives/*.py",),
    "topology": ("topology/*.py",),
    "steiner": ("steiner/*.py",),
    "serve.cache": ("serve/cache.py",),
    "serve.admission": ("serve/__init__.py", "serve/admission.py", "serve/runtime.py"),
    "serve.state": ("serve/state.py", "state/*.py"),
    "control.server": (
        "control/__init__.py", "control/server.py", "control/protocol.py",
        "control/client.py",
    ),
    "control.membership": ("control/membership.py", "control/service.py"),
    "control.replanner": ("control/replanner.py",),
    "obs": ("obs/*.py",),
    "shard": ("shard/*.py",),
    # Scenario facade, CLI and experiment scripts; none runs inside a pass.
    "api": (
        "__init__.py", "__main__.py", "api.py", "cli.py", "faults.py",
        "experiments/*.py", "replay/*.py", "workloads/*.py", "metrics/*.py",
    ),
}

#: Buckets for profiled code outside ``src/repro``.  ``ext.other`` holds
#: everything else: numpy, the benchmark's own loop, and code compiled at
#: run time (dataclass ``__init__``/``__eq__``/``__hash__``).
EXT_BUCKETS = ("ext.networkx", "ext.stdlib", "ext.other")

#: Entry point -> the functions it covers, as ``module:qualname``.
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "core.peel.plan": ("repro.core.peel:Peel.plan",),
    "core.layer_peeling": ("repro.core.layer_peeling:layer_peeling_tree",),
    "core.protection": ("repro.core.protection:build_protection",),
    "collectives.launch": ("repro.collectives.multicast:PeelBroadcast.launch",),
    "serve.cache.get": ("repro.serve.cache:PlanCache.get",),
    "serve.admission.decide": tuple(
        f"repro.serve.admission:{policy}.decide"
        for policy in (
            "FifoAdmission", "TcamAdmission", "LinkLoadAdmission",
            "CompositeAdmission",
        )
    ),
    "serve.state.install": ("repro.serve.state:FabricState.install_group",),
    "serve.state.remove": ("repro.serve.state:FabricState.remove_group",),
    "control.dispatch": ("repro.control.server:Dispatcher.handle",),
    "control.graft": ("repro.control.membership:graft_host",),
    "control.prune": ("repro.control.membership:prune_host",),
    "obs.finalize": ("repro.obs.fabric:Observability.finalize",),
    "shard.spawn": ("repro.shard.runner:ProcessShard.__init__",),
    # The coordinator blocked receiving a window's chunk from a worker.
    "shard.barrier_wait": ("repro.shard.runner:ProcessShard.collect",),
    "shard.sequencer": tuple(
        f"repro.shard.sequencer:GlobalSequencer.{name}"
        for name in ("push_setup", "feed", "merge_available")
    ),
}

_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
_STDLIB = Path(sysconfig.get_paths()["stdlib"]).resolve()
_SITE = Path(sysconfig.get_paths()["purelib"]).resolve()


def layer_of(relpath: str) -> str | None:
    """The layer a module path (relative to ``src/repro``) belongs to;
    ``None`` when no layer, and the first match when several do."""
    matches = layers_matching(relpath)
    return matches[0] if matches else None


def layers_matching(relpath: str) -> list[str]:
    return [
        layer
        for layer, patterns in LAYERS.items()
        if any(fnmatchcase(relpath, p) for p in patterns)
    ]


def map_problems(relpaths) -> list[str]:
    """One line per module that no layer, or more than one, claims."""
    problems = []
    for relpath in sorted(relpaths):
        matches = layers_matching(relpath)
        if len(matches) != 1:
            problems.append(f"{relpath}: {matches or 'unmapped'}")
    return problems


def package_modules(src: Path = _SRC) -> list[str]:
    """Every module of the package, as paths relative to ``src/repro``."""
    return [p.relative_to(src).as_posix() for p in src.rglob("*.py")]


def bucket_of(filename: str) -> str | None:
    """The layer or ``ext.*`` bucket of a profiled code object's file;
    ``None`` for a package module the layer map misses."""
    if filename == "~" or filename.startswith("<frozen "):
        return "ext.stdlib"  # C builtins and frozen bootstrap modules
    if filename.startswith("<"):
        return "ext.other"
    path = Path(filename).resolve()
    if path.is_relative_to(_SRC):
        return layer_of(PurePosixPath(path.relative_to(_SRC)).as_posix())
    if "networkx" in path.parts:
        return "ext.networkx"
    if path.is_relative_to(_STDLIB) and not path.is_relative_to(_SITE):
        return "ext.stdlib"
    return "ext.other"


def code_key(target: str) -> tuple[str, int, str]:
    module, qualname = target.split(":")
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    code = obj.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def attribute(stats: pstats.Stats) -> dict:
    """Self time per bucket, busy time and calls per entry point.

    Returns ``{"self_s": {bucket: s}, "busy_s": {entry: s},
    "calls": {entry: n}, "total_s": s, "coverage": share}`` where
    ``coverage`` is the share of profiled self time that some bucket
    claimed (package modules missing from the map are the rest).
    """
    table = stats.stats
    self_s = dict.fromkeys([*LAYERS, *EXT_BUCKETS], 0.0)
    total = 0.0
    for (filename, _line, _name), (_cc, _nc, tt, _ct, _callers) in table.items():
        total += tt
        bucket = bucket_of(filename)
        if bucket is not None:
            self_s[bucket] += tt
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for entry, targets in ENTRY_POINTS.items():
        keys = {code_key(t) for t in targets}
        busy[entry] = 0.0
        calls[entry] = 0
        for key in keys:
            row = table.get(key)
            if row is None:
                continue
            _cc, nc, _tt, ct, callers = row
            inner_ct = 0.0
            inner_nc = 0
            for caller, (edge_nc, _ecc, _ett, edge_ct) in callers.items():
                # Self-recursion is already folded into ct by the profiler.
                if caller in keys and caller != key:
                    inner_ct += edge_ct
                    inner_nc += edge_nc
            busy[entry] += ct - inner_ct
            calls[entry] += nc - inner_nc
    claimed = sum(self_s.values())
    return {
        "self_s": self_s,
        "busy_s": busy,
        "calls": calls,
        "total_s": total,
        "coverage": claimed / total if total else 1.0,
    }
