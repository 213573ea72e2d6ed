"""Declarative scheme registry: ``@register_scheme`` plus a frozen
:class:`SchemeSpec`.

* scheme classes self-register with :func:`register_scheme`, declaring
  the constructor parameters they accept;
* :class:`SchemeSpec` is a frozen, hashable, picklable value naming a
  registered scheme plus its parameters.  It is accepted everywhere a
  scheme string is (:class:`repro.api.ScenarioSpec`,
  :class:`repro.serve.runtime.ServeRuntime`, the control plane, the CLI)
  and round-trips through the ``name:param=value,...`` string syntax
  (``"elmo:header_bytes=64"``, ``"peel:programmable_cores=true"``).

:func:`resolve_scheme` is the single entry point: it takes a scheme
*instance*, a :class:`SchemeSpec`, or a string, and returns a constructed
:class:`~repro.collectives.base.BroadcastScheme`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .base import BroadcastScheme

__all__ = [
    "SchemeSpec",
    "register_scheme",
    "registered_schemes",
    "resolve_scheme",
]


def _format_value(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return repr(value)  # repr round-trips (0.01 stays 0.01)
    return str(value)


def _parse_value(text: str):
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


class SchemeSpec:
    """Frozen description of a scheme: registry name + keyword parameters.

    ``SchemeSpec("elmo", header_bytes=64)`` — parameters are stored as a
    canonically sorted tuple, so equal specs hash equal, pickle stably,
    and print as the CLI syntax: ``str(spec) == "elmo:header_bytes=64"``.
    """

    __slots__ = ("name", "params")

    def __init__(self, name: str, **params) -> None:
        if not name or not isinstance(name, str):
            raise ValueError(f"scheme name must be a non-empty string, got {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", tuple(sorted(params.items())))

    # -- immutability / value semantics -------------------------------------

    def __setattr__(self, key, value) -> None:
        raise AttributeError("SchemeSpec is frozen")

    def __delattr__(self, key) -> None:
        raise AttributeError("SchemeSpec is frozen")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SchemeSpec):
            return NotImplemented
        return self.name == other.name and self.params == other.params

    def __hash__(self) -> int:
        return hash((self.name, self.params))

    def __repr__(self) -> str:
        kwargs = "".join(f", {k}={v!r}" for k, v in self.params)
        return f"SchemeSpec({self.name!r}{kwargs})"

    def __reduce__(self):
        return (_rebuild_spec, (self.name, self.params))

    # -- accessors -----------------------------------------------------------

    @property
    def kwargs(self) -> dict:
        return dict(self.params)

    def get(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def __str__(self) -> str:
        if not self.params:
            return self.name
        rendered = ",".join(f"{k}={_format_value(v)}" for k, v in self.params)
        return f"{self.name}:{rendered}"

    # -- construction from strings -------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "SchemeSpec":
        """Parse the CLI syntax ``name[:param=value,...]``.

        Values parse as ``true``/``false``, int, float, or stay strings.
        """
        name, sep, rest = text.partition(":")
        params = {}
        if sep:
            for item in rest.split(","):
                key, eq, raw = item.partition("=")
                key = key.strip()
                if not key or not eq:
                    raise ValueError(
                        f"bad scheme parameter {item!r} in {text!r}; "
                        "expected name:param=value[,param=value...]"
                    )
                params[key] = _parse_value(raw.strip())
        return cls(name.strip(), **params)

    @classmethod
    def coerce(cls, value) -> "SchemeSpec":
        """A :class:`SchemeSpec` from a spec or a ``name:param=value``
        string."""
        if isinstance(value, SchemeSpec):
            return value
        if not isinstance(value, str):
            raise TypeError(
                f"expected a scheme name or SchemeSpec, got {type(value).__name__}"
            )
        return cls.parse(value)


def _rebuild_spec(name: str, params: tuple) -> SchemeSpec:
    return SchemeSpec(name, **dict(params))


@dataclass(frozen=True)
class _SchemeEntry:
    name: str
    factory: Callable[..., BroadcastScheme]
    params: tuple[str, ...]
    description: str


_REGISTRY: dict[str, _SchemeEntry] = {}


def register_scheme(
    name: str, *, params: tuple[str, ...] = (), description: str = ""
):
    """Class decorator registering a scheme factory under ``name``.

    ``params`` declares the keyword parameters the factory accepts —
    :func:`resolve_scheme` rejects a :class:`SchemeSpec` carrying anything
    else, so typos fail loudly instead of silently constructing defaults.
    """

    def decorate(factory):
        if name in _REGISTRY:
            raise ValueError(f"scheme {name!r} is already registered")
        _REGISTRY[name] = _SchemeEntry(
            name, factory, tuple(params), description or (factory.__doc__ or "")
        )
        return factory

    return decorate


def registered_schemes() -> tuple[str, ...]:
    """Registered scheme names, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_scheme(scheme) -> BroadcastScheme:
    """Construct a scheme from an instance, a :class:`SchemeSpec`, or a
    ``name:param=value`` string."""
    if isinstance(scheme, BroadcastScheme):
        return scheme
    spec = SchemeSpec.coerce(scheme)
    entry = _REGISTRY.get(spec.name)
    if entry is None:
        raise ValueError(
            f"unknown scheme {spec.name!r}: not in the scheme registry "
            f"(repro.collectives.registry); registered schemes: "
            f"{list(registered_schemes())}. Register new schemes with "
            f"@register_scheme."
        )
    unknown = [k for k, _ in spec.params if k not in entry.params]
    if unknown:
        allowed = list(entry.params) or "none"
        raise ValueError(
            f"scheme {spec.name!r} does not accept parameter(s) {unknown}; "
            f"registered parameters: {allowed}"
        )
    return entry.factory(**spec.kwargs)
