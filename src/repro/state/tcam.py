"""A TCAM-backed multicast table model with a hard capacity.

Commodity switches expose only a few thousand multicast entries (§3, refs
[12, 18]); this model lets experiments observe when a scheme overflows that
budget.  Beyond raw occupancy the table accounts *control-plane churn*: the
``updates`` counter ticks on every install, overwrite and remove, which is
the quantity the paper's deploy-once argument is about (PEEL's prefix rules
never update; per-group schemes update twice per group per switch).

Entries come in two forms.  Keyed entries (:meth:`TcamTable.install`) can
be looked up and overwritten.  Counted entries
(:meth:`TcamTable.install_counted`) are anonymous: a group's private
entries need no key, because no other group can ever hit them, so the
table only counts them.  Both forms share one capacity and one set of
counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: A generous commodity budget: "a few thousand multicast entries".
DEFAULT_CAPACITY = 4096


class TcamOverflowError(RuntimeError):
    """Raised when rule installation exceeds the switch's TCAM capacity."""


@dataclass
class TcamTable:
    """Per-switch rule storage with capacity and churn accounting.

    ``strict`` (the default) raises :class:`TcamOverflowError` when an
    install would exceed ``capacity``.  With ``strict=False`` the table
    keeps accepting entries but counts each breach in ``overflow_events`` —
    the mode accounting experiments use to *measure* how far a scheme
    overshoots a commodity budget instead of crashing at the first breach.
    """

    capacity: int = DEFAULT_CAPACITY
    strict: bool = True
    _rules: dict[object, tuple[int, ...]] = field(default_factory=dict)
    #: Control-plane operations: installs + overwrites + removes.
    updates: int = 0
    #: High-water mark of concurrent entries over the table's lifetime.
    peak: int = 0
    #: Installs that exceeded ``capacity`` (non-strict mode only).
    overflow_events: int = 0
    #: Anonymous entries held by count (see :meth:`install_counted`).
    counted: int = 0

    def install(self, key: object, out_ports: tuple[int, ...] = ()) -> None:
        occupied = len(self._rules) + self.counted
        if key not in self._rules and occupied >= self.capacity:
            if self.strict:
                raise TcamOverflowError(
                    f"TCAM full: {occupied}/{self.capacity} entries"
                )
            self.overflow_events += 1
        self.updates += 1
        self._rules[key] = out_ports
        self.peak = max(self.peak, len(self._rules) + self.counted)

    def remove(self, key: object) -> None:
        if key in self._rules:
            del self._rules[key]
            self.updates += 1

    def install_counted(self, n: int) -> None:
        """Install ``n`` anonymous entries.

        ``updates``, ``peak`` and ``overflow_events`` move exactly as ``n``
        installs of fresh keys would: with ``L`` entries held, the installs
        that find the table full number ``max(0, min(n, L + n - capacity))``.
        A strict table refuses the whole batch before changing anything.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        occupied = len(self._rules) + self.counted
        over = occupied + n - self.capacity
        if over > 0:
            if self.strict:
                raise TcamOverflowError(
                    f"TCAM full: {occupied} + {n} > {self.capacity} entries"
                )
            self.overflow_events += min(n, over)
        self.counted += n
        self.updates += n
        self.peak = max(self.peak, occupied + n)

    def remove_counted(self, n: int) -> None:
        """Remove ``n`` anonymous entries, one update each."""
        if not 0 <= n <= self.counted:
            raise ValueError(
                f"cannot remove {n} of {self.counted} counted entries"
            )
        self.counted -= n
        self.updates += n

    def lookup(self, key: object) -> tuple[int, ...] | None:
        return self._rules.get(key)

    def __contains__(self, key: object) -> bool:
        return key in self._rules

    def __len__(self) -> int:
        return len(self._rules) + self.counted

    def would_fit(self, new_entries: int = 1) -> bool:
        """Whether ``new_entries`` *additional* entries fit the capacity."""
        if new_entries < 0:
            raise ValueError("new_entries must be non-negative")
        return len(self._rules) + self.counted + new_entries <= self.capacity

    @property
    def utilization(self) -> float:
        return len(self) / self.capacity if self.capacity else 1.0

    @property
    def overflowed(self) -> bool:
        """Whether the table ever held more entries than its capacity."""
        return self.peak > self.capacity
