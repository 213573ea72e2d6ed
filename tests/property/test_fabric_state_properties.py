"""Property test: counted private entries account exactly like keyed ones.

:class:`FabricState` counts a group's private entries per switch instead of
keying them.  :class:`KeyedReference` below is the accounting it replaced:
every entry a key, refcounted by ``(switch, key)``, on plain keyed tables.
Random install / update / remove sequences, mixing private and shared
entries on strict and non-strict tables of random capacity, must leave
every table with the same ``updates``, ``peak``, ``overflow_events`` and
occupancy in both, after every step.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve import Demand, FabricState
from repro.state import TcamOverflowError

SWITCHES = ("s0", "s1", "s2")
GROUPS = (0, 1, 2)
STATIC_KEY = "prefix"


class RefTable:
    """A keyed table: one key per entry."""

    def __init__(self, capacity: int, strict: bool) -> None:
        self.capacity = capacity
        self.strict = strict
        self.rules: set = set()
        self.updates = 0
        self.peak = 0
        self.overflow_events = 0

    def install(self, key) -> None:
        if key not in self.rules and len(self.rules) >= self.capacity:
            if self.strict:
                raise TcamOverflowError("full")
            self.overflow_events += 1
        self.updates += 1
        self.rules.add(key)
        self.peak = max(self.peak, len(self.rules))

    def remove(self, key) -> None:
        if key in self.rules:
            self.rules.discard(key)
            self.updates += 1

    def __len__(self) -> int:
        return len(self.rules)


class KeyedReference:
    """Every entry a key, refcounted by ``(switch, key)``."""

    def __init__(self, capacity: int, strict: bool) -> None:
        self.capacity = capacity
        self.strict = strict
        self.tables: dict[str, RefTable] = {}
        self.refs: dict = {}
        self.groups: dict = {}
        self.static: dict[str, int] = {}

    def table(self, switch: str) -> RefTable:
        if switch not in self.tables:
            self.tables[switch] = RefTable(self.capacity, self.strict)
        return self.tables[switch]

    def preinstall(self, switches, keys) -> None:
        for switch in switches:
            for key in keys:
                self.table(switch).install(key)
            self.static[switch] = len(keys)
        for table in self.tables.values():
            table.updates = 0
            table.overflow_events = 0

    def new_entries(self, demand) -> dict[str, int]:
        out = {}
        for switch, keys in demand.items():
            fresh = sum(1 for k in set(keys) if (switch, k) not in self.refs)
            if fresh:
                out[switch] = fresh
        return out

    def fits(self, demand) -> bool:
        return all(
            len(self.table(switch)) + count <= self.capacity
            for switch, count in self.new_entries(demand).items()
        )

    def feasible(self, demand) -> bool:
        return all(
            len(set(keys)) <= self.capacity - self.static.get(switch, 0)
            for switch, keys in demand.items()
        )

    def _ref(self, switch, key) -> None:
        count = self.refs.get((switch, key), 0)
        if count == 0:
            self.table(switch).install(key)
        self.refs[(switch, key)] = count + 1

    def _unref(self, switch, key) -> None:
        self.refs[(switch, key)] -= 1
        if self.refs[(switch, key)] == 0:
            del self.refs[(switch, key)]
            self.table(switch).remove(key)

    def install_group(self, gid, demand) -> None:
        if gid in self.groups:
            raise ValueError("already installed")
        for switch, keys in demand.items():
            for key in set(keys):
                self._ref(switch, key)
        self.groups[gid] = demand

    def update_group(self, gid, demand) -> bool:
        old = self.groups.get(gid)
        if old is None:
            if not self.fits(demand):
                return False
            self.install_group(gid, demand)
            return True
        old_keys = {(s, k) for s, keys in old.items() for k in keys}
        new_keys = {(s, k) for s, keys in demand.items() for k in keys}
        fresh: dict[str, int] = {}
        for switch, key in new_keys - old_keys:
            if (switch, key) not in self.refs:
                fresh[switch] = fresh.get(switch, 0) + 1
        if not all(
            len(self.table(s)) + n <= self.capacity
            for s, n in fresh.items()
        ):
            return False
        for switch, key in new_keys - old_keys:  # every add first
            self._ref(switch, key)
        for switch, key in old_keys - new_keys:
            self._unref(switch, key)
        self.groups[gid] = demand
        return True

    def remove_group(self, gid) -> None:
        demand = self.groups.pop(gid, None)
        if demand is None:
            return
        for switch, keys in demand.items():
            for key in set(keys):
                self._unref(switch, key)


#: Per switch: (private entry count, shared subset ids).
switch_demand = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.frozensets(st.integers(min_value=0, max_value=3), max_size=3),
)
demands = st.dictionaries(st.sampled_from(SWITCHES), switch_demand, max_size=3)
ops = st.lists(
    st.tuples(
        st.sampled_from(("install", "update", "remove", "probe")),
        st.sampled_from(GROUPS),
        demands,
        st.booleans(),  # hand FabricState a Demand (True) or keyed entries
    ),
    max_size=25,
)


def keyed(gid, raw) -> dict[str, list]:
    """The keyed form: a group's private entries are ``("group", gid, j)``."""
    out = {}
    for switch, (private, shared) in raw.items():
        keys = [("group", gid, j) for j in range(private)]
        keys += [("subset", k) for k in sorted(shared)]
        if keys:
            out[switch] = keys
    return out


def counted(raw) -> Demand:
    return Demand(
        private={s: p for s, (p, _shared) in raw.items() if p},
        shared={
            s: frozenset(("subset", k) for k in shared)
            for s, (_p, shared) in raw.items()
            if shared
        },
    )


def snapshot(tables) -> dict:
    """Every table's counters; a table never touched reads as absent."""
    return {
        switch: (t.updates, t.peak, t.overflow_events, len(t))
        for switch, t in tables.items()
        if t.updates or t.peak
    }


def outcome(fn):
    """A call's result, or the class of the exception it raised."""
    try:
        return fn()
    except (ValueError, TcamOverflowError) as exc:
        return type(exc)


@given(
    capacity=st.integers(min_value=1, max_value=10),
    strict=st.booleans(),
    static=st.integers(min_value=0, max_value=3),
    steps=ops,
)
@example(  # one update both frees a private entry and adds a shared one
    capacity=4,
    strict=False,
    static=0,
    steps=[
        ("install", 0, {"s0": (2, frozenset())}, True),
        ("update", 0, {"s0": (1, frozenset({0}))}, True),
    ],
)
@settings(max_examples=300, deadline=None)
def test_counted_entries_match_the_keyed_reference(capacity, strict, static, steps):
    static = min(static, capacity)
    state = FabricState(capacity=capacity, strict=strict)
    ref = KeyedReference(capacity, strict)
    statics = [(STATIC_KEY, j) for j in range(static)]
    state.preinstall(SWITCHES, statics)
    state.reset_counters()
    ref.preinstall(SWITCHES, statics)
    assert snapshot(state.tables) == snapshot(ref.tables)
    for op, gid, raw, as_counts in steps:
        entries = keyed(gid, raw)
        demand = counted(raw) if as_counts else entries
        if gid not in ref.groups:  # admission asks before a group installs
            assert state.fits(demand) == ref.fits(entries)
        assert state.feasible(demand) == ref.feasible(entries)
        if op == "install":
            got = outcome(lambda: state.install_group(gid, demand))
            want = outcome(lambda: ref.install_group(gid, entries))
        elif op == "update":
            got = outcome(lambda: state.update_group(gid, demand))
            want = outcome(lambda: ref.update_group(gid, entries))
        elif op == "remove":
            got = state.remove_group(gid)
            want = ref.remove_group(gid)
        else:
            got = want = None
        assert got == want
        if got is TcamOverflowError:
            return  # a strict table refused; neither side is defined after
        assert snapshot(state.tables) == snapshot(ref.tables)
