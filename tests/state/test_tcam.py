"""TCAM capacity model."""

import pytest

from repro.state import TcamOverflowError, TcamTable


class TestTcamTable:
    def test_install_and_lookup(self):
        table = TcamTable(capacity=4)
        table.install("g1", (0, 1))
        assert table.lookup("g1") == (0, 1)
        assert table.lookup("g2") is None

    def test_overflow_raises(self):
        table = TcamTable(capacity=2)
        table.install("a", (0,))
        table.install("b", (1,))
        with pytest.raises(TcamOverflowError):
            table.install("c", (2,))

    def test_update_in_place_does_not_overflow(self):
        table = TcamTable(capacity=1)
        table.install("a", (0,))
        table.install("a", (0, 1))  # same key: no new entry
        assert table.lookup("a") == (0, 1)

    def test_remove_frees_space(self):
        table = TcamTable(capacity=1)
        table.install("a", (0,))
        table.remove("a")
        table.install("b", (1,))
        assert len(table) == 1

    def test_remove_missing_is_noop(self):
        TcamTable(capacity=1).remove("ghost")

    def test_utilization(self):
        table = TcamTable(capacity=4)
        table.install("a", (0,))
        assert table.utilization == 0.25

    def test_updates_counts_installs_overwrites_removes(self):
        table = TcamTable(capacity=4)
        table.install("a", (0,))       # install
        table.install("a", (0, 1))     # overwrite: still a control-plane op
        table.remove("a")              # remove
        table.remove("a")              # no-op: key already gone
        assert table.updates == 3

    def test_peak_high_water_mark(self):
        table = TcamTable(capacity=4)
        table.install("a", (0,))
        table.install("b", (1,))
        table.remove("a")
        table.remove("b")
        assert table.peak == 2
        assert len(table) == 0
        assert not table.overflowed

    def test_non_strict_counts_overflow_instead_of_raising(self):
        table = TcamTable(capacity=1, strict=False)
        table.install("a", (0,))
        table.install("b", (1,))
        table.install("c", (2,))
        assert table.overflow_events == 2
        assert table.overflowed
        assert len(table) == 3  # entries kept so peaks stay measurable

    def test_would_fit(self):
        table = TcamTable(capacity=2)
        table.install("a", (0,))
        assert table.would_fit()
        assert not table.would_fit(2)
        with pytest.raises(ValueError):
            table.would_fit(-1)

    def test_contains(self):
        table = TcamTable(capacity=2)
        table.install("a", (0,))
        assert "a" in table
        assert "b" not in table

    def test_peel_rules_fit_easily(self):
        """The whole point: k-1 static rules fit in a commodity TCAM even
        at k=128, whereas per-group state cannot."""
        from repro.core import preinstalled_rules

        table = TcamTable()  # default commodity capacity
        for rule in preinstalled_rules(128):
            table.install((rule.prefix.value, rule.prefix.length), rule.out_ports)
        assert len(table) == 127
        assert table.utilization < 0.05


class TestCountedEntries:
    """Counted entries move every counter as one keyed install each."""

    @pytest.mark.parametrize("held, n", [(0, 3), (2, 3), (4, 3), (6, 2)])
    def test_bulk_install_matches_sequential_installs(self, held, n):
        bulk = TcamTable(capacity=4, strict=False)
        keyed = TcamTable(capacity=4, strict=False)
        for i in range(held):
            bulk.install(("held", i))
            keyed.install(("held", i))
        bulk.install_counted(n)
        for i in range(n):
            keyed.install(("new", i))
        assert (bulk.updates, bulk.peak, bulk.overflow_events, len(bulk)) == (
            keyed.updates, keyed.peak, keyed.overflow_events, len(keyed)
        )

    def test_counted_entries_take_capacity(self):
        table = TcamTable(capacity=3)
        table.install_counted(2)
        assert table.would_fit(1) and not table.would_fit(2)
        assert table.utilization == pytest.approx(2 / 3)
        table.install("k")
        with pytest.raises(TcamOverflowError):
            table.install("j")

    def test_strict_table_refuses_the_whole_batch(self):
        table = TcamTable(capacity=3)
        table.install_counted(2)
        with pytest.raises(TcamOverflowError):
            table.install_counted(2)
        assert (len(table), table.updates) == (2, 2)

    def test_remove_counted(self):
        table = TcamTable(capacity=4)
        table.install_counted(3)
        table.remove_counted(2)
        assert (len(table), table.updates, table.peak) == (1, 5, 3)
        with pytest.raises(ValueError):
            table.remove_counted(2)
        with pytest.raises(ValueError):
            table.install_counted(-1)
