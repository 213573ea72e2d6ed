"""Regression pins for the soak harness's epoch keying.

Resumability rests on three load-bearing details that nothing else in the
suite pins directly: epoch specs are pure functions of ``(seed, epoch)``
via the string RNG key ``soak:{seed}:{epoch}``, snapshots are named
``epoch-{epoch:04d}.snap``, and rotation is keyed by epoch index — never
by wall clock or file mtime.  Breaking any of these silently breaks
kill/resume (a resumed process would rebuild a *different* epoch, or
delete the wrong snapshot), so each is asserted here by exact value.
"""

import os
import random
import time

from repro.replay import SoakConfig, SoakRunner
from repro.replay.soak import SOAK_SCHEMES


class TestEpochKeying:
    def test_rng_key_is_the_soak_seed_epoch_string(self, tmp_path):
        """The epoch RNG must be ``Random(f"soak:{seed}:{epoch}")`` —
        string seeding hashes stably across processes, unlike ``hash()``.
        A resumed process reconstructs the epoch from this key alone, so
        the scheme drawn by epoch_spec must match an external draw from
        the same key."""
        config = SoakConfig(seed=9, state_dir=tmp_path)
        runner = SoakRunner(config)
        for epoch in (0, 1, 7):
            expected = random.Random(f"soak:9:{epoch}").choice(SOAK_SCHEMES)
            spec, _ = runner.epoch_spec(epoch)
            assert spec.scheme == expected

    def test_spec_is_independent_of_runner_instance_and_state_dir(
        self, tmp_path
    ):
        a = SoakRunner(SoakConfig(seed=5, state_dir=tmp_path / "a"))
        b = SoakRunner(SoakConfig(seed=5, state_dir=tmp_path / "b"))
        spec_a, cut_a = a.epoch_spec(2)
        spec_b, cut_b = b.epoch_spec(2)
        assert cut_a == cut_b
        assert spec_a.jobs == spec_b.jobs
        assert spec_a.config == spec_b.config

    def test_spec_is_independent_of_wall_clock_and_global_rng(
        self, tmp_path, monkeypatch
    ):
        runner = SoakRunner(SoakConfig(seed=5, state_dir=tmp_path))
        spec_a, cut_a = runner.epoch_spec(0)
        monkeypatch.setattr(time, "time", lambda: 4102444800.0)
        random.seed(987654321)
        spec_b, cut_b = runner.epoch_spec(0)
        assert cut_a == cut_b
        assert spec_a.jobs == spec_b.jobs
        assert spec_a.config.seed == spec_b.config.seed


class TestSnapshotNaming:
    def test_snapshot_filename_is_zero_padded_epoch(self, tmp_path):
        """``epoch-{epoch:04d}.snap`` — zero padding keeps lexical and
        numeric order aligned, which rotation and humans both rely on."""
        config = SoakConfig(epochs=1, seed=3, state_dir=tmp_path)
        SoakRunner(config).run()
        assert (tmp_path / "epoch-0000.snap").exists()

    def test_rotation_is_keyed_by_epoch_index_not_mtime(self, tmp_path):
        """Rotation deletes ``epoch-{epoch - keep:04d}.snap`` by index.
        Scrambled mtimes must not change which file dies."""
        runner = SoakRunner(
            SoakConfig(state_dir=tmp_path, keep_snapshots=2)
        )
        for epoch in range(4):
            (tmp_path / f"epoch-{epoch:04d}.snap").write_bytes(b"x")
        # Make the *newest* epoch look oldest on disk.
        past = time.time() - 10_000
        os.utime(tmp_path / "epoch-0003.snap", (past, past))
        runner._rotate_snapshots(3)
        names = sorted(p.name for p in tmp_path.glob("epoch-*.snap"))
        assert names == [
            "epoch-0000.snap", "epoch-0002.snap", "epoch-0003.snap"
        ]

    def test_rotation_of_early_epochs_is_a_noop(self, tmp_path):
        runner = SoakRunner(
            SoakConfig(state_dir=tmp_path, keep_snapshots=2)
        )
        (tmp_path / "epoch-0000.snap").write_bytes(b"x")
        runner._rotate_snapshots(0)
        runner._rotate_snapshots(1)
        assert (tmp_path / "epoch-0000.snap").exists()


class TestShardSoakKeying:
    """The shard target shares the contract: pure (seed, epoch) keying and
    zero-padded, epoch-indexed snapshot names."""

    def test_epoch_spec_is_pure_in_seed_and_epoch(self, tmp_path):
        config = SoakConfig(target="shard", seed=3, state_dir=tmp_path)
        spec_a, cut_a = SoakRunner(config).epoch_spec(1)
        spec_b, cut_b = SoakRunner(config).epoch_spec(1)
        assert cut_a == cut_b
        assert spec_a.jobs == spec_b.jobs
        assert spec_a.config == spec_b.config
        assert spec_a.shards == 2
        # Distinct epochs must draw distinct workloads.
        spec_c, _ = SoakRunner(config).epoch_spec(2)
        assert spec_c.jobs != spec_a.jobs

    def test_snap_path_is_zero_padded_epoch(self, tmp_path):
        runner = SoakRunner(SoakConfig(target="shard", state_dir=tmp_path))
        assert str(runner._snapshot_path(7)).endswith("epoch-0007.snap")
