"""Soak harness: deterministic epochs, resumable manifest, SIGKILL safety."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.replay import SoakConfig, SoakRunner, format_manifest

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
SOAK_SCRIPT = os.path.join(
    os.path.dirname(SRC_DIR), "scripts", "soak.py"
)


class TestEpochGeneration:
    def test_epoch_spec_is_deterministic(self, tmp_path):
        runner = SoakRunner(SoakConfig(state_dir=tmp_path))
        spec_a, cut_a = runner.epoch_spec(4)
        spec_b, cut_b = runner.epoch_spec(4)
        assert cut_a == cut_b
        assert spec_a.scheme == spec_b.scheme
        assert spec_a.jobs == spec_b.jobs
        assert (spec_a.fault_schedule is None) == (
            spec_b.fault_schedule is None
        )

    def test_epochs_differ(self, tmp_path):
        runner = SoakRunner(SoakConfig(state_dir=tmp_path))
        cuts = {runner.epoch_spec(e)[1] for e in range(5)}
        assert len(cuts) == 5

    def test_config_validation(self):
        with pytest.raises(ValueError, match="epochs"):
            SoakConfig(epochs=0)
        with pytest.raises(ValueError, match="fault_probability"):
            SoakConfig(fault_probability=1.5)


class TestCampaign:
    def test_run_and_resume_noop(self, tmp_path):
        lines = []
        config = SoakConfig(epochs=2, seed=3, state_dir=tmp_path)
        manifest = SoakRunner(config, progress=lines.append).run()
        assert len(manifest["epochs"]) == 2
        assert all(r["resumed_identical"] for r in manifest["epochs"])
        assert all(r["violations"] == 0 for r in manifest["epochs"])
        assert (tmp_path / "soak.json").exists()

        # Rerunning a finished campaign verifies nothing new.
        lines.clear()
        again = SoakRunner(config, progress=lines.append).run()
        assert again["epochs"] == manifest["epochs"]
        assert any("resuming" in line for line in lines)

    def test_extends_finished_campaign(self, tmp_path):
        SoakRunner(SoakConfig(epochs=1, seed=3, state_dir=tmp_path)).run()
        manifest = SoakRunner(
            SoakConfig(epochs=3, seed=3, state_dir=tmp_path)
        ).run()
        assert len(manifest["epochs"]) == 3

    def test_seed_mismatch_refused(self, tmp_path):
        SoakRunner(SoakConfig(epochs=1, seed=3, state_dir=tmp_path)).run()
        with pytest.raises(RuntimeError, match="seed"):
            SoakRunner(SoakConfig(epochs=1, seed=4, state_dir=tmp_path)).run()

    def test_snapshot_rotation(self, tmp_path):
        config = SoakConfig(
            epochs=4, seed=3, state_dir=tmp_path, keep_snapshots=2
        )
        SoakRunner(config).run()
        snaps = sorted(p.name for p in tmp_path.glob("epoch-*.snap"))
        assert snaps == ["epoch-0002.snap", "epoch-0003.snap"]

    def test_format_manifest(self, tmp_path):
        manifest = SoakRunner(
            SoakConfig(epochs=1, seed=3, state_dir=tmp_path)
        ).run()
        text = format_manifest(manifest)
        assert "epoch" in text
        assert "1/1" in text


class TestSigkill:
    def _soak(self, state_dir, epochs):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        return subprocess.Popen(
            [
                sys.executable, SOAK_SCRIPT,
                "--epochs", str(epochs),
                "--seed", "3",
                "--state-dir", str(state_dir),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )

    def test_survives_sigkill_between_epochs(self, tmp_path):
        # Epoch 0 completes and lands in the manifest.
        proc = self._soak(tmp_path, 1)
        assert proc.wait(timeout=120) == 0
        first = json.loads((tmp_path / "soak.json").read_text())
        assert len(first["epochs"]) == 1

        # A longer campaign gets SIGKILLed mid-flight — wherever the kill
        # lands, the manifest on disk stays valid at an epoch boundary.
        proc = self._soak(tmp_path, 3)
        time.sleep(0.5)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        killed = json.loads((tmp_path / "soak.json").read_text())
        assert 1 <= len(killed["epochs"]) <= 3

        # Rerunning resumes from the last checkpoint and finishes clean.
        proc = self._soak(tmp_path, 3)
        assert proc.wait(timeout=240) == 0
        final = json.loads((tmp_path / "soak.json").read_text())
        assert len(final["epochs"]) == 3
        assert all(r["resumed_identical"] for r in final["epochs"])
        assert all(r["violations"] == 0 for r in final["epochs"])
        # Pre-kill verified epochs were not re-run or rewritten.
        assert final["epochs"][0] == first["epochs"][0]


class TestTargets:
    def test_unknown_target_refused(self, tmp_path):
        with pytest.raises(ValueError, match="target"):
            SoakConfig(target="nope", state_dir=tmp_path)

    def test_old_manifest_refused(self, tmp_path):
        (tmp_path / "soak.json").write_text(
            json.dumps({"version": 1, "seed": 0, "epochs": []})
        )
        with pytest.raises(RuntimeError, match="version"):
            SoakRunner(SoakConfig(epochs=1, state_dir=tmp_path)).run()

    def test_target_mismatch_refused(self, tmp_path):
        SoakRunner(SoakConfig(epochs=1, seed=3, state_dir=tmp_path)).run()
        with pytest.raises(RuntimeError, match="target"):
            SoakRunner(
                SoakConfig(epochs=1, seed=3, state_dir=tmp_path, target="shard")
            ).run()

    @pytest.mark.parametrize("target", ["control", "shard"])
    def test_epoch_is_pure_in_seed_and_epoch(self, tmp_path, target):
        runner = SoakRunner(SoakConfig(target=target, seed=5, state_dir=tmp_path))
        _, cut_a = runner.epoch_spec(1)
        _, cut_b = SoakRunner(
            SoakConfig(target=target, seed=5, state_dir=tmp_path / "b")
        ).epoch_spec(1)
        _, cut_c = runner.epoch_spec(2)
        assert cut_a == cut_b != cut_c


class TestKillAfterCut:
    """Every target: ``--kill-after-cut`` dies by SIGKILL once the first
    snapshot is durable, the rerun finishes that epoch from the snapshot
    on disk against the stored reference digests, and a third run is a
    no-op."""

    def _soak(self, target, state_dir, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        return subprocess.run(
            [
                sys.executable, SOAK_SCRIPT,
                "--target", target,
                "--epochs", "1",
                "--state-dir", str(state_dir),
                *extra,
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=240,
        )

    @pytest.mark.parametrize("target", ["scenario", "control", "shard"])
    def test_kill_resume_noop(self, tmp_path, target):
        killed = self._soak(target, tmp_path, "--kill-after-cut")
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        manifest = json.loads((tmp_path / "soak.json").read_text())
        [record] = manifest["epochs"]
        assert record["status"] == "cut"
        assert (tmp_path / "epoch-0000.snap").exists()

        resumed = self._soak(target, tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        final = json.loads((tmp_path / "soak.json").read_text())
        [done] = final["epochs"]
        assert done["status"] == "done" and done["resumed_identical"]
        # Compared against the reference digests stored before the kill.
        assert done["reference"] == record["reference"]
        assert "replay identical" in resumed.stderr

        text = (tmp_path / "soak.json").read_text()
        noop = self._soak(target, tmp_path, "--kill-after-cut")
        assert noop.returncode == 0, noop.stderr
        assert "replay identical" not in noop.stderr
        assert (tmp_path / "soak.json").read_text() == text

    def test_resume_compares_against_the_stored_reference(self, tmp_path):
        """The post-kill resume does not rerun the reference: a stored
        digest that no longer matches is reported, by fact name."""
        killed = self._soak("scenario", tmp_path, "--kill-after-cut")
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        path = tmp_path / "soak.json"
        manifest = json.loads(path.read_text())
        manifest["epochs"][0]["reference"]["ccts"] = "0" * 16
        path.write_text(json.dumps(manifest))
        resumed = self._soak("scenario", tmp_path)
        assert resumed.returncode != 0
        assert "diverged from the reference in ['ccts']" in resumed.stderr
