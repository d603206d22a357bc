import json
import os
import resource
import shutil
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import phaseseek
from phaseseek import cli, inference, nets, procs, training
from phaseseek.cli import main
from phaseseek.errors import PhaseseekError
from phaseseek.features import load_labels
from phaseseek.inference import LinearClipClassifier
from phaseseek.nets import param_list

TINY_TRAIN = [
    "--window", "3", "--episodes", "1", "--max-steps", "20", "--batch", "16",
    "--hidden", "8", "--layers", "1", "--eps-start", "0.3", "--gamma", "0.0",
]


def _synth(out_dir, count=4, phases=2, seed=7, extra=()):
    args = [
        "synth", "--out-dir", str(out_dir), "--count", str(count),
        "--phases", str(phases), "--seed", str(seed), "--dim", "6",
        "--min-len", "12", "--max-len", "16", "--noise", "0.02", "--blend", "1",
    ]
    assert main(args + list(extra)) == 0


def _run(argv, address_space: int | None = None) -> tuple[int, str]:
    # The CLI in a child process, so an uncaught exception shows as a
    # traceback on standard error: (exit code, standard error).  With
    # ``address_space``, the child may map at most that many bytes.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    env = {**os.environ, "PYTHONPATH": str(Path(phaseseek.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "phaseseek.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env,
                          preexec_fn=limit if address_space else None)
    return proc.returncode, proc.stderr


NOT_UTF8_LABELS = b"clip_index,phase\r\n0,\xff\r\n"


def _infer_holding(monkeypatch, argv) -> dict:
    # Run infer in one process, recording its searches, every network stack
    # q_values evaluates and every feature matrix pad_videos returns.
    seen = {"stacks": [], "matrices": []}
    real_rollout, real_q = inference.rollout_many, inference.q_values
    real_pad = inference.pad_videos

    def rollout_many(searches, max_steps):
        seen["searches"] = searches
        return real_rollout(searches, max_steps)

    def q_values(stack, which, states):
        seen["stacks"].append(stack)
        return real_q(stack, which, states)

    def pad_videos(videos, pad):
        padded, base = real_pad(videos, pad)
        seen["matrices"].append(padded)
        return padded, base

    monkeypatch.setattr(procs, "usable_cpus", lambda: 1)
    monkeypatch.setattr(inference, "rollout_many", rollout_many)
    monkeypatch.setattr(inference, "q_values", q_values)
    monkeypatch.setattr(inference, "pad_videos", pad_videos)
    assert main([str(a) for a in argv]) == 0
    return seen


def _assert_held_once(seen) -> None:
    # Every video's features are rows of the one matrix the search reads,
    # and every network's weights are rows of a stack q_values evaluates.
    assert len({id(m) for m in seen["matrices"]}) == 1
    for policy, video, _ in seen["searches"]:
        assert np.shares_memory(video.features, seen["matrices"][0])
        for net in (policy.begin_net, policy.end_net):
            assert any(all(np.shares_memory(a, b) for a, b in zip(param_list(net),
                                                                  param_list(stack)))
                       for stack in seen["stacks"])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    ckpt = root / "ckpt"
    _synth(data)
    for phase in ("0", "1"):
        code = main([
            "train", "--phase", phase, "--phases", "2",
            "--features-dir", str(data), "--labels-dir", str(data),
            "--checkpoints-dir", str(ckpt), "--seed", "3", *TINY_TRAIN,
        ])
        assert code == 0
    return root


class TestSynth:
    def test_writes_requested_count(self, tmp_path):
        _synth(tmp_path / "out", count=3)
        assert len(list((tmp_path / "out").glob("*.trnf"))) == 3
        assert len(list((tmp_path / "out").glob("*.csv"))) == 3

    def test_zero_count(self, tmp_path):
        _synth(tmp_path / "none", count=0)
        assert list((tmp_path / "none").glob("*")) == []

    def test_same_seed_byte_identical(self, tmp_path):
        _synth(tmp_path / "a", count=2, seed=42)
        _synth(tmp_path / "b", count=2, seed=42)
        for name in ("video_000.trnf", "video_001.trnf", "video_000.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestTrain:
    def test_log_has_one_row_per_episode_video(self, tmp_path):
        data = tmp_path / "data"
        _synth(data, count=2)
        ckpt = tmp_path / "ckpt"
        assert main([
            "train", "--phase", "0", "--phases", "2",
            "--features-dir", str(data), "--labels-dir", str(data),
            "--checkpoints-dir", str(ckpt), *TINY_TRAIN,
        ]) == 0
        rows = (ckpt / "phase0_train_log.csv").read_text().strip().splitlines()
        assert rows[0] == "episode,video,begin_loss,end_loss,begin_error,end_error"
        assert len(rows) == 1 + 2

    def test_same_seed_identical_checkpoints(self, tmp_path):
        data = tmp_path / "data"
        _synth(data, count=2)
        blobs = []
        for sub in ("a", "b"):
            ckpt = tmp_path / sub
            assert main([
                "train", "--phase", "1", "--phases", "2", "--seed", "11",
                "--features-dir", str(data), "--labels-dir", str(data),
                "--checkpoints-dir", str(ckpt), *TINY_TRAIN,
            ]) == 0
            blobs.append((ckpt / "phase1_begin.qnet").read_bytes()
                         + (ckpt / "phase1_end.qnet").read_bytes())
        assert blobs[0] == blobs[1]

    def test_videos_are_trained_in_place(self, workspace, tmp_path, monkeypatch):
        # Each .trnf payload is decoded straight into its rows of the padded
        # matrix, so pad_videos trains on that matrix and copies nothing.
        shared = []
        real = training.pad_videos

        def spy(videos, pad):
            padded, bases = real(videos, pad)
            shared.extend(np.shares_memory(v.features, padded) for v in videos)
            return padded, bases

        monkeypatch.setattr(training, "pad_videos", spy)
        assert main([str(a) for a in (
            "train", "--phase", 0, "--phases", 2, "--features-dir", workspace / "data",
            "--labels-dir", workspace / "data", "--checkpoints-dir", tmp_path / "ck",
            *TINY_TRAIN)]) == 0
        assert shared and all(shared)

    def test_mixed_feature_dims_are_data_errors(self, workspace, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        _synth(tmp_path / "odd", count=1, extra=("--dim", "5"))
        for ext in (".trnf", ".csv"):
            shutil.copy(tmp_path / "odd" / f"video_000{ext}", data / f"video_999{ext}")
        code, err = _run(["train", "--phase", 0, "--phases", 2, "--features-dir", data,
                          "--labels-dir", data, "--checkpoints-dir", tmp_path / "ck",
                          *TINY_TRAIN])
        assert code == 2
        assert "video_999" in err and "Traceback" not in err
        assert not (tmp_path / "ck").exists()

    def test_phase_out_of_range_is_usage_error(self, tmp_path):
        assert main([
            "train", "--phase", "5", "--phases", "2",
            "--features-dir", "x", "--labels-dir", "x", "--checkpoints-dir", "x",
        ]) == 1

    def test_replay_sized_to_the_run(self, workspace, tmp_path):
        # A billion-record --memory asked for 7.45 GiB up front; the replay
        # ring now holds at most the records the run pushes.
        code, err = _run(["train", "--phase", 0, "--phases", 2,
                          "--features-dir", workspace / "data", "--labels-dir", workspace / "data",
                          "--checkpoints-dir", tmp_path / "ck", *TINY_TRAIN,
                          "--memory", 1000000000], address_space=2 << 30)
        assert code == 0, err

    def test_missing_data_is_data_error(self, tmp_path):
        assert main([
            "train", "--phase", "0", "--phases", "2",
            "--features-dir", str(tmp_path / "void"), "--labels-dir", str(tmp_path),
            "--checkpoints-dir", str(tmp_path / "ckpt"),
        ]) == 2


class TestInfer:
    def test_fixed_init_partial_coverage(self, workspace):
        out = workspace / "pred_fi"
        assert main([
            "infer", "--phases", "2",
            "--features-dir", str(workspace / "data"),
            "--checkpoints-dir", str(workspace / "ckpt"),
            "--out-dir", str(out), "--init", "fi",
        ]) == 0
        preds = sorted(out.glob("video_*.csv"))
        assert len(preds) == 4
        payload = json.loads((out / "video_000.transitions.json").read_text())
        assert payload["coverage"] < 1.0
        assert set(payload["phases"]) == {"0", "1"}
        labels = load_labels(preds[0], 2)
        assert labels.num_clips == payload["num_clips"]

    def test_each_video_and_network_is_held_once(self, workspace, tmp_path, monkeypatch):
        seen = _infer_holding(monkeypatch, [
            "infer", "--phases", 2, "--features-dir", workspace / "data",
            "--checkpoints-dir", workspace / "ckpt", "--out-dir", tmp_path / "out"])
        assert len(seen["searches"]) == 4 * 2
        _assert_held_once(seen)

    def test_mixed_windows_match_each_phase_alone(self, tmp_path, monkeypatch):
        # Phases 0 and 2 read 5-clip windows and phase 1 3-clip ones: one
        # infer gives each phase the transitions it gets alone, and still
        # holds every video and network once.
        data, ckpt = tmp_path / "data", tmp_path / "ckpt"
        _synth(data, count=3, phases=3)
        for phase, window in ((0, 5), (1, 3), (2, 5)):
            assert main(["train", "--phase", str(phase), "--phases", "3",
                         "--features-dir", str(data), "--labels-dir", str(data),
                         "--checkpoints-dir", str(ckpt), "--seed", "3", *TINY_TRAIN,
                         "--window", str(window)]) == 0
        infer = ["infer", "--phases", 3, "--features-dir", data, "--checkpoints-dir", ckpt]
        _assert_held_once(_infer_holding(monkeypatch, [*infer, "--out-dir", tmp_path / "all"]))
        for phase in range(3):
            alone = tmp_path / f"phase{phase}"
            assert main([str(a) for a in [*infer, "--phase", phase, "--out-dir", alone]]) == 0
            for path in sorted(alone.glob("*.transitions.json")):
                together = json.loads((tmp_path / "all" / path.name).read_text())
                assert json.loads(path.read_text())["phases"][str(phase)] == \
                    together["phases"][str(phase)]

    def test_rmi_reads_everything(self, workspace):
        out = workspace / "pred_rmi"
        assert main([
            "infer", "--phases", "2",
            "--features-dir", str(workspace / "data"),
            "--checkpoints-dir", str(workspace / "ckpt"),
            "--out-dir", str(out), "--init", "rmi",
            "--train-features-dir", str(workspace / "data"),
            "--train-labels-dir", str(workspace / "data"),
        ]) == 0
        payload = json.loads((out / "video_000.transitions.json").read_text())
        assert payload["coverage"] == 1.0

    def test_rmi_classifies_each_video_once(self, workspace, tmp_path, monkeypatch):
        calls = []
        predict = LinearClipClassifier.predict

        def counting(self, features):
            calls.append(features)
            return predict(self, features)

        monkeypatch.setattr(LinearClipClassifier, "predict", counting)
        out = tmp_path / "pred"
        assert main([
            "infer", "--phases", "2",
            "--features-dir", str(workspace / "data"),
            "--checkpoints-dir", str(workspace / "ckpt"),
            "--out-dir", str(out), "--init", "rmi",
            "--train-features-dir", str(workspace / "data"),
            "--train-labels-dir", str(workspace / "data"),
        ]) == 0
        assert len(calls) == len(list((workspace / "data").glob("*.trnf"))) == 4

    def test_rmi_without_training_split_is_usage_error(self, workspace):
        assert main([
            "infer", "--phases", "2",
            "--features-dir", str(workspace / "data"),
            "--checkpoints-dir", str(workspace / "ckpt"),
            "--out-dir", str(workspace / "x"), "--init", "rmi",
        ]) == 1

    def test_rmi_accepts_external_prediction_csvs(self, workspace):
        out = workspace / "pred_rmi_ext"
        assert main([
            "infer", "--phases", "2",
            "--features-dir", str(workspace / "data"),
            "--checkpoints-dir", str(workspace / "ckpt"),
            "--out-dir", str(out), "--init", "rmi",
            "--rmi-predictions-dir", str(workspace / "data"),
        ]) == 0
        payload = json.loads((out / "video_000.transitions.json").read_text())
        assert payload["coverage"] == 1.0

    def test_single_phase_mode_emits_binary_labels(self, workspace):
        out = workspace / "pred_single"
        assert main([
            "infer", "--phases", "2", "--phase", "1",
            "--features-dir", str(workspace / "data"),
            "--checkpoints-dir", str(workspace / "ckpt"),
            "--out-dir", str(out), "--init", "fi",
        ]) == 0
        labels = load_labels(out / "video_000.csv", 2)
        assert set(np.unique(labels.labels)) <= {0, 1}
        payload = json.loads((out / "video_000.transitions.json").read_text())
        assert payload["single_phase"] == 1
        assert list(payload["phases"]) == ["1"]

    def test_missing_checkpoint_is_data_error(self, workspace, tmp_path):
        assert main([
            "infer", "--phases", "2",
            "--features-dir", str(workspace / "data"),
            "--checkpoints-dir", str(tmp_path / "nothing"),
            "--out-dir", str(tmp_path / "out"),
        ]) == 2

    def test_fixed_init_needs_no_groundtruth_labels(self, workspace, tmp_path):
        bare = tmp_path / "features_only"
        bare.mkdir()
        for trnf in (workspace / "data").glob("*.trnf"):
            (bare / trnf.name).write_bytes(trnf.read_bytes())
        assert main([
            "infer", "--phases", "2",
            "--features-dir", str(bare),
            "--checkpoints-dir", str(workspace / "ckpt"),
            "--out-dir", str(tmp_path / "pred"), "--init", "fi",
        ]) == 0


@pytest.fixture(scope="module")
def three_phases(tmp_path_factory):
    # A 3-phase dataset and its policies at --window 3 and 5.
    root = tmp_path_factory.mktemp("three_phases")
    _synth(root / "data", count=5, phases=3)
    for window in (3, 5):
        for phase in range(3):
            assert main(["train", "--phase", str(phase), "--phases", "3",
                         "--features-dir", str(root / "data"), "--labels-dir", str(root / "data"),
                         "--checkpoints-dir", str(root / f"ckpt{window}"), "--seed", "3",
                         *TINY_TRAIN, "--window", str(window)]) == 0
    return root


class TestInferWorkers:
    # infer splits its searches by policy over min(usable CPUs, phases)
    # processes; two CPUs are faked so that these tests fork anywhere.

    def _infer(self, root, window, out, monkeypatch, cpus=2):
        monkeypatch.setattr(procs, "usable_cpus", lambda: cpus)
        return main(["infer", "--phases", "3", "--features-dir", str(root / "data"),
                     "--checkpoints-dir", str(root / f"ckpt{window}"), "--out-dir", str(out)])

    @pytest.mark.parametrize("window", [3, 5])
    def test_outputs_match_one_process(self, three_phases, tmp_path, monkeypatch,
                                       assert_no_children, window):
        # Each process records its searches' policies; a worker's answer
        # carries its record back.
        searched, used, workers = [], [], []
        real_sharded, real_many = cli.rollout_sharded, inference.rollout_many

        def rollout_sharded(searches, max_steps):
            searched.append(searches)
            return real_sharded(searches, max_steps)

        def rollout_many(searches, max_steps):
            used.append({id(policy) for policy, _, _ in searches})
            return real_many(searches, max_steps)

        class Worker(procs.Worker):
            def __init__(self, name, serve):
                workers.append(self)
                super().__init__(name, lambda request: (serve(request), used[-1]))

            def result(self):
                value, self.used = super().result()
                return value

        monkeypatch.setattr(cli, "rollout_sharded", rollout_sharded)
        monkeypatch.setattr(inference, "rollout_many", rollout_many)
        monkeypatch.setattr(inference, "Worker", Worker)
        assert self._infer(three_phases, window, tmp_path / "one", monkeypatch, cpus=1) == 0
        assert not workers
        assert self._infer(three_phases, window, tmp_path / "two", monkeypatch) == 0
        phase1 = searched[-1][1][0]  # each video's searches run phases 0, 1, 2
        assert [worker.used for worker in workers] == [{id(phase1)}]
        assert_no_children()
        names = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert len(names) == 2 * 5
        assert names == sorted(p.name for p in (tmp_path / "two").iterdir())
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_worker_error_is_data_error(self, three_phases, tmp_path, monkeypatch, capfd,
                                        assert_no_children):
        parent, real = os.getpid(), inference.rollout_many

        def rollout_many(searches, max_steps):
            if os.getpid() != parent:
                raise PhaseseekError("worker shard failed")
            return real(searches, max_steps)

        monkeypatch.setattr(inference, "rollout_many", rollout_many)
        assert self._infer(three_phases, 3, tmp_path / "out", monkeypatch) == 2
        err = capfd.readouterr().err
        assert "error: worker shard failed" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()
        assert_no_children()

    def test_killed_worker_is_reported(self, three_phases, tmp_path, monkeypatch, capfd,
                                       assert_no_children):
        parent, real = os.getpid(), inference.rollout_many

        def rollout_many(searches, max_steps):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)  # as the out-of-memory killer would
            return real(searches, max_steps)

        monkeypatch.setattr(inference, "rollout_many", rollout_many)
        assert self._infer(three_phases, 3, tmp_path / "out", monkeypatch) == 2
        err = capfd.readouterr().err
        assert f"exit code {-signal.SIGKILL}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()
        assert_no_children()

    def test_parent_error_reaps_worker(self, three_phases, tmp_path, monkeypatch,
                                       assert_no_children):
        parent, real = os.getpid(), inference.rollout_many

        def rollout_many(searches, max_steps):
            if os.getpid() != parent:
                time.sleep(60)  # still running when the parent's shard fails
                return real(searches, max_steps)
            raise RuntimeError("parent shard failed")

        monkeypatch.setattr(inference, "rollout_many", rollout_many)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="parent shard failed"):
            self._infer(three_phases, 3, tmp_path / "out", monkeypatch)
        assert time.monotonic() - start < 30
        assert_no_children()

    @pytest.mark.parametrize("window", [3, 5])
    def test_each_shard_views_the_loaded_stack(self, three_phases, tmp_path, monkeypatch,
                                               assert_no_children, window):
        # Policies load shard by shard, so each shard's networks are
        # consecutive rows of the loaded stack, which its search views; a
        # copy, here or in the worker, fails the run.
        seen, real = [], inference.stack_networks

        def stack_networks(group):
            stack = real(group)
            if not np.shares_memory(stack.fc1_w, group[0].fc1_w):
                raise PhaseseekError(f"{len(group)} networks copied into one stack")
            seen.append(len(group))
            return stack

        monkeypatch.setattr(inference, "stack_networks", stack_networks)
        assert self._infer(three_phases, window, tmp_path / "out", monkeypatch) == 0
        assert seen == [4]  # phases 0 and 2 here; phase 1 in the worker
        assert_no_children()


@pytest.fixture
def exact_split():
    # TestTrainHelper's geometry: dim 6, hidden 8, 2 layers, batch 8, 2L = 6.
    if not nets.splits_exactly(nets.init_qnetwork(6, 8, 2), 8, 6, 2):
        pytest.skip("two row parts round differently from one with the BLAS in use")


class TestTrainHelper:
    # train runs each update's batch as two row parts, the second in a
    # forked helper, where two CPUs are usable (faked here through the one
    # procs.usable_cpus), BLAS runs one thread (faked too) and two
    # parts reproduce one exactly.

    def _train(self, workspace, out, monkeypatch, *flags, cpus=2):
        monkeypatch.setattr(procs, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(training, "_blas_threads", lambda: 1)
        data = str(workspace / "data")
        return main(["train", "--phase", "0", "--phases", "2", "--features-dir", data,
                     "--labels-dir", data, "--checkpoints-dir", str(out), "--seed", "5",
                     "--window", "3", "--episodes", "1", "--max-steps", "20", "--hidden", "8",
                     "--layers", "2", "--eps-start", "0.5", *flags])

    @pytest.mark.parametrize("gamma", [["--gamma", "0"], ["--gamma", "0.9", "--target-sync", "3"]])
    @pytest.mark.parametrize("batch, helpers", [(8, 1), (12, 0)])
    def test_outputs_match_one_process(self, workspace, tmp_path, monkeypatch, exact_split,
                                       assert_no_children, gamma, batch, helpers):
        made, real = [], training._RowHelper.__init__
        monkeypatch.setattr(training._RowHelper, "__init__",
                            lambda helper, *args: made.append(helper) or real(helper, *args))
        flags = ["--batch", str(batch), *gamma]
        assert self._train(workspace, tmp_path / "one", monkeypatch, *flags, cpus=1) == 0
        assert not made
        assert self._train(workspace, tmp_path / "two", monkeypatch, *flags) == 0
        assert len(made) == helpers  # a batch of 12 splits into parts of 6 rows: not exact
        assert_no_children()
        names = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert len(names) == 4
        assert names == sorted(p.name for p in (tmp_path / "two").iterdir())
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_killed_helper_is_reported(self, workspace, tmp_path, monkeypatch, capfd, exact_split,
                                       assert_no_children):
        parent, real = os.getpid(), training._update_rows

        def update_rows(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)  # as the out-of-memory killer would
            return real(*args)

        monkeypatch.setattr(training, "_update_rows", update_rows)
        assert self._train(workspace, tmp_path / "out", monkeypatch, "--batch", "8") == 2
        err = capfd.readouterr().err
        assert f"exit code {-signal.SIGKILL}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()
        assert_no_children()

    def test_helper_error_is_data_error(self, workspace, tmp_path, monkeypatch, capfd,
                                        exact_split, assert_no_children):
        parent, real = os.getpid(), training._update_rows

        def update_rows(*args):
            if os.getpid() != parent:
                raise PhaseseekError("helper rows failed")
            return real(*args)

        monkeypatch.setattr(training, "_update_rows", update_rows)
        assert self._train(workspace, tmp_path / "out", monkeypatch, "--batch", "8") == 2
        err = capfd.readouterr().err
        assert "error: helper rows failed" in err and "Traceback" not in err
        assert_no_children()


def _meta_cases():
    good = {"phase": 0, "window": 3, "rho_begin": 0.0, "rho_end": 0.5, "input_dim": 6}
    yield "not_json", "{window: 3"
    yield "not_utf8", b"\xff\xfe{}"
    yield "not_an_object", "[3, 0.0, 0.5, 6]"
    for key in ("window", "rho_begin", "rho_end", "input_dim"):
        yield f"missing_{key}", {k: v for k, v in good.items() if k != key}
    for key, bad in (("window", "3"), ("window", 3.0), ("window", True), ("window", 4),
                     ("window", 0), ("rho_begin", "0.1"), ("rho_begin", None),
                     ("rho_end", [0.5]), ("rho_end", 1.5), ("rho_begin", 0.9),
                     ("input_dim", 6.0), ("input_dim", 0)):
        yield f"{key}_{bad!r}", {**good, key: bad}
    yield "input_dim_differs_from_qnet", {**good, "input_dim": 7}


class TestInferMetaValidation:
    @pytest.mark.parametrize("meta", [m for _, m in _meta_cases()],
                             ids=[name for name, _ in _meta_cases()])
    def test_bad_meta_is_data_error(self, workspace, tmp_path, capsys, meta):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workspace / "ckpt", ckpt)
        meta_path = ckpt / "phase0_meta.json"
        if isinstance(meta, bytes):
            meta_path.write_bytes(meta)
        else:
            meta_path.write_text(meta if isinstance(meta, str) else json.dumps(meta))
        out = tmp_path / "out"
        assert main([
            "infer", "--phases", "2",
            "--features-dir", str(workspace / "data"),
            "--checkpoints-dir", str(ckpt), "--out-dir", str(out),
        ]) == 2
        assert "phase0_" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_checkpoint_header_is_data_error(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workspace / "ckpt", ckpt)
        # 36 bytes whose header declares H=4000: rejected before any allocation
        (ckpt / "phase0_begin.qnet").write_bytes(
            struct.pack("<4sIIIIII", b"QNET", 1, 6, 4000, 1, 50, 2) + bytes(8))
        out = tmp_path / "out"
        assert main([
            "infer", "--phases", "2",
            "--features-dir", str(workspace / "data"),
            "--checkpoints-dir", str(ckpt), "--out-dir", str(out),
        ]) == 2
        assert "phase0_begin.qnet" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_checkpoint_is_data_error(self, workspace, tmp_path):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workspace / "ckpt", ckpt)
        path = ckpt / "phase1_end.qnet"
        path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", float("nan")))  # fc2_b[1]
        out = tmp_path / "out"
        code, err = _run(["infer", "--phases", 2, "--features-dir", workspace / "data",
                          "--checkpoints-dir", ckpt, "--out-dir", out])
        assert code == 2
        assert "phase1_end.qnet" in err and "NaN" in err and "Traceback" not in err
        assert not out.exists()

    def test_video_dim_mismatch_names_video_and_writes_nothing(self, workspace, tmp_path,
                                                                capsys):
        odd = tmp_path / "odd"
        _synth(odd, count=1, extra=("--dim", "5"))
        mixed = tmp_path / "mixed"
        shutil.copytree(workspace / "data", mixed)
        shutil.copy(odd / "video_000.trnf", mixed / "video_999.trnf")
        out = tmp_path / "out"
        assert main([
            "infer", "--phases", "2",
            "--features-dir", str(mixed),
            "--checkpoints-dir", str(workspace / "ckpt"), "--out-dir", str(out),
        ]) == 2
        assert "video_999" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_perfect_predictions(self, workspace, capsys):
        report = workspace / "self.json"
        assert main([
            "eval", "--pred-dir", str(workspace / "data"),
            "--gt-dir", str(workspace / "data"), "--report", str(report),
        ]) == 0
        payload = json.loads(report.read_text())
        agg = payload["aggregate"]
        assert agg["accuracy"]["mean"] == 1.0
        assert agg["event_ratio"] == 1.0
        assert agg["ward_event_ratio"] == 1.0
        assert "std" in agg["f1"]
        assert report.with_suffix(".csv").exists()
        assert "accuracy 1.000" in capsys.readouterr().out

    def test_missing_prediction_lists_id(self, workspace, tmp_path, capsys):
        pred = tmp_path / "partial"
        pred.mkdir()
        (pred / "video_000.csv").write_bytes((workspace / "data" / "video_000.csv").read_bytes())
        assert main([
            "eval", "--pred-dir", str(pred), "--gt-dir", str(workspace / "data"),
            "--report", str(tmp_path / "r.json"),
        ]) == 2
        assert "video_001" in capsys.readouterr().err

    def test_reports_inferred_coverage(self, workspace, tmp_path):
        report = tmp_path / "fi.json"
        assert main([
            "eval", "--pred-dir", str(workspace / "pred_fi"),
            "--gt-dir", str(workspace / "data"), "--report", str(report),
        ]) == 0
        payload = json.loads(report.read_text())
        assert payload["aggregate"]["coverage"] < 1.0


class TestMalformedInputs:
    # Undecodable label CSVs and feature files with trailing bytes are data
    # errors (exit 2), an undecodable --config file is a usage error
    # (exit 1); none ends in a traceback.
    def _copy_with_bad_labels(self, workspace, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        (data / "video_001.csv").write_bytes(NOT_UTF8_LABELS)
        return data

    def test_eval(self, workspace, tmp_path):
        gt = self._copy_with_bad_labels(workspace, tmp_path)
        code, err = _run(["eval", "--pred-dir", workspace / "data", "--gt-dir", gt,
                          "--report", tmp_path / "r.json"])
        assert code == 2
        assert "video_001.csv" in err and "Traceback" not in err

    def test_train(self, workspace, tmp_path):
        data = self._copy_with_bad_labels(workspace, tmp_path)
        code, err = _run(["train", "--phase", 0, "--phases", 2, "--features-dir", data,
                          "--labels-dir", data, "--checkpoints-dir", tmp_path / "ck",
                          *TINY_TRAIN])
        assert code == 2
        assert "video_001.csv" in err and "Traceback" not in err

    def test_infer_rmi_predictions(self, workspace, tmp_path):
        preds = self._copy_with_bad_labels(workspace, tmp_path)
        code, err = _run(["infer", "--phases", 2, "--init", "rmi",
                          "--features-dir", workspace / "data",
                          "--checkpoints-dir", workspace / "ckpt",
                          "--out-dir", tmp_path / "out", "--rmi-predictions-dir", preds])
        assert code == 2
        assert "video_001.csv" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"count=2\n# \xe9t\xe9\n")
        code, err = _run(["synth", "--config", cfg, "--out-dir", tmp_path / "out"])
        assert code == 1
        assert "run.cfg" in err and "Traceback" not in err

    @pytest.mark.parametrize("raw", [
        b'{"coverage": 0.5, "note": "\xff"}', b"{}", b'{"coverage": null}', b"coverage: 0.5",
        b'{"coverage": 1.5}', b'{"coverage": NaN}', b'{"coverage": true}', b"[0.5]",
    ], ids=["not_utf8", "no_coverage", "null", "not_json", "above_1", "nan", "bool", "list"])
    def test_eval_transitions_json(self, workspace, tmp_path, raw):
        pred = tmp_path / "pred"
        shutil.copytree(workspace / "data", pred)
        (pred / "video_001.transitions.json").write_bytes(raw)
        code, err = _run(["eval", "--pred-dir", pred, "--gt-dir", workspace / "data",
                          "--report", tmp_path / "r.json"])
        assert code == 2
        assert "video_001.transitions.json" in err and "Traceback" not in err

    def test_synth_too_large_rejected_before_allocating(self, tmp_path):
        argv = ["synth", "--out-dir", str(tmp_path / "out"), "--min-len", "100000000",
                "--max-len", "100000000"]
        tracemalloc.start()
        try:
            code = main(argv)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert code == 1
        assert peak < 1 << 20
        code, err = _run(argv)
        assert code == 1
        assert "--max-len" in err and "Traceback" not in err and "MemoryError" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--window", "100000001"), ("--hidden", "1000000"), ("--layers", "100000000"),
    ])
    def test_oversized_train_flags(self, workspace, tmp_path, flag, value):
        # Window padding asked for 11.9 GiB, --hidden for 29.1 TiB of weights,
        # and --layers raised MemoryError; each is refused before allocating.
        code, err = _run(["train", "--phase", 0, "--phases", 2, "--features-dir",
                          workspace / "data", "--labels-dir", workspace / "data",
                          "--checkpoints-dir", tmp_path / "ck", *TINY_TRAIN, flag, value],
                         address_space=2 << 30)
        assert code == 1
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "ck").exists()

    def test_oversized_meta_window(self, workspace, tmp_path):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workspace / "ckpt", ckpt)
        meta_path = ckpt / "phase1_meta.json"
        meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()),
                                         "window": 100000001}))
        code, err = _run(["infer", "--phases", 2, "--features-dir", workspace / "data",
                          "--checkpoints-dir", ckpt, "--out-dir", tmp_path / "out"],
                         address_space=2 << 30)
        assert code == 2
        assert "phase1_meta.json" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_oversized_meta_window_round(self, workspace, tmp_path):
        # One dim-6 video admits the zero padding of a 22369621-clip window,
        # but one search round's states needed 4 GiB: refused before
        # allocating, naming the meta file.
        data = tmp_path / "one"
        _synth(data, count=1)
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workspace / "ckpt", ckpt)
        meta_path = ckpt / "phase1_meta.json"
        meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()),
                                         "window": 22369621}))
        code, err = _run(["infer", "--phases", 2, "--features-dir", data,
                          "--checkpoints-dir", ckpt, "--out-dir", tmp_path / "out"],
                         address_space=2 << 30)
        assert code == 2
        assert "phase1_meta.json" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_oversized_meta_window_group_round(self, workspace, tmp_path):
        # One state of a 1398091-clip window fits, but the first round of
        # eight dim-6 videos gathers 16 such states, 2 GiB: refused before
        # allocating, naming the meta file.
        data = tmp_path / "eight"
        _synth(data, count=8)
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workspace / "ckpt", ckpt)
        meta_path = ckpt / "phase1_meta.json"
        meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()),
                                         "window": 1398091}))
        code, err = _run(["infer", "--phases", 2, "--features-dir", data,
                          "--checkpoints-dir", ckpt, "--out-dir", tmp_path / "out"],
                         address_space=2 << 30)
        assert code == 2
        assert "phase1_meta.json" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_oversized_state_batch(self, tmp_path):
        # One dim-6 video admits the zero padding of a 22369621-clip window,
        # but 128 of its states would need 128 x 2 GiB: refused before
        # training, naming the flags.
        data = tmp_path / "one"
        _synth(data, count=1)
        code, err = _run(["train", "--phase", 0, "--phases", 2, "--features-dir", data,
                          "--labels-dir", data, "--checkpoints-dir", tmp_path / "ck",
                          "--window", 22369621], address_space=2 << 30)
        assert code == 1
        assert "--window" in err and "--batch" in err and "Traceback" not in err
        assert not (tmp_path / "ck").exists()

    def test_synth_bad_lengths_are_usage_errors(self, tmp_path):
        code, err = _run(["synth", "--out-dir", tmp_path / "out", "--min-len", "0"])
        assert code == 1
        assert "min_len" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "0"), ("--lr", "inf"), ("--lr", "1e300"), ("--lr", "1.5"), ("--gamma", "1"), ("--gamma", "nan"), ("--batch", "0"),
        ("--eps-start", "2"), ("--episodes", "-1"), ("--hidden", "0"), ("--seed", "-1"),
        ("--eps-decay", "1e308"),
    ])
    def test_bad_train_numbers(self, workspace, tmp_path, flag, value):
        # Three episodes: at the third, an --eps-decay of 1e308 made eps_decay ** 2 overflow.
        code, err = _run(["train", "--phase", 0, "--phases", 2, "--features-dir",
                          workspace / "data", "--labels-dir", workspace / "data",
                          "--checkpoints-dir", tmp_path / "ck", *TINY_TRAIN,
                          "--episodes", 3, flag, value])
        assert code == 1
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "ck").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--fps", "0"), ("--fps", "nan"), ("--fps", "1e308"), ("--clip-len", "0"),
        ("--clip-len", str(2**32)), ("--noise", "nan"), ("--noise", "1e38"),
        ("--noise", "1e308"), ("--seed", "-1"),
    ])
    def test_bad_synth_numbers(self, tmp_path, flag, value):
        code, err = _run(["synth", "--out-dir", tmp_path / "out", flag, value])
        assert code == 1
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_many_phases_fail_at_the_first_missing_policy(self, workspace, tmp_path):
        # The phase list is not built up front: a billion phases is one
        # missing checkpoint, not a 30 GiB list.
        code, err = _run(["infer", "--phases", 10**9, "--features-dir", workspace / "data",
                          "--checkpoints-dir", workspace / "ckpt",
                          "--out-dir", tmp_path / "out"], address_space=2 << 30)
        assert code == 2
        assert "phase2_meta.json" in err and "Traceback" not in err

    def test_negative_infer_max_steps(self, workspace, tmp_path):
        code, err = _run(["infer", "--phases", 2, "--features-dir", workspace / "data",
                          "--checkpoints-dir", workspace / "ckpt",
                          "--out-dir", tmp_path / "out", "--max-steps", -3])
        assert code == 1
        assert "--max-steps" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_trailing_feature_bytes(self, workspace, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        trnf = data / "video_002.trnf"
        trnf.write_bytes(trnf.read_bytes() + bytes(4))
        code, err = _run(["infer", "--phases", 2, "--features-dir", data,
                          "--checkpoints-dir", workspace / "ckpt",
                          "--out-dir", tmp_path / "out"])
        assert code == 2
        assert "trailing" in err and "Traceback" not in err


class TestRibbon:
    def test_geometry(self, tmp_path):
        for name, labels in (("a.csv", [0] * 60 + [1] * 40), ("b.csv", [0] * 50 + [1] * 50)):
            with open(tmp_path / name, "w") as fh:
                fh.write("clip_index,phase\n")
                fh.writelines(f"{i},{p}\n" for i, p in enumerate(labels))
        out = tmp_path / "ribbon.ppm"
        assert main(["ribbon", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                     "--out", str(out), "--band-height", "3"]) == 0
        tokens = out.read_text().split()
        assert tokens[0] == "P3"
        assert tokens[1:4] == ["100", "6", "255"]
        assert len(tokens) == 4 + 100 * 6 * 3

    def test_constant_sequence_single_color(self, tmp_path):
        with open(tmp_path / "c.csv", "w") as fh:
            fh.write("clip_index,phase\n")
            fh.writelines(f"{i},2\n" for i in range(10))
        out = tmp_path / "solid.ppm"
        assert main(["ribbon", str(tmp_path / "c.csv"), "--out", str(out),
                     "--band-height", "1"]) == 0
        pixels = out.read_text().split()[4:]
        assert len(set(zip(pixels[::3], pixels[1::3], pixels[2::3]))) == 1

    def test_empty_input_is_usage_error(self, tmp_path):
        assert main(["ribbon", "--out", str(tmp_path / "x.ppm")]) == 1

    def test_bytes(self, tmp_path):
        (tmp_path / "a.csv").write_text("clip_index,phase\n0,0\n1,11\n2,1\n")
        (tmp_path / "b.csv").write_text("clip_index,phase\n0,2\n")
        out = tmp_path / "r.ppm"
        assert main(["ribbon", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                     "--out", str(out), "--band-height", "2"]) == 0
        a = "230 64 52\n46 134 222\n46 134 222\n"
        b = "38 166 91\n255 255 255\n255 255 255\n"
        assert out.read_bytes() == ("P3\n3 4\n255\n" + 2 * a + 2 * b).encode()

    def test_tall_ribbon_holds_one_row(self, tmp_path):
        # 2 x 1000000 pixels are 22 MB of text; the command holds one row's.
        (tmp_path / "c.csv").write_text("clip_index,phase\n0,0\n1,1\n")
        out = tmp_path / "tall.ppm"
        tracemalloc.start()
        try:
            code = main(["ribbon", str(tmp_path / "c.csv"), "--out", str(out),
                         "--band-height", "1000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.stat().st_size == len("P3\n2 1000000\n255\n230 64 52\n46 134 222\n") + \
            999999 * len("230 64 52\n46 134 222\n")
        assert peak < 1 << 20

    def test_oversized_band_height_is_usage_error(self, tmp_path):
        (tmp_path / "c.csv").write_text("clip_index,phase\n0,0\n1,1\n")
        code, err = _run(["ribbon", tmp_path / "c.csv", "--out", tmp_path / "r.ppm",
                          "--band-height", 1000000000], address_space=2 << 30)
        assert code == 1
        assert "--band-height" in err and "Traceback" not in err
        assert not (tmp_path / "r.ppm").exists()


class TestConfigFile:
    def test_config_seeds_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        # window is a train flag; a shared config file may still set it
        cfg.write_text("count=2\nphases=2\ndim=6\nmin_len=12\nmax_len=16\nseed=5\nwindow=3\n")
        out_a = tmp_path / "a"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(out_a)]) == 0
        assert len(list(out_a.glob("*.trnf"))) == 2
        out_b = tmp_path / "b"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(out_b),
                     "--count", "1"]) == 0
        assert len(list(out_b.glob("*.trnf"))) == 1

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key=1\n")
        assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1

    def test_bad_config_choice_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("init=bogus\n")
        assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_even_window_rejected(self, tmp_path):
        _synth(tmp_path / "data", count=1)
        assert main(["train", "--phase", "0", "--phases", "2",
                     "--features-dir", str(tmp_path / "data"),
                     "--labels-dir", str(tmp_path / "data"),
                     "--checkpoints-dir", str(tmp_path / "ckpt"), "--window", "4"]) == 1
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("argv", [
        ["synth", "--out-dir", "x", "--count", "0"],
        ["infer", "--features-dir", "x", "--checkpoints-dir", "x", "--out-dir", "x"],
        ["eval", "--pred-dir", "x", "--gt-dir", "x", "--report", "x"],
    ], ids=["synth", "infer", "eval"])
    def test_window_is_a_train_flag_only(self, argv, capsys):
        assert main(argv + ["--window", "3"]) == 1
        assert "unrecognized arguments: --window 3" in capsys.readouterr().err
