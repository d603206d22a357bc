"""Print a sha256 of every file the CLI pipeline writes, for byte-identity checks.

Runs, in a temporary directory: ``synth`` of 12 videos (6 train, 6 held
out); FI and RMI training of all 3 phases; ``infer`` in fi, rmi,
rmi-from-CSV (the fi predictions as external labels) and single-phase
modes; and ``eval`` of each prediction set.  Prints one
``<sha256>  <relative path>`` line per output file, sorted by path, so two
checkouts can be compared with ``diff``::

    PYTHONPATH=src python3 tests/pipeline_digests.py --window 3 --layers 1 > a.txt

``--gamma`` (default 0.9) sets the training discount: at 0 the agents
train without a target network, at any other value with one.
Pytest does not collect this file.  It takes about 15 s on one core.

The script sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads, so on two or
more usable CPUs the forked processes run: ``train``'s helper, which
computes the end agent's gradients (one per ``train`` call, in every
configuration), and ``infer``'s search worker.  Under ``taskset -c 0``
everything runs in one process, and the digests must not change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads, so train may fork its helper

from phaseseek.cli import main  # noqa: E402

PHASES = 3
TRAIN = ["--episodes", "3", "--max-steps", "60", "--batch", "16", "--hidden", "8",
         "--target-sync", "5", "--eps-start", "0.5", "--seed", "3"]


def run(root: Path, window: int, layers: int, gamma: float) -> None:
    def cli(*argv) -> None:
        code = main([str(a) for a in argv])
        if code != 0:
            sys.exit(f"phaseseek {' '.join(map(str, argv))} exited {code}")

    data, train, test = root / "data", root / "train", root / "test"
    cli("synth", "--out-dir", data, "--count", 12, "--phases", PHASES, "--seed", 11)
    for split, stems in ((train, range(6)), (test, range(6, 12))):
        split.mkdir()
        for i in stems:
            for ext in (".trnf", ".csv"):
                shutil.copy(data / f"video_{i:03d}{ext}", split)
    for init in ("fi", "rmi"):
        for phase in range(PHASES):
            cli("train", "--phase", phase, "--phases", PHASES, "--init", init,
                "--features-dir", train, "--labels-dir", train,
                "--checkpoints-dir", root / f"ckpt_{init}", "--window", window,
                "--layers", layers, "--gamma", gamma, *TRAIN)
    infer = ["infer", "--phases", PHASES, "--features-dir", test]
    rmi = ["--init", "rmi", "--checkpoints-dir", root / "ckpt_rmi"]
    cli(*infer, "--checkpoints-dir", root / "ckpt_fi", "--out-dir", root / "pred_fi")
    cli(*infer, *rmi, "--train-features-dir", train, "--train-labels-dir", train,
        "--out-dir", root / "pred_rmi")
    cli(*infer, *rmi, "--rmi-predictions-dir", root / "pred_fi",
        "--out-dir", root / "pred_rmi_csv")
    cli(*infer, "--checkpoints-dir", root / "ckpt_fi", "--phase", 1,
        "--out-dir", root / "pred_single")
    for pred in ("pred_fi", "pred_rmi", "pred_rmi_csv"):
        cli("eval", "--pred-dir", root / pred, "--gt-dir", test,
            "--report", root / "reports" / f"{pred}.json")


def main_digests(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--gamma", type=float, default=0.9)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "reports").mkdir()
        with contextlib.redirect_stdout(sys.stderr):  # the commands' own messages
            run(root, args.window, args.layers, args.gamma)
        for path in sorted(q for q in root.rglob("*") if q.is_file()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root)}")


if __name__ == "__main__":
    main_digests()
