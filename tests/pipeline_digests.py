"""Print a sha256 of every file the CLI pipeline writes, for byte-identity checks.

Runs, in a temporary directory: ``synth`` of 12 videos (6 train, 6 held
out); FI and RMI training of all 3 phases; ``infer`` in fi, rmi,
rmi-from-CSV (the fi predictions as external labels) and single-phase
modes; and ``eval`` of each prediction set.  Prints one
``<sha256>  <relative path>`` line per output file, sorted by path, so two
checkouts can be compared with ``diff``::

    PYTHONPATH=src python3 tests/pipeline_digests.py --window 3 --layers 1 > a.txt

``--gamma`` (default 0.9) sets the training discount: at 0 the agents
train without a target network, at any other value with one.  ``--grid``
runs every ``--window {1,3,5,7}`` x ``--layers {1,2}`` x ``--gamma {0,0.9}``
configuration in turn, and prefixes each line with its configuration::

    PYTHONPATH=src python3 tests/pipeline_digests.py --grid > a.txt

Window 1 reads no zero padding.  Pytest does not collect this file.  One
configuration takes about 15 s on one core, the grid 16 times that.

The grid's first line names the numpy version, the BLAS version and the
BLAS core, on which the digests depend.  ``--check FILE`` runs the grid and
compares it with FILE, such as the checked-in ``tests/pipeline_digests.sha256``;
it prints every line that differs, ``-`` for FILE's and ``+`` for this
run's, and exits 1 if any does::

    PYTHONPATH=src python3 tests/pipeline_digests.py --check tests/pipeline_digests.sha256

The script sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads, so on two or
more usable CPUs the forked processes run: ``train``'s helper, which
computes the end agent's gradients (one per ``train`` call, in every
configuration), and ``infer``'s search worker.  Under ``taskset -c 0``
everything runs in one process, and the digests must not change.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import itertools
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


def blas_line() -> str:
    """``# numpy <version>, <BLAS> <version>, core <name>``: what the digests depend on."""
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    core = "unknown"
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                     "openblas_get_corename"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_char_p
                core = get().decode()
    return f"# numpy {np.__version__}, {blas.get('name')} {blas.get('version')}, core {core}"


def digests(configs, prefixed: bool) -> list[str]:
    """One ``<sha256>  <path>`` line per output file of each configuration."""
    lines = []
    for window, layers, gamma in configs:
        prefix = f"window={window} layers={layers} gamma={gamma:g}  " if prefixed else ""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "reports").mkdir()
            with contextlib.redirect_stdout(sys.stderr):  # the commands' own messages
                run(root, window, layers, gamma)
            lines += [f"{prefix}{hashlib.sha256(path.read_bytes()).hexdigest()}  "
                      f"{path.relative_to(root)}"
                      for path in sorted(q for q in root.rglob("*") if q.is_file())]
    return lines


def main_digests(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--grid", action="store_true",
                   help="run every window 1/3/5/7, layers 1/2 and gamma 0/0.9 configuration")
    p.add_argument("--check", metavar="FILE",
                   help="run the grid and print every line that differs from FILE's")
    args = p.parse_args(argv)
    if not (args.grid or args.check):
        print("\n".join(digests([(args.window, args.layers, args.gamma)], False)))
        return 0
    lines = [blas_line()] + digests(itertools.product((1, 3, 5, 7), (1, 2), (0.0, 0.9)), True)
    if not args.check:
        print("\n".join(lines))
        return 0
    expected = Path(args.check).read_text(encoding="utf-8").splitlines()
    have, want = set(lines), set(expected)
    differ = [f"- {line}" for line in expected if line not in have]
    differ += [f"+ {line}" for line in lines if line not in want]
    print("\n".join(differ) if differ else f"{len(lines)} lines match {args.check}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main_digests())
