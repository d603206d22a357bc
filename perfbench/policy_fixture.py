"""The fixed search policy that the ``infer_*`` workloads read.

Three agent pairs trained by ``phaseseek train`` with the acceptance config
(``--episodes 1 --gamma 0 --eps-start 0.5``, defaults otherwise) on the first
``TRAIN_VIDEOS`` videos of ``phaseseek synth --seed SEED``.  Held-out videos
must come from the same ``synth`` seed, because the seed draws the phase
prototypes.  ``policy/SHA256SUMS`` pins every policy file and the training
corpus; the benchmark refuses to run when they differ.

Regenerate the fixture (about 3 minutes on one core) after a change to the
checkpoint format or to training, and commit the result::

    python3 perfbench/policy_fixture.py            # rewrite policy/ and its pins
    python3 perfbench/policy_fixture.py --check    # retrain in a temp dir, compare
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from envinfo import BENCH_DIR, REPO_ROOT, pin_blas_threads

SEED = 7
PHASES = 3
TRAIN_VIDEOS = 6
TRAIN_FLAGS = ["--episodes", "1", "--gamma", "0", "--eps-start", "0.5"]
POLICY_DIR = BENCH_DIR / "policy"
WORK_ROOT = REPO_ROOT / ".perfbench_work"
PINS_NAME = "SHA256SUMS"
CORPUS_PREFIX = "corpus/"


class FixtureMismatch(Exception):
    """The policy fixture or its training corpus differs from the pins."""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def synth_argv(out_dir: Path, count: int) -> list[str]:
    """``phaseseek synth`` arguments for ``count`` videos with the fixture's seed."""
    return ["synth", "--out-dir", str(out_dir), "--count", str(count),
            "--phases", str(PHASES), "--seed", str(SEED)]


def corpus_names() -> list[str]:
    return [f"video_{i:03d}{ext}" for i in range(TRAIN_VIDEOS) for ext in (".trnf", ".csv")]


def read_pins(policy_dir: Path = POLICY_DIR) -> dict[str, str]:
    pins = {}
    for line in (policy_dir / PINS_NAME).read_text(encoding="utf-8").splitlines():
        digest, name = line.split(maxsplit=1)
        pins[name] = digest
    return pins


def verify_policy(policy_dir: Path = POLICY_DIR) -> dict[str, str]:
    """Check every pinned policy file; return the pins."""
    pins = read_pins(policy_dir)
    for name, digest in pins.items():
        if name.startswith(CORPUS_PREFIX):
            continue
        path = policy_dir / name
        if not path.is_file() or sha256_file(path) != digest:
            raise FixtureMismatch(f"policy file {name} does not match its sha256 pin; "
                                  "regenerate with perfbench/policy_fixture.py")
    return pins


def verify_corpus(corpus_dir: Path, pins: dict[str, str]) -> None:
    """Check that ``corpus_dir`` holds the videos the policy was trained on."""
    for name in corpus_names():
        if sha256_file(corpus_dir / name) != pins[CORPUS_PREFIX + name]:
            raise FixtureMismatch(f"training video {name} differs from the policy's corpus")


def regenerate(policy_dir: Path, work_dir: Path) -> None:
    """Synthesize the corpus, train every phase and write the pins."""
    from phaseseek.cli import main

    corpus = work_dir / "corpus"
    if main(synth_argv(corpus, TRAIN_VIDEOS)) != 0:
        raise RuntimeError("phaseseek synth failed")
    policy_dir.mkdir(parents=True, exist_ok=True)
    for phase in range(PHASES):
        rc = main(["train", "--phase", str(phase), "--phases", str(PHASES),
                   "--features-dir", str(corpus), "--labels-dir", str(corpus),
                   "--checkpoints-dir", str(policy_dir), "--seed", str(SEED), *TRAIN_FLAGS])
        if rc != 0:
            raise RuntimeError(f"phaseseek train --phase {phase} exited {rc}")
    lines = [f"{sha256_file(p)}  {p.name}" for p in sorted(policy_dir.iterdir())
             if p.name != PINS_NAME]
    lines += [f"{sha256_file(corpus / n)}  {CORPUS_PREFIX}{n}" for n in corpus_names()]
    (policy_dir / PINS_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="retrain in a temporary directory and compare with the pins")
    args = parser.parse_args(argv)
    pin_blas_threads()
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="policy-fixture-", dir=WORK_ROOT) as tmp:
        tmp = Path(tmp)
        if not args.check:
            if POLICY_DIR.exists():
                shutil.rmtree(POLICY_DIR)
            regenerate(POLICY_DIR, tmp)
            print(f"wrote {POLICY_DIR}")
            return 0
        regenerate(tmp / "policy", tmp)
        fresh, pinned = read_pins(tmp / "policy"), read_pins()
        if fresh != pinned:
            changed = sorted(k for k in fresh.keys() | pinned.keys()
                             if fresh.get(k) != pinned.get(k))
            print(f"fixture differs from the pins: {', '.join(changed)}", file=sys.stderr)
            return 1
        print("fixture matches its pins")
        return 0


if __name__ == "__main__":
    sys.exit(main())
