"""Byte-compare the figure files and the ``ngtmsv eval`` text of two source trees.

Usage, from anywhere:

    python3 tools/compare_figures.py OLD_TREE NEW_TREE

Each tree is a checkout holding ``src/ngtmsv``. Every bundled figure is
written as CSV and as JSON (``ngtmsv figure NAME ... --format FMT``) by a
fresh interpreter per tree and format, with that tree's ``src`` first on
its path, into a temporary directory; ``ngtmsv eval`` prints its report
for each of ``EVAL_PRESETS`` at the fixed ``EVAL_ARGS``, in a fresh
interpreter per tree and preset. The script then lists every file whose
bytes differ or that only one tree wrote and every preset whose eval text
differs, prints how many files and eval texts are identical, and exits 1
if any differ (2 on a usage error).

Writing the figures takes about 9 s per tree and format on a 2-vCPU host.
The script is not collected by the test suite.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FORMATS = ("csv", "json")
EVAL_PRESETS = ("asym-ps-1", "asym-pa-1", "sym-ps-1", "sym-pc-1")
EVAL_ARGS = ("--lambda=0.45", "--tau=0.35", "--phi=0.3", "--point=0.1,0.2,-0.3,0.4")

# Runs in the child: the CLI with the arguments after the tree's src, every
# figure's name inserted after "figure", once the package is checked to be
# imported from the tree under comparison.
_RUN = """
import sys
from pathlib import Path
import ngtmsv
from ngtmsv.cli import main
from ngtmsv.sweep import FIGURES
src, *argv = sys.argv[1:]
if Path(src).resolve() not in Path(ngtmsv.__file__).resolve().parents:
    sys.exit(f"ngtmsv was imported from {ngtmsv.__file__}, not from {src}")
if argv[0] == "figure":
    argv[1:1] = sorted(FIGURES)
sys.exit(main(argv))
"""


def run_cli(tree: Path, argv: list, cwd: Path) -> str:
    """What ``ngtmsv ARGV`` of ``tree`` prints, run in ``cwd``."""
    src = tree / "src"
    done = subprocess.run([sys.executable, "-c", _RUN, str(src), *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          stdout=subprocess.PIPE, text=True)
    if done.returncode:
        raise SystemExit(f"{tree}: ngtmsv {argv[0]} exited {done.returncode}")
    return done.stdout


def write_figures(tree: Path, outdir: Path) -> None:
    """Write every figure of ``tree`` in each format under ``outdir``."""
    for fmt in FORMATS:
        run_cli(tree, ["figure", "--outdir", str(outdir), "--format", fmt], outdir)


def eval_texts(tree: Path, cwd: Path) -> dict:
    """The ``ngtmsv eval`` report of ``tree`` per preset of ``EVAL_PRESETS``."""
    return {preset: run_cli(tree, ["eval", f"--preset={preset}", *EVAL_ARGS], cwd)
            for preset in EVAL_PRESETS}


def compare(old: Path, new: Path) -> tuple:
    """The names of the files whose bytes are equal in both directories,
    and of those that differ or that one directory lacks."""
    names = sorted({p.name for p in old.iterdir()} | {p.name for p in new.iterdir()})
    same, differ = [], []
    for name in names:
        a, b = old / name, new / name
        equal = a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()
        (same if equal else differ).append(name)
    return same, differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path)
    args = parser.parse_args(argv)
    trees = (args.old_tree.resolve(), args.new_tree.resolve())
    for tree in trees:
        if not (tree / "src" / "ngtmsv").is_dir():
            print(f"error: {tree} holds no src/ngtmsv", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="figures-") as tmp:
        outdirs = (Path(tmp) / "old", Path(tmp) / "new")
        for tree, outdir in zip(trees, outdirs):
            outdir.mkdir()
            write_figures(tree, outdir)
        same, differ = compare(*outdirs)
        old_evals, new_evals = (eval_texts(tree, Path(tmp)) for tree in trees)
    eval_differ = [p for p in EVAL_PRESETS if old_evals[p] != new_evals[p]]
    for name in differ:
        print(f"differs: {name}")
    for preset in eval_differ:
        print(f"eval differs: {preset}")
    print(f"{len(same)} identical files, {len(differ)} differing")
    print(f"{len(EVAL_PRESETS) - len(eval_differ)} identical eval texts, "
          f"{len(eval_differ)} differing")
    return 1 if differ or eval_differ else 0


if __name__ == "__main__":
    sys.exit(main())
