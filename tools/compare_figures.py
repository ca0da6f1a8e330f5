"""Byte-compare the figure files that two source trees write.

Usage, from anywhere:

    python3 tools/compare_figures.py OLD_TREE NEW_TREE

Each tree is a checkout holding ``src/ngtmsv``. Every bundled figure is
written as CSV and as JSON (``ngtmsv figure NAME ... --format FMT``) by a
fresh interpreter per tree and format, with that tree's ``src`` first on
its path, into a temporary directory. The script then lists every file
whose bytes differ or that only one tree wrote, prints how many files are
identical, and exits 1 if any file differs (2 on a usage error).

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

# Runs in the child: writes every figure in one format, after checking that
# the package was imported from the tree under comparison.
_WRITE = """
import sys
from pathlib import Path
import ngtmsv
from ngtmsv.cli import main
from ngtmsv.sweep import FIGURES
src, outdir, fmt = sys.argv[1:]
if Path(src).resolve() not in Path(ngtmsv.__file__).resolve().parents:
    sys.exit(f"ngtmsv was imported from {ngtmsv.__file__}, not from {src}")
sys.exit(main(["figure", *sorted(FIGURES), "--outdir", outdir, "--format", fmt]))
"""


def write_figures(tree: Path, outdir: Path) -> None:
    """Write every figure of ``tree`` in each format under ``outdir``."""
    src = tree / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("NGI_THREADS", None)
    for fmt in FORMATS:
        done = subprocess.run([sys.executable, "-c", _WRITE, str(src), str(outdir), fmt],
                              cwd=outdir, env=env, stdout=subprocess.DEVNULL)
        if done.returncode:
            raise SystemExit(f"{tree}: writing the {fmt} figures exited {done.returncode}")


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
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(same)} identical files, {len(differ)} differing")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
