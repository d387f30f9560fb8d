#!/usr/bin/env python3
"""Count the code lines of src/, per module and in total.

Usage:
    tools/src_lines.py [--base REV]

A code line is a line of a *.cpp or *.hpp file that is neither blank nor
only a `//` comment. A module is a directory directly under src/; files
directly in src/ count under "(top)". The working tree is counted as it is
on disk. With --base, the same count is made of git revision REV and each
module's delta is printed next to it.

This is a report, not a gate: the exit status is 0 unless REV cannot be
read.
"""

import argparse
import io
import subprocess
import sys
import tarfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUFFIXES = (".cpp", ".hpp")


def code_lines(text):
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.strip().startswith("//"))


def module_of(path):
    """`path` is relative to the repo root and starts with src/."""
    parts = Path(path).parts
    return parts[1] if len(parts) > 2 else "(top)"


def count_tree():
    counts = Counter()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in SUFFIXES and path.is_file():
            rel = path.relative_to(ROOT)
            counts[module_of(rel)] += code_lines(
                path.read_text(encoding="utf-8", errors="replace"))
    return counts


def count_rev(rev):
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=False)
    if archive.returncode != 0:
        sys.exit(f"src_lines: cannot read src/ at {rev}: "
                 f"{archive.stderr.decode().strip()}")
    counts = Counter()
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        for member in tar:
            if member.isfile() and member.name.endswith(SUFFIXES):
                text = tar.extractfile(member).read().decode("utf-8", "replace")
                counts[module_of(member.name)] += code_lines(text)
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV",
                        help="git revision to compare the working tree with")
    args = parser.parse_args()

    now = count_tree()
    if args.base is None:
        print(f"{'module':<10} {'lines':>7}")
        for module in sorted(now):
            print(f"{module:<10} {now[module]:>7}")
        print(f"{'total':<10} {sum(now.values()):>7}")
        return 0

    base = count_rev(args.base)
    print(f"{'module':<10} {'base':>7} {'now':>7} {'delta':>7}")
    for module in sorted(set(now) | set(base)):
        print(f"{module:<10} {base[module]:>7} {now[module]:>7} "
              f"{now[module] - base[module]:>+7}")
    total_base, total_now = sum(base.values()), sum(now.values())
    print(f"{'total':<10} {total_base:>7} {total_now:>7} "
          f"{total_now - total_base:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
