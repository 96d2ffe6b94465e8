#!/usr/bin/env python3
"""Count non-test Rust lines, the measure behind ROADMAP item 7.

Rule: every `.rs` file under `crates/*/src` and the root `src/`, counted
up to (not including) its first `#[cfg(test)]` line. Blank and comment
lines count too. Prints one line per crate and the total.

Usage: python3 scripts/count_loc.py [repo-root]
"""

import pathlib
import sys


def non_test_lines(path):
    n = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip().startswith("#[cfg(test)]"):
                break
            n += 1
    return n


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    counts = {}
    for src in sorted(root.glob("crates/*/src")) + [root / "src"]:
        name = src.parent.name if src.parent != root else "(root)"
        counts[name] = sum(non_test_lines(p) for p in sorted(src.rglob("*.rs")))
    width = max(len(k) for k in counts)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>6}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6}")


if __name__ == "__main__":
    main()
