"""Print the line count of each ``src/shiftset/*.py`` module of a checkout
and their total, as ``wc -l`` counts them; with ``--against``, also each
module's change from another checkout::

    python tools/src_lines.py --src .
    python tools/src_lines.py --src . --against /path/to/parent

A module that only one of the two checkouts holds counts 0 lines in the
other.  Only the standard library is used here.
"""

from __future__ import annotations

import argparse
from pathlib import Path


def line_counts(root: Path) -> dict[str, int]:
    """Each module's newline count, by file name."""
    package = root / "src" / "shiftset"
    if not package.is_dir():
        raise SystemExit(f"{package} is not a directory")
    return {path.name: path.read_bytes().count(b"\n")
            for path in sorted(package.glob("*.py"))}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="checkout whose modules are counted")
    parser.add_argument("--against", type=Path,
                        help="checkout to report each module's change from")
    args = parser.parse_args(argv)

    counts = line_counts(args.src)
    base = line_counts(args.against) if args.against else None
    names = sorted(counts.keys() | (base or {}).keys())
    rows = [(name, counts.get(name, 0), base.get(name, 0) if base else None)
            for name in names]
    rows.append(("total", sum(counts.values()), sum(base.values()) if base else None))
    width = max(len(name) for name, _, _ in rows)
    for name, lines, before in rows:
        change = "" if before is None else f" {lines - before:+6d}"
        print(f"{name:<{width}} {lines:6d}{change}")


if __name__ == "__main__":
    main()
