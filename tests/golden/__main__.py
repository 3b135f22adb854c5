"""``python -m tests.golden [--bless]`` — rebuild every golden case.

Without ``--bless`` it reports the entries whose digest moved and exits
1 if any did.  ``--bless`` rewrites ``digests.json`` with the new
digests and records the current revision in ``generated_at``.  Run it
from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.obs.manifest import git_revision
from tests.golden import CASES, DIGESTS, build, load


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.golden", description=__doc__)
    parser.add_argument(
        "--bless", action="store_true", help="rewrite digests.json with the new digests"
    )
    args = parser.parse_args(argv)
    doc = load()
    fresh: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            out_dir = Path(tmp) / case
            out_dir.mkdir()
            fresh.update(build(case, out_dir))
    old = doc["digests"]
    moved = sorted(k for k in old.keys() | fresh.keys() if old.get(k) != fresh.get(k))
    for key in moved:
        print(f"moved: {key}  {old.get(key, '-')[:16]} -> {fresh.get(key, '-')[:16]}")
    print(f"{len(moved)} of {len(fresh)} entries moved")
    if args.bless:
        doc["digests"] = fresh
        doc["generated_at"] = git_revision()
        DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {DIGESTS}")
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
