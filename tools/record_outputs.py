"""Regenerate the checked-in record of the smoke-size output tree.

    python3 tools/record_outputs.py

Runs ``tools/bench_outputs.py <checkout> <tmp> --size smoke`` on this
checkout and replaces ``tests/outputs_record/`` with the record of that
tree: every ``report.json``, byte for byte, at its path in the tree, and
``SHA256SUMS``, the sha256 of every other file in ``sha256sum`` format.
``tests/test_benchmark_configs.py`` builds the same record from a fresh
smoke tree and compares it with the checked-in one.
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tests" / "outputs_record"


def write_record(tree, record):
    """Write the record of the output tree `tree` into the new directory `record`."""
    record.mkdir(parents=True)
    sums = []
    for path in sorted(p for p in tree.rglob("*") if p.is_file()):
        rel = path.relative_to(tree)
        if rel.name == "report.json":
            (record / rel).parent.mkdir(exist_ok=True)
            shutil.copyfile(path, record / rel)
        else:
            sums.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {rel.as_posix()}\n")
    (record / "SHA256SUMS").write_text("".join(sums))


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run([sys.executable, str(ROOT / "tools" / "bench_outputs.py"), str(ROOT),
                        str(tree), "--size", "smoke"], check=True)
        shutil.rmtree(RECORD, ignore_errors=True)
        write_record(tree, RECORD)
    print(f"wrote {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
