#!/usr/bin/env python3
"""Merge the artifact digests of benchmark records into baseline_digests.json.

    python3 perfbench/record_baseline.py perfbench/out/*-trace0-*.json

Only records whose checks passed are taken; a later record for the same
workload and seed replaces an earlier one.
"""
import json
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "baseline_digests.json"


def main(paths: list[str]) -> int:
    table = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    taken = 0
    for path in paths:
        rec = json.loads(Path(path).read_text())
        if not rec.get("correct"):
            print(f"skipping {path}: its checks failed", file=sys.stderr)
            continue
        seeds = table.setdefault(rec["workload"], {})
        seeds[str(rec["stamp"]["seed"])] = rec["artifacts"]["digests"]
        taken += 1
    BASELINE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{taken} records merged into {BASELINE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
