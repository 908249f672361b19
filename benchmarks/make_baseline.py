"""Collect run records from benchmarks/out/ into benchmarks/baseline.json:
the seed-1 records of every workload in both modes, and the fingerprint of
every traced record found.  See README.md for the runs to make first.

    python3 benchmarks/make_baseline.py
"""

import json
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def main():
    baseline = {"records": {}, "fingerprints": {}}
    for path in sorted(OUT.glob("*-seed*-trace[01].json")):
        record = json.loads(path.read_text())
        name, seed, trace = re.fullmatch(r"(\w+)-seed(\d+)-trace([01])", path.stem).groups()
        if trace == "1":
            baseline["fingerprints"].setdefault(name, {})[seed] = record["fingerprint"]
        if seed == "1":
            baseline["records"].setdefault(name, {})["trace" + trace] = record
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
