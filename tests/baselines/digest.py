#!/usr/bin/env python3
"""Per-target digests of `repro --json` output.

Usage: python3 tests/baselines/digest.py FILE.json [FILE.json ...]

Prints `<target> <sha256>` for every top-level key of every file. Each
target is hashed in one canonical form (sorted keys, no whitespace,
Python's shortest round-trip float repr), so a digest depends only on the
values `repro` wrote, not on the version of whatever tool reprints them.
"""
import hashlib
import json
import sys

for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    for target, value in doc.items():
        canon = json.dumps(value, sort_keys=True, separators=(",", ":"))
        print(target, hashlib.sha256(canon.encode()).hexdigest())
