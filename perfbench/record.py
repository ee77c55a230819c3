#!/usr/bin/env python3
"""Write expected.json: the digest, size and item count of every command.

    PYTHONPATH=src python3 perfbench/record.py

Run once, at the commit that defines the benchmark; the benchmark then holds
every later commit to these outputs. Re-recording to make a failing run pass
defeats the correctness gate.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from qpairs import cli

from workloads import SIZES, WORKLOADS, invocations


def items(workload: str, text: str) -> int:
    """Work units in one command's output: checks, symbol rows or terms."""
    if workload == "verify-registry":
        return json.loads(text)["summary"]["total"]
    if workload == "durfee-ranked":
        return len(text.splitlines()) - 1  # CSV header
    return sum(len(terms) for terms in json.loads(text)["coeffs"].values())


def main() -> None:
    out = {}
    for size in SIZES:
        for workload in WORKLOADS:
            rows = out.setdefault(size, {}).setdefault(workload, {})
            for key, argv in invocations(workload, size, 0):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                if code != 0:
                    raise SystemExit(f"{key}: exit {code}")
                data = buf.getvalue().encode()
                rows[key] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
                             "items": items(workload, buf.getvalue())}
                print(size, key, rows[key], flush=True)
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
