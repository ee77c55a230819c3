"""One fresh process of the benchmark: import qpairs, then run one command.

Started by run.py as ``python3 child.py SPEC``, where SPEC is a JSON object
with ``fd`` (the write end of the report pipe), ``argv`` (one ``qpairs``
command line, or null to stop after the import) and ``trace``. The child
writes the command's output to stdout, as the CLI would, and one JSON report
to the pipe: monotonic timestamps, the exit code, the output's digest,
byte count and time of first byte, and the speed probes (speed.py) run just
before and just after the command. A traced child adds its layer aggregates
and the status of the negative control, run after the command.
"""

import hashlib
import io
import json
import os
import sys
import time

spec = json.loads(sys.argv[1])

from qpairs import cli  # noqa: E402  (the import is what set-up time measures)

ready = time.monotonic()

import speed  # noqa: E402


class Tee(io.TextIOBase):
    """Stands in for sys.stdout during the command: passes every write on
    to the real stdout and records its digest, size and first-write time."""

    def __init__(self, raw):
        self.raw = raw
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.first = None

    def write(self, text):
        data = text.encode()
        if self.first is None and data:
            self.first = time.monotonic()
        self.raw.write(data)
        self.sha.update(data)
        self.bytes += len(data)
        return len(text)

    def flush(self):
        self.raw.flush()


def run(argv, trace):
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    stdout = sys.stdout
    tee = Tee(stdout.buffer)
    sys.stdout = tee
    before = speed.probe()
    start = time.monotonic()
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = stdout
        tee.flush()
    end = time.monotonic()
    out = {"code": code, "start": start, "first": tee.first, "end": end,
           "sha256": tee.sha.hexdigest(), "bytes": tee.bytes,
           "probes": [before, speed.probe()]}
    if tracer is not None:
        out["layers"] = tracer.raw()
        from qpairs import harness

        out["negative_control"] = harness.negative_control().status
    return out


def main():
    report = {"ready": ready, "cli_file": os.path.abspath(cli.__file__)}
    if spec["argv"] is not None:
        report["command"] = run(spec["argv"], spec["trace"])
    with os.fdopen(spec["fd"], "w") as pipe:
        json.dump(report, pipe)


main()
