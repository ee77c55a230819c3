"""The benchmark's workloads: which `qpairs` command lines one pass runs.

Each command runs in a fresh child process, as it would from a shell, so
every command starts with empty module caches and pays for its own imports
and tables; nothing is shared between the commands of a pass.

Two sizes exist. ``full`` is what the benchmark measures; ``tiny`` is the
same code path at toy sizes, for the benchmark's self-test. The reasons for
each workload and for each lowering are in NOTES.md.
"""

from __future__ import annotations

import random
from typing import List, Tuple

WORKLOADS = ("verify-registry", "durfee-ranked", "coeffs-deep")
SIZES = ("full", "tiny")

CHECKS = tuple(f"C{i:02d}" for i in range(1, 35))
TINY_CHECKS = ("C01", "C04", "C12", "C34")
TINY_CHECK_ORDER = 4

DURFEE_FILTER = "r=1,s=2,ranks=-1,-1,-1"
# The ROADMAP's listing is n=43 (170 s, 4.3 GB through the CLI); n=26 keeps
# the same filtered code path at about 2.3 s a pass, so a run holds ~12 passes.
DURFEE_N = {"full": 26, "tiny": 12}

# (builder id, order named in the workload's definition); every order is
# halved uniformly for `full` so that one pass takes about 3.5 s.
COEFFS = (
    ("n2v:v=1", 30),
    ("rank", 24),
    ("durfee:k=2", 12),
    ("rank:e=q^-1:base=2", 24),
    ("spt-direct", 20),
)
TINY_COEFFS_ORDER = 6

Invocation = Tuple[str, List[str]]  # (key in expected.json, argv for cli.main)


def invocations(workload: str, size: str, seed: int) -> List[Invocation]:
    """The command lines of one pass. The seed permutes their order; seed 0
    keeps the listed order, and the Durfee workload has one command only."""
    if workload == "verify-registry":
        if size == "full":
            items = [(c, ["verify", "--filter", c, "--format", "json"]) for c in CHECKS]
        else:
            items = [(c, ["verify", "--filter", c, "--order", str(TINY_CHECK_ORDER),
                          "--format", "json"]) for c in TINY_CHECKS]
    elif workload == "durfee-ranked":
        n = DURFEE_N[size]
        items = [(f"durfee:k=3:n={n}", ["enumerate", "durfee", "--k", "3", "--n", str(n),
                                        "--filter", DURFEE_FILTER, "--format", "csv"])]
    elif workload == "coeffs-deep":
        items = []
        for spec, order in COEFFS:
            o = order // 2 if size == "full" else TINY_COEFFS_ORDER
            items.append((f"{spec}@{o}", ["coeffs", spec, "--order", str(o), "--format", "json"]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if seed:
        random.Random(seed).shuffle(items)
    return items
