"""The memo policy: a memo kept across calls is a module-level ``lru_cache`` with a bound.

An unbounded module memo keeps one entry for every argument it is ever asked
for, so a long session's memory grows with its calls.  No builder keeps a
memo (``poch_inf``'s bounded one has no caller in the program); the oracle's
pair tables and listing blocks are bounded ``lru_cache``s.  A memo made inside one call
(``_durfee_sums``' block tables, grown per lower bound ``lo``, and the CLI's cell caches)
dies with the call and is allowed.
"""

import ast
import itertools
from pathlib import Path

from qpairs import oracle

SRC = Path(__file__).resolve().parent.parent / "src" / "qpairs"

# the recursion memos, unbounded on purpose: each memoizes its own recursion, whose
# subproblems all lie below the largest argument asked for, so the memo's size is set by
# that argument and not by the number of calls; a bound would evict subproblems the
# recursion still needs and make it exponential again
RECURSION_MEMOS = {"oracle.partitions", "oracle._box_counts", "oracle._marked_rows"}


def _name(expr) -> str:
    return expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr", "")


def _unbounded(expr) -> bool:
    """Whether a decorator or an expression makes a memo with no bound:
    ``functools.cache``, or ``lru_cache`` with ``maxsize=None``."""
    if isinstance(expr, ast.Call):
        if _name(expr.func) == "lru_cache":
            bound = expr.args[0] if expr.args else next(
                (k.value for k in expr.keywords if k.arg == "maxsize"), None)
            return isinstance(bound, ast.Constant) and bound.value is None
        return _unbounded(expr.func) or any(_unbounded(a) for a in expr.args)
    return _name(expr) == "cache"


def _unbounded_memos(module: str, source: str):
    """The names of the module-level memos with no bound, as ``module.name``; function
    bodies, where a memo lives for one call, are not read."""
    def defs(body):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from defs(node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_unbounded(d) for d in node.decorator_list):
                    yield node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value and _unbounded(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                yield from (_name(t) for t in targets)

    return {f"{module}.{name}" for name in defs(ast.parse(source).body)}


def test_the_scan_finds_each_kind_of_unbounded_memo():
    source = """
import functools
from functools import cache, lru_cache

@lru_cache(maxsize=None)
def a(n): ...

@functools.lru_cache(None)
def b(n): ...

@cache
def c(n): ...

d = functools.lru_cache(maxsize=None)(len)
e = functools.cache(len)

class K:
    @functools.cache
    def f(self): ...

@lru_cache(maxsize=8)
def bounded(n): ...

@lru_cache
def default_bound(n): ...

def one_call():
    @lru_cache(maxsize=None)
    def inner(n): ...
    memo = functools.cache(len)
"""
    assert _unbounded_memos("m", source) == {f"m.{x}" for x in "abcdef"}


def test_every_module_memo_is_bounded_but_the_recursion_memos():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _unbounded_memos(path.stem, path.read_text())
    assert found == RECURSION_MEMOS


def test_the_pair_tables_keep_only_their_last_orders():
    for table in (oracle.rank_table, oracle.spt_table):
        bound = table.cache_info().maxsize
        for n in range(bound + 2):
            table(n)
        assert table.cache_info().currsize == bound
    # one run of the whole suite reads the rank table at orders 10, 12 and 14
    assert oracle.rank_table.cache_info().maxsize >= 3


def test_the_block_memo_is_shared_across_filtered_listings_and_bounded():
    memo = oracle._bounded_parts
    for ranks in itertools.product((-1, 0, 1), repeat=3):
        oracle.enumerate_durfee(3, 16, 1, 2, ranks)
    info = memo.cache_info()
    assert 0 < info.currsize <= info.maxsize
    oracle.enumerate_durfee(3, 16, 1, 2, ranks)
    assert memo.cache_info().misses == info.misses  # the repeat walks remembered blocks
