"""What the memos of edgeideals hold after one benchmark pass.

    python3 tools/memo_report.py --workload NAME --seed N

Builds the corpus of one `perfbench` workload with
`perfbench/workloads.build_corpus`, runs every instance once in this
process, and prints the `cache_info()` of every `functools.lru_cache`
memo in the edgeideals modules.  Then it clears the memos one at a time,
in the order printed, and prints the memory that tracemalloc sees freed
by each and by all of them: what the memos alone keep alive.  Python
allocations are traced from before the corpus is built, so the pass runs
several times slower than the benchmark's; the counts are those of an
untraced pass.  The benchmark's workers run with PYTHONHASHSEED=0; set
it alike to compare with them.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import pkgutil
import sys
import tracemalloc
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import edgeideals  # noqa: E402
import workloads  # noqa: E402


def memos():
    """(qualified name, memo) for every lru_cache memo defined in an
    edgeideals module, sorted by name; a memo another module imports is
    listed once, under the module that defines it."""
    found = {}
    for info in pkgutil.iter_modules(edgeideals.__path__):
        module = importlib.import_module(f"edgeideals.{info.name}")
        for obj in vars(module).values():
            if (callable(getattr(obj, "cache_info", None))
                    and callable(getattr(obj, "cache_clear", None))
                    and getattr(obj, "__module__", None) == module.__name__):
                found[f"{module.__name__}.{obj.__qualname__}"] = obj
    return sorted(found.items())


def run_pass(corpus):
    """Run every instance once: a Counter of verdicts, with "error" for
    an instance that raised (its traceback goes to stderr)."""
    verdicts = Counter()
    for inst in corpus:
        try:
            verdict, _ = inst.run()
        except Exception:
            verdict = "error"
            print(f"error in {inst.id}:\n{traceback.format_exc(limit=3)}",
                  file=sys.stderr)
        verdicts[verdict] += 1
    return verdicts


def clear_memos(named):
    """Clear each (name, memo) in turn: {name: bytes tracemalloc saw
    freed}.  What two memos share is booked to the later one."""
    freed = {}
    gc.collect()
    held = tracemalloc.get_traced_memory()[0]
    for name, memo in named:
        memo.cache_clear()
        gc.collect()
        now = tracemalloc.get_traced_memory()[0]
        freed[name], held = held - now, now
    return freed


def _mb(nbytes):
    return f"{nbytes / 2**20:.2f}"


def _kb(nbytes):
    return f"{round(nbytes / 1024):d}"


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    named = memos()
    tracemalloc.start()
    try:
        corpus = workloads.build_corpus(
            args.workload, args.seed, workloads.load_reference())
        verdicts = run_pass(corpus)
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0]
        infos = [(name, memo.cache_info()) for name, memo in named]
        freed = clear_memos(named)
    finally:
        tracemalloc.stop()

    counts = ", ".join(f"{n} {v}" for v, n in sorted(verdicts.items()))
    print(f"{args.workload} seed {args.seed}: {len(corpus)} instances "
          f"({counts}); {_mb(traced)} MB traced after the pass")
    width = max(len(name) for name, _ in named)
    print(f"{'memo':<{width}}  {'hits':>7}  {'misses':>7}  {'maxsize':>7}  "
          f"{'currsize':>8}  {'freed_kB':>8}")
    for name, info in infos:
        print(f"{name:<{width}}  {info.hits:>7}  {info.misses:>7}  "
              f"{info.maxsize!s:>7}  {info.currsize:>8}  "
              f"{_kb(freed[name]):>8}")
    print(f"clearing every memo freed {_mb(sum(freed.values()))} MB "
          f"of {_mb(traced)} MB")
    return 1 if verdicts["error"] or verdicts["fail"] else 0


if __name__ == "__main__":
    sys.exit(main())
