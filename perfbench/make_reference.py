"""Regenerate `reference.json`: for every instance a workload may run,
the answer the benchmark checks against and the time the check takes
alone, from which `workloads.py` chooses the corpora.

    python3 perfbench/make_reference.py

Run from the root of a checkout, on an otherwise idle machine; it takes
about ten minutes.  Every pool instance runs alone in a fresh interpreter,
so its recorded time includes no work shared with other instances.  The
answers are what the code computes at the commit it runs on; regenerate
them only when the answers are meant to change.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload, index):
    inst = workloads.POOLS[workload]()[index]
    t0 = time.perf_counter()
    verdict, answer = inst.run()
    seconds = time.perf_counter() - t0
    print(json.dumps({"id": inst.id, "verdict": verdict,
                      "answer": answer, "seconds": seconds}))


def measure(workload):
    rows = []
    for index in range(len(workloads.POOLS[workload]())):
        proc = subprocess.run(
            [sys.executable, __file__, "--one", workload, str(index)],
            capture_output=True, text=True, check=True, cwd=ROOT)
        rows.append(json.loads(proc.stdout))
    return rows


def measured(rows):
    return {"answers": {r["id"]: {"verdict": r["verdict"], "answer": r["answer"]}
                        for r in rows},
            "seconds": {r["id"]: r["seconds"] for r in rows}}


def arith_reference():
    from edgeideals import generators, monomials

    answers = {}
    for name, s in workloads.ARITH_POWERS:
        P = monomials.power(monomials.edge_ideal(generators.named_graph(name)), s)
        answers[f"power {name}^{s}"] = {"verdict": "pass",
                                        "answer": {"gens": len(P.gens)}}
    return {"answers": answers}


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    if argv[:1] == ["--one"]:
        run_one(argv[1], int(argv[2]))
        return
    reference = {
        "banerjee_small": measured(measure("banerjee_small")),
        "vwc_main_theorem": measured(measure("vwc_main_theorem")),
        "ideal_arith": arith_reference(),
    }
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
