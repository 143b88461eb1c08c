#!/usr/bin/env python3
"""Compare two ``bench/out/results.json`` files, A (parent) then B.

    python3 bench/check.py A.json B.json

One row per (workload, end-to-end metric) with both medians and, for
wall metrics, both inter-quartile ranges.  Bounds come from
BENCHMARK.json.  Verdicts:

* wall metric — ``unresolved`` (never ``unchanged``) when either side's
  inter-quartile spread exceeds the bound, because then the runs cannot
  tell; else ``REGRESSION`` when B is worse than A by more than the
  bound; otherwise ``improved`` / ``unchanged``.
* simulated metric — both files must come from one seed, so the values
  either print identically (``identical``) or the model changed:
  ``changed`` when B is no worse than the bound allows, else
  ``REGRESSION``.

Exit status is non-zero on any regression, a larger ``failed_share``, a
non-zero ``wrong_answers`` or a tripped correctness gate on either side.
"""

from __future__ import annotations

import json
import pathlib
import sys

from run import SPEC


def worsening(metric, a: float, b: float) -> float:
    """How much worse B is than A, as a share of A (negative: better)."""
    change = (b - a) / a
    return change if metric["better"] == "lower" else -change


def compare(a_doc, b_doc):
    """Yields (row cells, failed?) for every shared workload × metric."""
    for name in (w["name"] for w in SPEC["workloads"]):
        a = a_doc["workloads"].get(name, {}).get("end_to_end")
        b = b_doc["workloads"].get(name, {}).get("end_to_end")
        if a is None or b is None:
            yield [name, "-", "-", "-", "-", "MISSING"], True
            continue
        for metric in SPEC["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            va, vb = a["metrics"][key], b["metrics"][key]
            worse = worsening(metric, va, vb)
            if key in a["wall"]:
                wa, wb = a["wall"][key], b["wall"][key]
                cells = [f"{va:.6g} [{wa['q1']:.4g},{wa['q3']:.4g}]",
                         f"{vb:.6g} [{wb['q1']:.4g},{wb['q3']:.4g}]"]
                noisy = any((w["q3"] - w["q1"]) / w["median"] > bound
                            for w in (wa, wb))
                if noisy:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "REGRESSION"
                else:
                    verdict = "improved" if worse < -bound else "unchanged"
            else:
                cells = [f"{va:.6g}", f"{vb:.6g}"]
                if cells[0] == cells[1]:
                    verdict = "identical"
                else:
                    verdict = "REGRESSION" if worse > bound else "changed"
            yield ([name, key, *cells, f"{-worse:+.2%}", verdict],
                   verdict == "REGRESSION")
        for side, doc in (("A", a), ("B", b)):
            if doc["wrong_answers"] or doc["problems"]:
                yield [name, f"gate ({side})", "-", "-", "-",
                       f"FAILED: wrong_answers={doc['wrong_answers']} "
                       f"{doc['problems']}"], True
        grew = b["failed_share"] > a["failed_share"]
        yield [name, "failed_share", f"{a['failed_share']:.6g}",
               f"{b['failed_share']:.6g}", "-",
               "REGRESSION" if grew else "ok"], grew


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(pathlib.Path(p).read_text(encoding="utf-8"))
                    for p in argv)
    if a_doc["seed"] != b_doc["seed"] or a_doc["scale"] != b_doc["scale"]:
        print(f"check: seeds/scales differ ({a_doc['seed']}/{a_doc['scale']} "
              f"vs {b_doc['seed']}/{b_doc['scale']}); simulated metrics are "
              "only comparable for one seed and scale", file=sys.stderr)
        return 2
    rows, failures = [], 0
    for cells, failed in compare(a_doc, b_doc):
        rows.append(cells)
        failures += failed
    header = ["workload", "metric", "A median [q1,q3]", "B median [q1,q3]",
              "B vs A (+ is better)", "verdict"]
    widths = [max(len(str(r[i])) for r in [header, *rows])
              for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    verdicts = [r[-1] for r in rows]
    print(f"# {failures} failing rows, {verdicts.count('unresolved')} "
          f"unresolved, {verdicts.count('changed')} simulated metrics changed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
