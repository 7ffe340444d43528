"""Two sets of benchmark runs of the same code, compared against the bounds.

    python3 bench/steady.py --runs 10

Run from the repository root. Each set runs ``bench/run.py`` once per seed
and workload, one run after the other. Both sets use seeds 1 to runs, the
second in reverse order, so a drift in the machine's speed during the sets
does not line up with the seeds. For every end-to-end metric, ``setup_s``
included, it prints each set's median and quartiles, the spread
(q3 - q1) / median as a share of the metric's bound, and how much worse the
second median is than the first, also as a share of the bound. A share of 1
or more breaks the bound. It also checks that failed / attempted is the same
in every run of a workload. Raw results go to
``bench/out/steady-<time>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    results = {w["name"]: [[] for _ in range(SETS)] for w in declared["workloads"]}
    seeds = list(range(1, args.runs + 1))
    for k in range(SETS):
        for workload, sets in results.items():
            for seed in seeds if k % 2 == 0 else reversed(seeds):
                result = run_once(workload, seed, declared["run_seconds"])
                sets[k].append(result)
                print(f"set {k + 1} {workload} seed {seed}: "
                      + " ".join(f"{n}={m['value']:.4f}" for n, m in result["metrics"].items())
                      + f" failed={result['failed']}/{result['attempted']}", flush=True)

    ok = True
    for workload, sets in results.items():
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        same = len(shares) == 1
        ok &= same and all(r["correct"] for runs in sets for r in runs)
        print(f"\n{workload}: failed/attempted {sorted(shares)} ({'same' if same else 'DIFFERS'})")
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            cells = []
            for q1, median, q3 in rows:
                spread = (q3 - q1) / median
                cells.append(f"median {median:.4f} [{q1:.4f}, {q3:.4f}] spread/bound {spread / bound:.2f}")
                ok &= spread < bound
            (_, first, _), (_, second, _) = rows
            worse = (second - first) / first if metric["better"] == "lower" else (first - second) / first
            ok &= worse <= bound
            print(f"  {name:12s} " + " | ".join(cells) + f" | worse/bound {worse / bound:+.2f}")

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(results, indent=1))
    print(f"\n{'within' if ok else 'OUTSIDE'} bounds; raw results -> {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
