"""Record expected.json, the verdict table every benchmark call is checked
against.

Run from the root of a checkout of the commit whose verdicts are the
reference:

    python3 bench/record_expected.py --seeds 1,2,3,4,5

It builds every workload for each seed, runs one pass, and keeps the
verdict booleans of each call. A call whose verdicts differ between seeds
is an error: the table holds one row per call for every seed.
"""

import argparse
import json
import shutil
import sys

import run  # pins the BLAS threads before numpy loads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    sys.path.insert(0, str(run.ROOT / "src"))
    import qbayes.cli
    from workloads import WORKLOADS, build

    table = {}
    for workload in WORKLOADS:
        rows = None
        for seed in seeds:
            work = run.WORK / f"record-{workload}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            calls = build(workload, seed, run.ROOT, work)
            runner = run.Runner(qbayes.cli, None)
            for call in calls:
                runner.call(call)
            shutil.rmtree(work, ignore_errors=True)
            if runner.failures:
                print("\n".join(runner.failures), file=sys.stderr)
                return 1
            if rows is not None and rows != runner.verdicts:
                diff = sorted(k for k in rows if rows[k] != runner.verdicts.get(k))
                print(f"{workload}: verdicts of seed {seed} differ at {diff}", file=sys.stderr)
                return 1
            rows = runner.verdicts
        table[workload] = rows
        print(f"{workload}: {len(rows)} calls, same verdicts for seeds {args.seeds}")
    (run.BENCH / "expected.json").write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
