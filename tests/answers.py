"""Same-answers harness: run a fixed matrix of `qbayes` calls in process and
record, for each call, what a change that claims the same answers must not
move. Tier-1 does not collect this file; run it as a script.

    python tests/answers.py --out answers.json
    python tests/answers.py --root OTHER_CHECKOUT --out other.json
    python tests/answers.py --compare other.json answers.json

`--root` runs another checkout's `src`, `tests` and `bench/workloads.py`
(default: the checkout this file sits in). The matrix:

- the 7 fixtures, and the inclusion-ladder and multiblock problem files of
  seeds 1 and 7 as `bench/workloads.py` builds them: 73 files, each run as a
  full `check`, as `check --analyses A` for each of the 7 analyses, and as
  `invert --mode bayes` and `invert --mode disint` (730 calls);
- the noise family (`test_schwarz.noisy_product_instance`, seeds
  5000-5199) and the rotated family (`rotated_product_instance`, seeds
  0-199): each instance is written as a problem file from `hom_to_json`
  and `state_to_json` and checked one analysis at a time (2800 calls);
- the `choi` corpus: the 7 fixtures and the 33 seed-1 ladder and
  multiblock files, each with its parsed channel written back through
  `channel_to_json` twice, plainly and with up to 4 of each Choi block's
  null eigen-directions (those at or below its rank cutoff) planted at 0.9
  x that cutoff, each run as `check --analyses
  bayes-battery,bayes-existence`, as `check --analyses ac` and as `invert
  --mode bayes` (240 calls);
- the re-inversion corpus: for each problem above (the 73 files and the two
  families) that has a Bayesian inverse G, the problem (G, xi), xi the
  pulled-back state, written through `channel_to_json` and `state_to_json`
  with the problem's tolerances and run as `check --analyses
  bayes-battery,bayes-existence,ac`, one call per file and per family seed.

For each call the record holds the exit code, the verdict booleans, and a
SHA-256 of stderr, of stdout with its `timing` object cut out, of each
written file and of the problem file. Beside each digest it keeps the
document's leaves by JSON path: scalars as they are, a matrix (a list of
[re, im] pairs) as a short digest, so that `--compare` can name the paths
that changed and, for each path pattern whose numbers moved, the largest
absolute and relative change of those numbers. Its last line counts the
calls whose exit code, stderr or verdict booleans changed (a call present
on one side only among them) apart from those where only numbers or bytes
moved. Every call runs in one working directory with relative
paths, so that no path of this machine enters a record. BLAS is pinned to
one thread before numpy loads: residuals can move in their last digits
with the thread count, and the header records the numpy version, the BLAS
library and the thread count.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ANALYSES = ("ac", "takesaki", "disintegrate", "condexp", "bayes-battery", "bayes-existence",
            "bridge")
FIXTURES = ("battery_pass_no_inverse", "epr", "multiblock_product", "nonproduct_m4",
            "nonsubalgebra_pure", "product", "rankdef_product")
BENCH_FILES = [(w, s) for s in (1, 7) for w in ("inclusion-ladder", "multiblock")]
FAMILIES = {"noise": ("noisy_product_instance", range(5000, 5200)),
            "rotated": ("rotated_product_instance", range(200))}
WRITTEN = "written.json"
CHOI_ANALYSES = "bayes-battery,bayes-existence"
REINVERT_ANALYSES = "bayes-battery,bayes-existence,ac"
PLANTED_NULLS = 4


def sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def strip_timing(text: str) -> str:
    """A canonical report's text without its top-level `timing` object."""
    lines = text.split("\n")
    if '  "timing": {' not in lines:
        return text
    start = lines.index('  "timing": {')
    end = next(i for i in range(start, len(lines)) if lines[i] in ("  }", "  },"))
    return "\n".join(lines[:start] + lines[end + 1:])


def is_matrix(node) -> bool:
    return bool(node) and all(
        isinstance(p, list) and len(p) == 2 and all(type(v) in (int, float) for v in p)
        for p in node
    )


def leaves(node, path="", out=None) -> dict:
    """{JSON path: scalar, or 'matrix <n> <digest>' for a list of pairs}."""
    out = {} if out is None else out
    if isinstance(node, dict):
        for key, value in node.items():
            leaves(value, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list) and is_matrix(node):
        out[path] = f"matrix {len(node)} {sha(json.dumps(node))[:16]}"
    elif isinstance(node, list):
        for i, value in enumerate(node):
            leaves(value, f"{path}[{i}]", out)
    else:
        out[path] = node
    return out


def flat_bools(node, prefix="") -> dict:
    out = {}
    for key, value in node.items():
        if isinstance(value, bool):
            out[prefix + key] = value
        elif isinstance(value, dict):
            out.update(flat_bools(value, f"{prefix}{key}."))
    return out


def document(text: str) -> dict:
    """The digest and the leaves of a JSON text, timing cut out."""
    entry = {"sha256": sha(strip_timing(text))}
    with contextlib.suppress(ValueError):
        data = json.loads(text)
        if isinstance(data, dict):
            data.pop("timing", None)
        entry["leaves"] = leaves(data)
    return entry


def choi_rewrite(path: str, out: str, planted: bool) -> None:
    """Write the problem at path to out with its channel in `choi` form, the
    parsed channel's `channel_to_json`, and without its `analyses` list, which
    may name hom-only analyses. Planted: each Choi block gets up to
    PLANTED_NULLS of its eigen-directions at or below its rank cutoff, the
    lowest first, at 0.9 x that cutoff."""
    import numpy as np
    from qbayes.jsonio import (canonical_dumps, channel_to_json, problem_from_json,
                               tolerances_from_json)
    from qbayes.linalg import Tolerances

    data = json.loads(Path(path).read_text(encoding="utf-8"))
    tol = Tolerances(**tolerances_from_json(data))
    channel = channel_to_json(problem_from_json(data, tol)["channel"])
    if planted:
        for row in channel["blocks"]:
            for y, flat in enumerate(row):
                d = math.isqrt(len(flat))
                C = flat.reshape(d, d)
                w, V = np.linalg.eigh(C)
                cut = tol.rank_cutoff(float(w.max(initial=0.0)))
                Z = V[:, w <= cut][:, :PLANTED_NULLS]
                row[y] = (C + 0.9 * cut * Z @ Z.conj().T).reshape(-1)
    data["channel"] = channel
    data.pop("analyses", None)
    Path(out).write_text(canonical_dumps(data), encoding="utf-8")


def reinversion(path: str, out: str) -> bool:
    """Write to out the problem (G, xi) of the problem at path: G its
    Bayesian inverse and xi its pulled-back state, in `choi` form through
    `channel_to_json` and `state_to_json`, with the problem's tolerances.
    False, and nothing written, when the problem has no inverse or its
    inversion raises a qbayes error."""
    from qbayes.bayesinv import bayes_inverse
    from qbayes.errors import QBayesError
    from qbayes.jsonio import (canonical_dumps, channel_to_json, problem_from_json,
                               state_to_json, tolerances_from_json)
    from qbayes.linalg import Tolerances

    data = json.loads(Path(path).read_text(encoding="utf-8"))
    tol = Tolerances(**tolerances_from_json(data))
    try:
        problem = problem_from_json(data, tol)
        ok, G, analysis, _ = bayes_inverse(problem["channel"], problem["state"], tol)
    except QBayesError:
        return False
    if not ok:
        return False
    inverted = {"schema": data["schema"], "channel": channel_to_json(G),
                "state": state_to_json(analysis.xi)}
    if "tolerances" in data:
        inverted["tolerances"] = data["tolerances"]
    Path(out).write_text(canonical_dumps(inverted), encoding="utf-8")
    return True


def run_call(cli, call_id: str, argv: list, problem: str) -> dict:
    Path(WRITTEN).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        code = f"raised {type(exc).__name__}"
    record = {"id": call_id, "argv": argv, "exit": code,
              "problem": sha(Path(problem).read_bytes()),
              "stderr": sha(err.getvalue()), "stdout": document(out.getvalue())}
    with contextlib.suppress(ValueError, KeyError, TypeError, AttributeError):
        record["verdicts"] = flat_bools(json.loads(out.getvalue())["analyses"])
    if Path(WRITTEN).is_file():
        record["written"] = document(Path(WRITTEN).read_text(encoding="utf-8"))
    return record


def blas() -> str:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def record(root: Path, out: Path) -> None:
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(root / "bench")]
    import numpy as np
    import qbayes.cli as cli
    import test_schwarz
    from qbayes.jsonio import hom_to_json, matrix_to_json, state_to_json
    from workloads import build

    if Path(cli.__file__).resolve().parent != root / "src" / "qbayes":
        raise SystemExit(f"imported qbayes from {cli.__file__}, not from {root / 'src'}")
    git = ["git", "-C", str(root)]
    commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    edited = subprocess.run(git + ["status", "--porcelain", "src"], capture_output=True, text=True)
    header = {"numpy": np.__version__, "blas": blas(), "blas_threads": BLAS_THREADS,
              "python": platform.python_version(),
              "commit": commit.stdout.strip() or None, "src_edited": bool(edited.stdout.strip())}
    calls = []
    work = Path(tempfile.mkdtemp(prefix="qbayes-answers-"))
    cwd = os.getcwd()
    os.chdir(work)
    try:
        files = []
        Path("fixtures").mkdir()
        for name in FIXTURES:
            shutil.copyfile(root / "fixtures" / f"{name}.json", f"fixtures/{name}.json")
            files.append(f"fixtures/{name}.json")
        for workload, seed in BENCH_FILES:
            with contextlib.redirect_stdout(io.StringIO()):
                built = build(workload, seed, root, work / f"{workload}-seed{seed}")
            files += sorted({str(Path(c["problem"]).relative_to(work)) for c in built})
        for path in files:
            argvs = [["check", path]] + [["check", path, "--analyses", a] for a in ANALYSES]
            argvs += [["invert", path, "--mode", m, "--out", WRITTEN] for m in ("bayes", "disint")]
            for argv in argvs:
                calls.append(run_call(cli, " ".join(argv[:1] + argv[2:]) + f" @ {path}", argv, path))
        choi_sources = [f for f in files if f.startswith("fixtures/") or "-seed1/" in f]
        for kind in ("plain", "planted"):
            Path("choi", kind).mkdir(parents=True)
            for source in choi_sources:
                path = f"choi/{kind}/{source.replace('/', '-')}"
                choi_rewrite(source, path, kind == "planted")
                argvs = [["check", path, "--analyses", CHOI_ANALYSES],
                         ["check", path, "--analyses", "ac"],
                         ["invert", path, "--mode", "bayes", "--out", WRITTEN]]
                for argv in argvs:
                    calls.append(run_call(cli, " ".join(argv[:1] + argv[2:]) + f" @ {path}",
                                          argv, path))
        sources = [(f"files/{source.replace('/', '-')}", source) for source in files]
        for family, (builder, seeds) in FAMILIES.items():
            Path(family).mkdir()
            for seed in seeds:
                h, omega = getattr(test_schwarz, builder)(seed)
                state = state_to_json(omega)
                state["densities"] = [None if r is None else matrix_to_json(r)
                                      for r in state["densities"]]
                problem = {"schema": "qbayes-problem/1", "channel": hom_to_json(h),
                           "state": state}
                path = f"{family}/{seed}.json"
                Path(path).write_text(json.dumps(problem, sort_keys=True), encoding="utf-8")
                sources.append((path, path))
                for a in ANALYSES:
                    argv = ["check", path, "--analyses", a]
                    calls.append(run_call(cli, f"check --analyses {a} @ {path}", argv, path))
        for name, source in sources:
            path = f"reinvert/{name}"
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            if reinversion(source, path):
                argv = ["check", path, "--analyses", REINVERT_ANALYSES]
                calls.append(run_call(cli, f"check --analyses {REINVERT_ANALYSES} @ {path}",
                                      argv, path))
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    out.write_text(json.dumps({"header": header, "calls": calls}, separators=(",", ":")),
                   encoding="utf-8")
    alarms = Counter((group(c["id"]), c["id"].split(" @ ")[0]) for c in calls if c["exit"] == 3)
    print(f"{len(calls)} calls; exit codes {dict(Counter(str(c['exit']) for c in calls))}")
    for (where, analysis), n in sorted(alarms.items()):
        print(f"  exit 3: {where} {analysis} {n}")
    for c in calls:
        if c["exit"] == 3 and group(c["id"]).startswith("reinvert/"):
            print(f"  exit 3: {c['id']}")


def group(call_id: str) -> str:
    """The set a call's problem belongs to: its first directory, and for the
    `choi` and re-inversion corpora its second too (plain or planted; files
    or the family)."""
    parts = call_id.split(" @ ")[1].split("/")
    return "/".join(parts[:2] if parts[0] in ("choi", "reinvert") else parts[:1])


def pattern(path: str) -> str:
    return re.sub(r"\[\d+\]", "[*]", path)


def compare(a_file: Path, b_file: Path) -> int:
    a, b = (json.loads(Path(f).read_text(encoding="utf-8")) for f in (a_file, b_file))
    for key in sorted(set(a["header"]) | set(b["header"])):
        if a["header"].get(key) != b["header"].get(key):
            print(f"header {key}: {a['header'].get(key)!r} -> {b['header'].get(key)!r}")
    calls_a = {c["id"]: c for c in a["calls"]}
    calls_b = {c["id"]: c for c in b["calls"]}
    changed, answers, paths, moves = 0, 0, Counter(), {}
    for call_id in sorted(set(calls_a) | set(calls_b)):
        ca, cb = calls_a.get(call_id), calls_b.get(call_id)
        if ca is None or cb is None:
            print(f"{call_id}: only in {'B' if ca is None else 'A'}")
            changed += 1
            answers += 1
            continue
        notes = []
        for field in ("problem", "exit", "stderr", "verdicts"):
            if ca.get(field) != cb.get(field):
                notes.append(field)
        answers += any(ca.get(f) != cb.get(f) for f in ("exit", "stderr", "verdicts"))
        for doc in ("stdout", "written"):
            da, db = ca.get(doc) or {}, cb.get(doc) or {}
            if da.get("sha256") == db.get("sha256"):
                continue
            la, lb = da.get("leaves", {}), db.get("leaves", {})
            moved = sorted(p for p in set(la) | set(lb) if la.get(p, "-") != lb.get(p, "-"))
            notes.append(f"{doc} at {len(moved)} paths" + (f": {', '.join(moved[:6])}" if moved else
                                                           " (same values, other bytes)"))
            paths.update({f"{doc} {pattern(p)}" for p in moved})
            for p in moved:
                va, vb = la.get(p), lb.get(p)
                if type(va) in (int, float) and type(vb) in (int, float):
                    step = abs(vb - va)
                    rel = step / abs(va) if va else math.inf
                    most = moves.get(f"{doc} {pattern(p)}", (0.0, 0.0))
                    moves[f"{doc} {pattern(p)}"] = (max(most[0], step), max(most[1], rel))
        if notes:
            changed += 1
            print(f"{call_id}: " + "; ".join(notes))
    print(f"{changed} of {len(set(calls_a) | set(calls_b))} calls changed")
    for path, n in sorted(paths.items()):
        most = moves.get(path)
        moved = f" (largest change {most[0]:.3g} absolute, {most[1]:.3g} relative)" if most else ""
        print(f"  {n:5d} calls changed at {path}{moved}")
    print(f"{answers} calls changed their exit code, stderr or verdict booleans; "
          f"{changed - answers} changed only in numbers or bytes")
    return 1 if changed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the records of every call here")
    parser.add_argument("--root", type=Path, default=HERE, help="the checkout to run")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="list each call whose record differs between A and B")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("give --out FILE or --compare A B")
    record(args.root.resolve(), args.out.resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
