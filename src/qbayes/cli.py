"""Command-line front end.

Subcommands: `check` runs the requested analyses on a problem file and
prints a schema-versioned report; `invert` additionally writes the
constructed inverse or recovery channel; `random` mints seeded problem
files. Exit codes: 0 = analyses ran (verdicts live in the report), 2 =
input error, 3 = a proven equivalence was violated numerically (bug
alarm, distinct from a mathematical "no").
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .bayesinv import battery, bayes_inverse, existence
from .disint import (
    bayes_disint_bridge,
    condexp_characterize,
    disintegrate,
    takesaki_battery,
)
from .errors import InternalInconsistency, NegativeEigenvalue, ParseError, QBayesError, SchemaError
from .generators import (
    inclusion_hom,
    product_state_for_hom,
    random_kraus_channel,
    random_state,
)
from .jsonio import (
    PROBLEM_SCHEMA,
    REPORT_SCHEMA,
    _check_analyses,
    canonical_dumps,
    channel_to_json,
    hom_to_json,
    loads,
    matrix_to_json,
    problem_from_json,
    state_to_json,
    tolerances_from_json,
)
from .linalg import EPS_RECON, Tolerances
from .modular import ac_condition_sampled
from .state import support

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3


def _tolerances(args, overrides: dict) -> Tolerances:
    """eps_eq and eps_rank from the flags, else the problem file's validated
    `tolerances` entries; a value outside (0, 1) raises SchemaError naming
    it."""
    values = {}
    for name, flag in (("eps_eq", "--eps-eq"), ("eps_rank", "--eps-rank")):
        sources = (
            (flag, getattr(args, name, None)),
            (f"problem.tolerances.{name}", overrides.get(name)),
        )
        for source, raw in sources:
            if raw is not None:
                try:
                    values[name] = float(raw)
                    Tolerances(**values)
                except (TypeError, ValueError, OverflowError) as exc:
                    raise SchemaError(f"{source}: {exc}") from exc
                break
    return Tolerances(**values)


def _run_analyses(problem: dict, tol: Tolerances) -> tuple[dict, dict]:
    """The report entry of each analysis, and the seconds each took."""
    channel = problem["channel"]
    hom = problem["hom"]
    state = problem["state"]
    out: dict = {}
    seconds: dict = {}
    for name in problem["analyses"]:
        start = time.perf_counter()
        if name == "ac":
            # the sampled test runs the algebraic one for its cross-check
            sampled = ac_condition_sampled(channel, state, tol=tol)
            algebraic = sampled.algebraic
            out["ac"] = {
                "verdict": bool(algebraic.ok),
                "max_residual": algebraic.verdict.residual,
                "sampled_residual": sampled.verdict.residual,
            }
        elif name == "takesaki":
            rep = takesaki_battery(hom, state, tol)
            out["takesaki"] = {
                "corner_hom": rep.multiplicative.ok,
                "corner_hom_residual": rep.multiplicative.residual,
                "ac": rep.intertwining.ok,
                "ac_residual": rep.intertwining.residual,
                "corner_disintegration": rep.corner_disintegration,
                "disintegration": rep.full_disintegration,
            }
        elif name == "disintegrate":
            res = disintegrate(hom, state, tol)
            entry = {
                "exists": res.exists,
                "residuals": res.certificate.residuals,
            }
            if res.exists:
                entry["recovery"] = channel_to_json(res.recovery)
                entry["verification"] = {
                    "state_preservation_residual": res.report.state_preservation.residual,
                    "exact_left_inverse": res.report.exact_left_inverse.ok,
                }
            out["disintegrate"] = entry
        elif name == "condexp":
            rep = condexp_characterize(hom, state, tol)
            out["condexp"] = {
                "exists": rep.ok,
                "off_diagonal_residual": rep.off_diagonal.residual,
                "product_residual": rep.product.residual,
                "mixing_residual": rep.mixing.residual,
            }
        elif name == "bayes-battery":
            analysis = battery(channel, state, tol)
            out["bayes-battery"] = {
                "passed": analysis.passed,
                "conditions": {
                    cname: {"ok": rep.ok, "residual": rep.residual}
                    for cname, rep in sorted(analysis.conditions.items())
                },
            }
        elif name == "bayes-existence":
            analysis = battery(channel, state, tol)
            entry: dict = {"battery_passed": analysis.passed}
            if analysis.passed:
                res = existence(analysis)
                entry["exists"] = res.exists
                entry["margin"] = res.margin
                if res.exists:
                    entry["inverse"] = channel_to_json(res.inverse)
                    entry["pairing_residual"] = res.verification.pairing.residual
            else:
                entry["exists"] = False
            out["bayes-existence"] = entry
        elif name == "bridge":
            rep = bayes_disint_bridge(hom if hom is not None else channel, state, tol)
            out["bridge"] = {
                "disintegration": rep.disintegration,
                "bayes_inverse": rep.bayes_inverse,
                "deterministic": rep.deterministic,
                "consistent": rep.consistent,
            }
        seconds[name] = time.perf_counter() - start
    return out, seconds


def _report(analyses: dict, tol: Tolerances, timing: dict) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "tool": {"name": "qbayes", "version": __version__},
        "tolerances": {
            "eps_rank": tol.eps_rank,
            "eps_eq": tol.eps_eq,
            "eps_recon": EPS_RECON,
        },
        "analyses": analyses,
        "timing": timing,
    }


def _plain(value):
    """value with each matrix array back as its [re, im] pair list."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return matrix_to_json(value) if isinstance(value, np.ndarray) else value


def _print_report(report: dict, pretty: bool, stream) -> None:
    if not pretty:
        stream.write(canonical_dumps(report))
        return
    report = _plain(report)
    stream.write(f"qbayes {report['tool']['version']}\n")
    for name, entry in sorted(report["analyses"].items()):
        stream.write(f"[{name}]\n")
        for key, value in sorted(entry.items()):
            if isinstance(value, dict):
                stream.write(f"  {key}:\n")
                for k2, v2 in sorted(value.items()):
                    stream.write(f"    {k2}: {v2}\n")
            else:
                stream.write(f"  {key}: {value}\n")
    stream.write(f"elapsed: {report['timing']['seconds']:.3f}s\n")


def _load(args) -> tuple[dict, Tolerances]:
    """The problem file's validated problem and the run's tolerances, which
    are read first: the channel's UCP test and the state's weights and traces
    are judged at them while the problem is parsed, and each density is judged
    PSD here by `support`, so that a refusal names its field; the analyses
    then read the same decomposition."""
    with open(args.problem, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.problem}: {exc}") from exc
    data = loads(text)
    tol = _tolerances(args, tolerances_from_json(data))
    problem = problem_from_json(data, tol)
    try:
        support(problem["state"], tol)
    except NegativeEigenvalue as exc:
        raise SchemaError(f"problem.state.densities[{exc.block}]: {exc}") from exc
    return problem, tol


def cmd_check(args) -> int:
    problem, tol = _load(args)
    if args.analyses is not None:
        requested = [a.strip() for a in args.analyses.split(",") if a.strip()]
        _check_analyses(requested, problem["hom"] is not None, "--analyses")
        problem["analyses"] = requested
    start = time.perf_counter()
    analyses, seconds = _run_analyses(problem, tol)
    timing = {"seconds": time.perf_counter() - start, "analyses": seconds}
    report = _report(analyses, tol, timing)
    _print_report(report, args.pretty, sys.stdout)
    return EXIT_OK


def cmd_invert(args) -> int:
    problem, tol = _load(args)
    start = time.perf_counter()
    constructed = None
    if args.mode == "bayes":
        exists, inverse, analysis, result = bayes_inverse(problem["channel"], problem["state"], tol)
        entry = {"mode": "bayes", "battery_passed": analysis.passed, "exists": exists}
        if exists:
            entry["pairing_residual"] = result.verification.pairing.residual
            entry["margin"] = result.margin
            constructed = inverse
    else:
        if problem["hom"] is None:
            raise SchemaError("invert --mode disint needs a channel of kind 'hom'")
        res = disintegrate(problem["hom"], problem["state"], tol)
        entry = {"mode": "disint", "exists": res.exists}
        entry["residuals"] = res.certificate.residuals
        if res.exists:
            entry["state_preservation_residual"] = res.report.state_preservation.residual
            constructed = res.recovery
    if constructed is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(channel_to_json(constructed)))
        entry["written"] = args.out
    report = _report({"invert": entry}, tol, {"seconds": time.perf_counter() - start})
    _print_report(report, args.pretty, sys.stdout)
    return EXIT_OK


def _parse_dims(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    try:
        left, right = text.split("->")
        src = tuple(int(d) for d in left.split(","))
        tgt = tuple(int(d) for d in right.split(","))
    except ValueError as exc:
        raise SchemaError(f"--dims: expected 'n1,n2->m1,m2', got '{text}'") from exc
    if not src or not tgt or min(src + tgt) <= 0:
        raise SchemaError(f"--dims: dimensions must be positive in '{text}'")
    return src, tgt


def cmd_random(args) -> int:
    src, tgt = _parse_dims(args.dims)
    rng = np.random.default_rng(args.seed)
    kind = args.kind
    if kind in ("product", "nonproduct", "rankdef"):
        if len(src) != 1 or len(tgt) != 1 or tgt[0] % src[0] != 0:
            raise SchemaError(
                f"--kind {kind} needs single-block dims n->k*n, got {args.dims}"
            )
        n = src[0]
        k = tgt[0] // n
        h = inclusion_hom(k, n)
        if kind == "product":
            state = product_state_for_hom(rng, h)
        elif kind == "rankdef":
            state = product_state_for_hom(
                rng, h, tau_ranks={(0, 0): max(1, k - 1)},
                sigma_ranks=[max(1, n - 1)],
            )
        else:
            state = random_state(rng, h.target)
        channel_json = hom_to_json(h)
    elif kind == "kraus":
        from .algebra import MultiMatrixAlgebra

        source = MultiMatrixAlgebra(src)
        target = MultiMatrixAlgebra(tgt)
        # enough Kraus operators for sum_k K_k K_k^* to be invertible
        n_kraus = max(2, math.ceil(max(tgt) / sum(src)))
        F = random_kraus_channel(rng, source, target, n_kraus=n_kraus)
        state = random_state(rng, target)
        channel_json = channel_to_json(F)
    else:
        raise SchemaError(f"--kind: unknown kind '{kind}'")
    problem = {
        "schema": PROBLEM_SCHEMA,
        "_comment": f"generated by qbayes random --dims {args.dims} "
        f"--kind {kind} --seed {args.seed}",
        "channel": channel_json,
        "state": state_to_json(state),
    }
    text = canonical_dumps(problem)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="qbayes",
        description="Bayesian inverses, disintegrations, and state-preserving "
        "conditional expectations for UCP maps on multi-matrix algebras.",
    )
    parser.add_argument("--version", action="version", version=f"qbayes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run analyses on a problem file")
    p_check.add_argument("problem")
    p_check.add_argument("--analyses", help="comma-separated subset to run")
    p_check.add_argument("--eps-eq", type=float, dest="eps_eq")
    p_check.add_argument("--eps-rank", type=float, dest="eps_rank")
    p_check.add_argument("--pretty", action="store_true", help="human-readable report")
    p_check.set_defaults(func=cmd_check)

    p_inv = sub.add_parser("invert", help="construct and write an inverse channel")
    p_inv.add_argument("problem")
    p_inv.add_argument("--mode", choices=("bayes", "disint"), required=True)
    p_inv.add_argument("--out", required=True)
    p_inv.add_argument("--eps-eq", type=float, dest="eps_eq")
    p_inv.add_argument("--eps-rank", type=float, dest="eps_rank")
    p_inv.add_argument("--pretty", action="store_true")
    p_inv.set_defaults(func=cmd_invert)

    p_rand = sub.add_parser("random", help="generate a seeded problem file")
    p_rand.add_argument("--dims", required=True, help="source->target, e.g. 2->4")
    p_rand.add_argument(
        "--kind", required=True, choices=("product", "nonproduct", "rankdef", "kraus")
    )
    p_rand.add_argument("--seed", type=int, required=True)
    p_rand.add_argument("--out")
    p_rand.set_defaults(func=cmd_random)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # an unreadable or unwritable path (missing, a directory) names itself
    except (ParseError, SchemaError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except InternalInconsistency as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return EXIT_INCONSISTENT
    except QBayesError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
