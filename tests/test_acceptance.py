"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json

import numpy as np

from qbayes.algebra import MultiMatrixAlgebra
from qbayes.bayesinv import battery, existence, verify_bayes
from qbayes.channel import (
    Channel,
    LinearMap,
    compose,
    from_hom,
    identity_channel,
)
from qbayes.disint import (
    bayes_disint_bridge,
    condexp_characterize,
    disintegrate,
    factorize,
    takesaki_battery,
)
from qbayes.errors import InternalInconsistency
from qbayes.generators import (
    inclusion_hom,
    product_state_for_hom,
    random_density,
    random_hom,
    random_kraus_channel,
    random_psd,
    random_state,
)
from qbayes.jsonio import loads, problem_from_json
from qbayes.linalg import dagger, frobenius, pseudoinverse
from qbayes.modular import ac_condition_algebraic, ac_condition_sampled, modular_at, modular_flow
from qbayes.state import State, evaluate, support

from conftest import FIXTURES
from feasibility import bayes_feasibility
from instances import (
    epr_instance,
    nonproduct_faithful_instance,
    product_instance,
    rankdef_product_instance,
)
from oracles import matrix_units, petz_map, random_unitary


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def single_block_ensemble(seed: int, count: int):
    """Seeded matrix-algebra instances, mixed verdicts, away from thresholds."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        kind = len(out) % 5
        if kind == 0:
            k = int(rng.integers(2, 4))
            n = int(rng.integers(2, 4))
            h = inclusion_hom(k, n)
            tau = random_density(rng, k)
            sig = random_density(rng, n)
            omega = State(h.target, (1.0,), (np.kron(tau, sig),))
            out.append((from_hom(h), omega))
        elif kind == 1:
            n = int(rng.integers(2, 4))
            m = int(rng.integers(2, 5))
            F = random_kraus_channel(
                rng, MultiMatrixAlgebra((n,)), MultiMatrixAlgebra((m,)), 2
            )
            omega = random_state(rng, MultiMatrixAlgebra((m,)))
            out.append((F, omega))
        elif kind == 2:
            n = int(rng.integers(2, 4))
            m = int(rng.integers(2, 5))
            F = random_kraus_channel(
                rng, MultiMatrixAlgebra((n,)), MultiMatrixAlgebra((m,)), 2
            )
            rank = int(rng.integers(1, m))
            omega = random_state(rng, MultiMatrixAlgebra((m,)), ranks=(rank,))
            out.append((F, omega))
        elif kind == 3:
            d = int(rng.integers(2, 5))
            alg = MultiMatrixAlgebra((d,))
            U = random_unitary(rng, d)
            F = Channel(
                alg, alg,
                LinearMap.from_block_fn(
                    alg, alg, lambda x, y, E, U=U: U @ E @ dagger(U)
                ).tensors,
            )
            rank = int(rng.integers(1, d + 1))
            omega = random_state(rng, alg, ranks=(rank,))
            out.append((F, omega))
        else:
            k = int(rng.integers(2, 3))
            n = int(rng.integers(2, 3))
            h = inclusion_hom(k, n)
            tau = random_density(rng, k, rank=1)
            sig = random_density(rng, n)
            omega = State(h.target, (1.0,), (np.kron(tau, sig),))
            out.append((from_hom(h), omega))
    return out


def test_criterion_01_penrose_suite():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(200):
        d = int(rng.integers(1, 9))
        rank = int(rng.integers(0, d + 1))
        M = random_psd(rng, d, rank)
        Mh = pseudoinverse(M)
        scale = max(frobenius(M), 1.0)
        scale_h = max(frobenius(Mh), 1.0)
        worst = max(
            worst,
            frobenius(M @ Mh @ M - M) / scale,
            frobenius(Mh @ M @ Mh - Mh) / scale_h,
            frobenius(M @ Mh - dagger(M @ Mh)) / scale,
            frobenius(Mh @ M - dagger(Mh @ M)) / scale,
        )
    report(1, worst <= 1e-8, f"200 PSD matrices, worst Penrose residual {worst:.2e}")


def test_criterion_02_modular_suite():
    rng = np.random.default_rng(102)
    times = (0.5, -0.5, np.pi, -1.1)
    worst = 0.0
    for trial in range(50):
        n_blocks = int(rng.integers(1, 3))
        dims = tuple(int(rng.integers(2, 5)) for _ in range(n_blocks))
        alg = MultiMatrixAlgebra(dims)
        omega = random_state(rng, alg)  # faithful
        flow = modular_flow(omega)
        units = list(matrix_units(alg))
        for t in times:
            for E in units:
                worst = max(
                    worst,
                    abs(evaluate(omega, modular_at(flow, t, E)) - evaluate(omega, E)),
                )
        A = units[int(rng.integers(0, len(units)))]
        for t in times:
            for s in times:
                lhs = modular_at(flow, t + s, A)
                rhs = modular_at(flow, t, modular_at(flow, s, A))
                worst = max(worst, (lhs - rhs).norm())
    report(2, worst <= 1e-8, f"50 faithful states, worst flow residual {worst:.2e}")


def test_criterion_03_ac_dual_method():
    instances = single_block_ensemble(103, 140)
    rng = np.random.default_rng(1103)
    # add multi-block instances, faithful and not
    while len(instances) < 200:
        h = random_hom(rng, (2, 2), max_mult=2)
        if len(instances) % 2 == 0:
            omega = product_state_for_hom(rng, h)
        else:
            omega = random_state(rng, h.target)
        instances.append((from_hom(h), omega))
    disagreements = 0
    for F, omega in instances:
        try:
            sampled = ac_condition_sampled(F, omega)
            algebraic = ac_condition_algebraic(F, omega)
            if sampled.ok != algebraic.ok:
                disagreements += 1
        except InternalInconsistency:
            disagreements += 1
    report(3, disagreements == 0, f"200 instances, {disagreements} dual-method disagreements")


def test_criterion_04_battery_seven_way_agreement():
    instances = single_block_ensemble(104, 199)
    problem = problem_from_json(
        loads((FIXTURES / "battery_pass_no_inverse.json").read_text())
    )
    instances.append((problem["channel"], problem["state"]))
    events = 0
    passed = 0
    for F, omega in instances:
        try:
            analysis = battery(F, omega)
            passed += int(analysis.passed)
        except InternalInconsistency:
            events += 1
    report(
        4,
        events == 0,
        f"200 matrix-algebra instances, {events} inconsistency events "
        f"({passed} batteries passed)",
    )


def test_criterion_05_petz_bayes_oracle():
    rng = np.random.default_rng(105)
    checked = 0
    worst = 0.0
    for trial in range(40):
        kind = trial % 3
        if kind == 0:
            k = int(rng.integers(2, 4))
            n = int(rng.integers(2, 4))
            h = inclusion_hom(k, n)
            tau = random_density(rng, k)
            sig = random_density(rng, n)
            omega = State(h.target, (1.0,), (np.kron(tau, sig),))
            F = from_hom(h)
        elif kind == 1:
            d = int(rng.integers(2, 5))
            alg = MultiMatrixAlgebra((d,))
            U = random_unitary(rng, d)
            F = Channel(
                alg, alg,
                LinearMap.from_block_fn(
                    alg, alg, lambda x, y, E, U=U: U @ E @ dagger(U)
                ).tensors,
            )
            omega = random_state(rng, alg)
        else:
            d = int(rng.integers(2, 4))
            alg = MultiMatrixAlgebra((d,))
            F = identity_channel(alg)
            omega = random_state(rng, alg)
        analysis = battery(F, omega)
        if not analysis.passed:
            continue
        petz = Channel(F.target, F.source, petz_map(F, omega).tensors)
        residual = verify_bayes(F, petz, omega).pairing.residual
        worst = max(worst, residual)
        checked += 1
    report(
        5,
        checked >= 30 and worst <= 1e-8,
        f"{checked} battery-passing faithful instances, worst recovery-formula "
        f"pairing residual {worst:.2e}",
    )


def test_criterion_06_product_fixture():
    h, omega = product_instance()
    res = disintegrate(h, omega)
    ok = res.exists
    tau = np.diag([0.3, 0.7])
    worst = 0.0
    for E in matrix_units(h.target):
        expected = np.einsum("uw,wsut->st", tau, E.blocks[0].reshape(2, 2, 2, 2))
        worst = max(worst, frobenius(res.recovery.apply(E).blocks[0] - expected))
    ok = ok and worst <= 1e-8 and res.report.ok
    E_chan = res.expectation
    F = from_hom(h)
    idem = 0.0
    bimod = 0.0
    state_res = 0.0
    EE = compose(E_chan, E_chan)
    for x in range(1):
        idem = max(
            frobenius(EE.tensors[x][x] - E_chan.tensors[x][x]) for x in range(1)
        )
    src_units = list(matrix_units(h.source))
    tgt_units = list(matrix_units(h.target))
    for B1 in src_units:
        for B2 in src_units:
            FB1, FB2 = F.apply(B1), F.apply(B2)
            for A in tgt_units[:4]:
                lhs = E_chan.apply(FB1 @ A @ FB2)
                rhs = FB1 @ E_chan.apply(A) @ FB2
                bimod = max(bimod, (lhs - rhs).norm())
    for A in tgt_units:
        state_res = max(
            state_res,
            abs(evaluate(omega, E_chan.apply(A)) - evaluate(omega, A)),
        )
    ok = ok and idem <= 1e-8 and bimod <= 1e-8 and state_res <= 1e-8
    report(
        6,
        ok,
        "product fixture: recovery = weighted partial trace "
        f"(res {worst:.1e}), idempotence {idem:.1e}, bimodularity {bimod:.1e}, "
        f"state preservation {state_res:.1e}",
    )


def test_criterion_07_epr_fixture():
    h, omega = epr_instance()
    ac = ac_condition_algebraic(from_hom(h), omega).ok
    tk = takesaki_battery(h, omega)
    ce = condexp_characterize(h, omega).ok
    ok = ac and not tk.multiplicative.ok and not tk.full_disintegration and not ce
    report(
        7,
        ok,
        f"EPR fixture: intertwining={ac}, corner-hom={tk.multiplicative.ok}, "
        f"disintegration={tk.full_disintegration}, condexp={ce}",
    )


def test_criterion_08_reverse_counterexample():
    h, omega = nonproduct_faithful_instance()
    ac = ac_condition_algebraic(from_hom(h), omega).ok
    tk = takesaki_battery(h, omega)
    ok = tk.multiplicative.ok and not ac and not tk.full_disintegration
    report(
        8,
        ok,
        f"reverse fixture: corner-hom={tk.multiplicative.ok}, intertwining={ac}, "
        f"disintegration={tk.full_disintegration}",
    )


def test_criterion_09_bridge_gate():
    rng = np.random.default_rng(109)
    violations = 0
    count = 0
    # fixture corpus
    corpus = []
    for name in sorted(FIXTURES.glob("*.json")):
        problem = problem_from_json(loads(name.read_text()))
        corpus.append((problem["hom"] or problem["channel"], problem["state"]))
    for F, omega in corpus:
        count += 1
        try:
            rep = bayes_disint_bridge(F, omega)
            if not rep.consistent:
                violations += 1
        except InternalInconsistency:
            violations += 1
    while count < len(corpus) + 100:
        count += 1
        kind = count % 3
        if kind == 0:
            h = random_hom(rng, (2, 2), max_mult=2)
            omega = product_state_for_hom(rng, h)
            F = h
        elif kind == 1:
            h = random_hom(rng, (2, 3), max_mult=1)
            omega = random_state(rng, h.target)
            F = h
        else:
            n = int(rng.integers(2, 4))
            m = int(rng.integers(2, 4))
            F = random_kraus_channel(
                rng, MultiMatrixAlgebra((n,)), MultiMatrixAlgebra((m,)), 2
            )
            omega = random_state(rng, MultiMatrixAlgebra((m,)))
        try:
            rep = bayes_disint_bridge(F, omega)
            if not rep.consistent:
                violations += 1
        except InternalInconsistency:
            violations += 1
    report(9, violations == 0, f"{count} instances incl. fixture corpus, {violations} bridge violations")


def test_criterion_10_existence_inequality():
    problem = problem_from_json(
        loads((FIXTURES / "battery_pass_no_inverse.json").read_text())
    )
    F, omega = problem["channel"], problem["state"]
    analysis = battery(F, omega)
    res = existence(analysis)
    feas = bayes_feasibility(F, omega, max_iterations=12000)
    fail_side = analysis.passed and not res.exists and feas.feasible is False

    h, omega2 = rankdef_product_instance()
    F2 = from_hom(h)
    analysis2 = battery(F2, omega2)
    res2 = existence(analysis2)
    pass_side = (
        analysis2.passed
        and res2.exists
        and res2.verification.ok
        and not support(omega2).is_full()
    )
    report(
        10,
        fail_side and pass_side,
        f"pinned no-inverse fixture (margin {res.margin:+.3f}, oracle "
        f"infeasible) and non-faithful fixture with verified extension "
        f"(pairing {res2.verification.pairing.residual:.1e})",
    )


def test_criterion_11_subblock_equivalence():
    rng = np.random.default_rng(111)
    mismatches = 0
    worst_arith = 0.0
    for trial in range(100):
        dims = (2, 3) if trial % 2 == 0 else (2, 2)
        h = random_hom(rng, dims, max_mult=2)
        if trial % 3 == 0:
            omega = random_state(rng, h.target)
        else:
            omega = product_state_for_hom(rng, h)
        cert = factorize(h, omega)
        ce = condexp_characterize(h, omega)
        if cert.ok != ce.ok:
            mismatches += 1
        xi = cert.xi
        # the mixing coefficient lambda_ij = tr tau_ij, 0 for a missing sub-block
        lam = {key: np.trace(t).real for key, t in cert.tau.items()}
        for i in range(h.target.n_blocks):
            row = sum(
                lam.get((i, j), 0.0) * xi.weights[j]
                for j in range(h.source.n_blocks)
            )
            worst_arith = max(worst_arith, abs(row - omega.weights[i]))
    report(
        11,
        mismatches == 0 and worst_arith <= 1e-8,
        f"100 multi-matrix instances, {mismatches} verdict mismatches, "
        f"certificate arithmetic residual {worst_arith:.2e}",
    )


def test_criterion_12_cli_determinism(tmp_path, capsys):
    from qbayes.cli import main
    from qbayes.jsonio import canonical_dumps, channel_to_json, state_to_json

    stable = True
    for fixture in sorted(FIXTURES.glob("*.json")):
        outs = []
        for _ in range(2):
            code = main(["check", str(fixture)])
            captured = capsys.readouterr()
            assert code == 0
            rep = json.loads(captured.out)
            rep.pop("timing", None)
            outs.append(canonical_dumps(rep))
        if outs[0] != outs[1]:
            stable = False
        problem = problem_from_json(loads(fixture.read_text()))
        reserialized = canonical_dumps(
            {
                "schema": "qbayes-problem/1",
                "channel": channel_to_json(problem["channel"]),
                "state": state_to_json(problem["state"]),
            }
        )
        reparsed = problem_from_json(loads(reserialized))
        for x in range(problem["channel"].target.n_blocks):
            for y in range(problem["channel"].source.n_blocks):
                if not np.array_equal(
                    problem["channel"].tensors[x][y], reparsed["channel"].tensors[x][y]
                ):
                    stable = False
    report(12, stable, "all shipped fixtures: byte-identical reports and exact round-trips")
