"""Every verdict of every analysis is its residual judged against its threshold.

Each analysis of `qbayes check` runs through the library on the shipped
fixtures, and the reports are walked for `Verdict`s: each one passes iff
residual <= threshold, and none passes with a NaN residual.
"""

import dataclasses
import math

import numpy as np
import pytest

from qbayes.bayesinv import battery, existence
from qbayes.channel import is_ucp
from qbayes.disint import bayes_disint_bridge, condexp_characterize, disintegrate, takesaki_battery
from qbayes.jsonio import loads, problem_from_json
from qbayes.linalg import Verdict
from qbayes.modular import ac_condition_sampled

from conftest import FIXTURES

FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.json"))


def reports(problem):
    F, h, omega = problem["channel"], problem["hom"], problem["state"]
    analysis = battery(F, omega)
    out = [is_ucp(F), ac_condition_sampled(F, omega), analysis]
    if analysis.passed:
        out.append(existence(analysis))
    out.append(bayes_disint_bridge(h if h is not None else F, omega))
    if h is not None:
        res = disintegrate(h, omega)
        out += [takesaki_battery(h, omega), res, condexp_characterize(h, omega)]
    return out


def verdicts(obj, path):
    """(path, verdict) of every Verdict reachable through dataclass fields,
    dicts, lists and tuples."""
    if isinstance(obj, Verdict):
        yield path, obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for field in dataclasses.fields(obj):
            yield from verdicts(getattr(obj, field.name), f"{path}.{field.name}")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from verdicts(value, f"{path}[{key!r}]")
    elif isinstance(obj, (list, tuple)):
        for k, value in enumerate(obj):
            yield from verdicts(value, f"{path}[{k}]")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_verdict_is_its_residual_against_its_threshold(name):
    problem = problem_from_json(loads((FIXTURES / f"{name}.json").read_text()))
    found = [pair for rep in reports(problem) for pair in verdicts(rep, type(rep).__name__)]
    # the UCP test, both AC tests and the seven battery conditions at least
    assert len(found) >= 11
    for path, v in found:
        assert v.ok == bool(np.all(np.asarray(v.residual) <= v.threshold)), path
        assert not dataclasses.replace(v, residual=math.nan).ok, path
    analysis = battery(problem["channel"], problem["state"])
    assert analysis.passed == all(v.ok for v in analysis.conditions.values())


def test_a_nan_never_passes():
    assert not Verdict(math.nan, 1.0).ok and not Verdict(0.0, math.nan).ok
    assert not Verdict(np.array([0.0, math.nan]), 1.0).ok
    assert Verdict(np.array([0.0, 1.0]), np.array([0.0, 1.0])).ok
