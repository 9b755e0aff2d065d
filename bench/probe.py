"""Host-speed probe for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts by a third
or more within seconds, with process CPU time tracking wall time, so no
choice of clock removes the drift. The probe is a fixed mix of the kinds of
work qbayes does (interpreter loops, dicts and JSON, small Hermitian
eigendecompositions, matrix products and an einsum contraction) that never
calls qbayes. The benchmark runs it between chunks of qbayes calls and
scales each call's time by REFERENCE_S over the mean of the probe times on
either side of it. A timing so scaled reads as it would at the reference
speed, the speed at which one probe takes REFERENCE_S, and a change to
qbayes moves it as it moves the raw time. A change outside qbayes that
slows the probe itself (more BLAS threads, a spinning background thread)
would be hidden by it, so the benchmark pins BLAS to one thread.

Set-up time is mostly a fresh interpreter's start and imports, whose speed
follows page faults and file reads more than it follows the probe. It is
scaled instead by `startup_seconds`, the time of a fresh interpreter that
imports numpy and nothing of qbayes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np

# One probe's time at the reference speed: the median probe time on a
# 2-vCPU Intel Xeon VM with Python 3.11.7, numpy 2.4.6 and one BLAS thread.
REFERENCE_S = 0.025
ROUNDS = 8
# `startup_seconds` at the reference speed, on the same machine.
STARTUP_REFERENCE_S = 0.2


class Probe:
    def __init__(self) -> None:
        rng = np.random.default_rng(20211206)
        self.hermitians = []
        for d in (2, 3, 4, 6, 8, 12, 16, 24):
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            self.hermitians.append(m + m.conj().T)
        self.tensor = rng.standard_normal((6, 12, 6, 12)) + 1j * rng.standard_normal((6, 12, 6, 12))
        self.square = self.hermitians[-3][:12, :12]
        self.seconds()  # warm-up

    def seconds(self) -> float:
        """Wall time of one probe."""
        start = time.perf_counter()
        for round_ in range(ROUNDS):
            for m in self.hermitians:
                np.linalg.eigh(m)
                m @ m
            if round_ % 4 == 0:
                np.einsum("uk,ikjl,lv->ijuv", self.square, self.tensor, self.square)
            total = 0
            for i in range(3000):
                total += i * i
            table = {str(i): [i, float(i)] for i in range(500)}
            json.dumps(table)
        return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into a time at
    the reference speed."""
    return 2 * REFERENCE_S / (before + after)


def startup_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True)
    return time.perf_counter() - start
