"""Count the derivations of one `qbayes` call.

Each shared input of a check is derived by a private builder and kept on the
object that owns it: the support and the pulled-back states on the state,
the channel on the hom, the factorization, the corner map and the Bayes
battery on the state, the algebraic AC and determinism verdicts of each map
on the state, and the UCP verdict of each map at each tolerance on the map. `recording()` wraps those builders and records a key for
each build, so an input derived twice shows up as a repeated key. It also
counts the eigendecompositions, keyed by shape: each density's is made by its
support and read from there, the compression of a Choi block by the
battery's CP floor and by the certificate of a factor that subtracts
(`_compressed_eigvalsh`, keyed by the side it decomposes), a Choi block's
own only where a map's factor is read from its Choi blocks,
once per map and tolerance (`_choi_factor`, keyed by the shapes of the
blocks it decomposes: a channel read from Choi blocks at parse, or a map
built without a factor; `is_ucp` certifies every map from its factor), and
the extension's compressions by `support_eigen` (through
`hermitian_eigen`). The Hermitian parts of Choi blocks (`hermitian_split`,
keyed by shape) are split once per block of a `choi` input at parse, and
once per block where `_choi_factor` reads the factor of a map that carries
none. `eigendecompositions()` records every numpy
eigendecomposition with the function that made it. From a checkout:

    PYTHONPATH=src python tests/derivations.py fixtures/product.json [--analyses ac]

runs one `qbayes check` on the problem file and prints, per builder, how
many builds it made and on how many distinct keys.
"""

import contextlib
import io
import sys
from collections import Counter

import numpy as np

import qbayes.bayesinv
import qbayes.channel
import qbayes.disint
import qbayes.linalg
import qbayes.modular
import qbayes.state

BUILDERS = {
    "linalg.hermitian_eigen": (qbayes.linalg, "hermitian_eigen", lambda M, *tol: np.shape(M)),
    "linalg.hermitian_split": (qbayes.linalg, "hermitian_split", np.shape),
    "channel._compressed_eigvalsh": (
        qbayes.channel, "_compressed_eigvalsh", lambda Z, J: min(np.shape(Z))
    ),
    "channel._choi_factor": (
        qbayes.channel,
        "_choi_factor",
        lambda F, tol, parts=None: [F.choi_block(x, y).shape
                        for x in range(F.target.n_blocks) for y in range(F.source.n_blocks)],
    ),
    "channel._ucp_verdict": (qbayes.channel, "_ucp_verdict", lambda F, tol: (id(F), tol)),
    "state._support": (qbayes.state, "_support", lambda omega, tol: (id(omega), tol)),
    "state._pullback": (
        qbayes.state, "_pullback", lambda omega, F, tol: (id(omega), id(F), tol)
    ),
    "channel._from_hom": (qbayes.channel, "_from_hom", id),
    "disint._factorize": (
        qbayes.disint, "_factorize", lambda h, omega, tol: (id(h), id(omega), tol)
    ),
    "modular._corner_map": (
        qbayes.modular, "_corner_map", lambda F, sup_o, sup_x, tol: (id(F), id(sup_o.state), tol)
    ),
    "modular._ac_algebraic": (
        qbayes.modular,
        "_ac_algebraic",
        lambda cm, tol: (id(cm.channel), id(cm.omega_support.state), tol),
    ),
    "channel._ae_deterministic": (
        qbayes.channel, "_ae_deterministic", lambda F, omega, tol: (id(F), id(omega), tol)
    ),
    "bayesinv._battery": (
        qbayes.bayesinv, "_battery", lambda F, omega, tol: (id(F), id(omega), tol)
    ),
    "bayesinv._existence": (
        qbayes.bayesinv,
        "_existence",
        lambda analysis: (id(analysis.F), id(analysis.omega), analysis.tol),
    ),
}


@contextlib.contextmanager
def recording(targets=BUILDERS):
    """Yield {label: [key, ...]} for targets {label: (module, name, key)}.

    While open, each call of module.name appends key(*args) to its label's
    list. A function is wrapped at every qbayes module that binds it. The
    arguments are held until the block exits, so that no id in a key is
    reused by a later object.
    """
    seen = {label: [] for label in targets}
    held = []
    patched = []

    def wrap(original, key, keys):
        def recorded(*args, **kwargs):
            held.append(args)
            keys.append(key(*args))
            return original(*args, **kwargs)
        return recorded

    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "qbayes"]
    for label, (module, name, key) in targets.items():
        original = getattr(module, name)
        recorded = wrap(original, key, seen[label])
        for mod in modules:
            if getattr(mod, name, None) is original:
                patched.append((mod, name, original))
                setattr(mod, name, recorded)
    try:
        yield seen
    finally:
        for mod, name, original in reversed(patched):
            setattr(mod, name, original)
        held.clear()


@contextlib.contextmanager
def eigendecompositions():
    """Yield [(caller, side), ...]: each `np.linalg.eigh` and `eigvalsh` call
    made while open, by the name of the function that made it and the side of
    the matrix it decomposed."""
    seen = []
    originals = {name: getattr(np.linalg, name) for name in ("eigh", "eigvalsh")}

    def wrap(original):
        def recorded(M, *args, **kwargs):
            seen.append((sys._getframe(1).f_code.co_name, np.shape(M)[-1]))
            return original(M, *args, **kwargs)
        return recorded

    for name, original in originals.items():
        setattr(np.linalg, name, wrap(original))
    try:
        yield seen
    finally:
        for name, original in originals.items():
            setattr(np.linalg, name, original)


def repeats(keys) -> list:
    """The keys recorded more than once."""
    return [k for k, n in Counter(keys).items() if n > 1]


def main(argv) -> int:
    from qbayes.cli import main as qbayes_main

    with recording() as seen, contextlib.redirect_stdout(io.StringIO()):
        code = qbayes_main(["check", *argv])
    for label, keys in seen.items():
        print(f"{label:26} {len(keys):4d} builds {len(set(keys)):4d} distinct")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
