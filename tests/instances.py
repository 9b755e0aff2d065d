"""The named worked examples of the tests, each a fresh (hom or channel,
state) pair; the shipped fixtures hold the same examples as problem files.
`with_small_directions` rewrites a map as a `choi` channel with planted
small or negative eigen-directions."""

import numpy as np

from qbayes.algebra import HomSpec, MultiMatrixAlgebra
from qbayes.channel import Channel, from_choi, from_kraus
from qbayes.generators import inclusion_hom
from qbayes.linalg import DEFAULT_TOL
from qbayes.state import State


def epr_instance() -> tuple[HomSpec, State]:
    """Antisymmetric pure state on a 4x4 block over the multiplicity-2
    embedding; the canonical 'intertwining holds, corner map is no
    homomorphism' example."""
    h = inclusion_hom(2, 2)
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / np.sqrt(2)
    psi[2] = -1.0 / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    omega = State(h.target, (1.0,), (rho,))
    return h, omega


def product_instance() -> tuple[HomSpec, State]:
    """diag(0.3, 0.7) (x) diag(0.6, 0.4) over the multiplicity-2 embedding."""
    h = inclusion_hom(2, 2)
    rho = np.kron(np.diag([0.3, 0.7]), np.diag([0.6, 0.4])).astype(complex)
    omega = State(h.target, (1.0,), (rho,))
    return h, omega


def rankdef_product_instance() -> tuple[HomSpec, State]:
    """Rank-deficient product state diag(1, 0) (x) diag(0.6, 0.4)."""
    h = inclusion_hom(2, 2)
    rho = np.kron(np.diag([1.0, 0.0]), np.diag([0.6, 0.4])).astype(complex)
    omega = State(h.target, (1.0,), (rho,))
    return h, omega


def nonproduct_faithful_instance() -> tuple[HomSpec, State]:
    """Faithful non-product state on the 4x4 block: the reverse
    counterexample (corner map is a homomorphism, intertwining fails)."""
    h = inclusion_hom(2, 2)
    rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    omega = State(h.target, (1.0,), (rho,))
    return h, omega


def nonsubalgebra_deterministic_instance() -> tuple[Channel, State]:
    """UCP map B -> diag(B, (B + B^T + tr(B) 1)/4) with a pure target state.

    The image is not a subalgebra, yet the map is deterministic almost
    everywhere for this state. The scalar factor applies tr(B): the only
    type-correct reading of the construction. Kraus form: [1; 0] places B,
    and [0; L] with L in {1/sqrt(2), Z/2, X/2} give the lower block, whose
    Choi matrix (|Omega><Omega| + 2 P_sym)/4 lives on the symmetric subspace.
    """
    source = MultiMatrixAlgebra((2,))
    target = MultiMatrixAlgebra((4,))
    place = np.vstack([np.eye(2), np.zeros((2, 2))])
    lower = (np.eye(2) / np.sqrt(2), np.diag([0.5, -0.5]), np.array([[0.0, 0.5], [0.5, 0.0]]))
    F = from_kraus(source, target, [[[place] + [np.vstack([np.zeros((2, 2)), L]) for L in lower]]])
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    omega = State(target, (1.0,), (rho,))
    return F, omega


def with_small_directions(F, frac, count):
    """F read back from its Choi blocks, each given `count` null directions of
    eigenvalue frac x the block's PSD threshold (rank cutoff at frac > 0)."""
    blocks = []
    for x, row in enumerate(F.tensors):
        blocks.append([])
        for T in row:
            C = T.reshape(T.shape[0] * T.shape[1], -1)
            w, V = np.linalg.eigh(C)
            if frac < 0:
                size = DEFAULT_TOL.psd(0.0, w[-1]).threshold
            else:
                size = DEFAULT_TOL.rank_cutoff(w[-1])
            Z = V[:, :count]
            blocks[x].append((C + frac * size * Z @ Z.conj().T).reshape(T.shape))
    return from_choi(F.source, F.target, blocks)
