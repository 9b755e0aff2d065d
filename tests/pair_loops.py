"""Reference implementations over pairs of matrix units.

`ae_deterministic` and test (a) of `takesaki_battery` decide
multiplicativity with one Kadison-Schwarz residual per matrix unit. These
are the per-pair loops they replaced: every product of two units is formed
and compared, so a verdict can be checked against the definition itself.
"""

import numpy as np

from qbayes.channel import _map_scale
from qbayes.linalg import DEFAULT_TOL, _sq_frobenius
from qbayes.state import support


def ae_deterministic_pairs(F, omega, tol=DEFAULT_TOL):
    """(verdict, residual) of F(B1 B2) P = F(B1) F(B2) P over all unit pairs,
    cross-block pairs included. The first unit of a pair is looped over; the
    second runs over a whole source block at once, with E_ij E_kl = delta_jk E_il."""
    P = support(omega, tol).projection
    scale = _map_scale(F)
    worst = 0.0
    for x, m_x in enumerate(F.target.block_dims):
        # images[y][i, j] = F_xy(E_ij), and imagesP[y][i, j] = F_xy(E_ij) P
        images = [T.transpose(0, 2, 1, 3) for T in F.tensors[x]]
        imagesP = [img @ P.blocks[x] for img in images]
        for y1, n1 in enumerate(F.source.block_dims):
            for a, left in enumerate(images[y1].reshape(n1 * n1, m_x, m_x)):
                i1, j1 = divmod(a, n1)
                for y2 in range(F.source.n_blocks):
                    # F(E1) F(E2) P - F(E1 E2) P for every unit E2 of block y2
                    diff = left @ imagesP[y2]
                    if y1 == y2:
                        diff[j1] -= imagesP[y1][i1]
                    worst = max(worst, float(_sq_frobenius(diff).max()))
    residual = float(np.sqrt(worst))
    return residual <= tol.eps_eq * scale * scale, residual


def corner_hom_pairs(chan, tol=DEFAULT_TOL):
    """(verdict, residual) of chan(E1 E2) = chan(E1) chan(E2) over all pairs
    of units, per target block, with the threshold of test (a) in
    `takesaki_battery` and of `ae_deterministic`."""
    # images[x][y][i, j] = chan_xy(E_ij)
    images = [[T.transpose(0, 2, 1, 3) for T in row] for row in chan.tensors]
    worst = 0.0
    for y1, n1 in enumerate(chan.source.block_dims):
        for a in range(n1 * n1):
            i1, j1 = divmod(a, n1)
            for y2 in range(chan.source.n_blocks):
                # ||chan_x(E1 E2) - chan_x(E1) chan_x(E2)||^2 over every unit E2 of block y2
                for row in images:
                    diff = row[y1][i1, j1] @ row[y2]
                    if y1 == y2:
                        diff[j1] -= row[y1][i1]
                    worst = max(worst, float(_sq_frobenius(diff).max()))
    residual = float(np.sqrt(worst))
    return residual <= tol.eps_eq * _map_scale(chan) ** 2, residual
