"""An exact per-mode propagator of the linear kinetic model, for tests.

With chi0 = 0 and no reactions each species of the kinetic model is linear
with coefficients that do not depend on x. On a periodic grid of n cells,
the rfft mode m of f(., v) then evolves by exp(t * B_m), with

    B_m = -i * kappa_m * diag(v) / eps + lam * (M w^T - I),

lam = sigma / eps^(q+1), and the staggered symbol
kappa_m = (2/dx) * sin(pi*m/n), set to 0 at the Nyquist mode of an even n.
kappa_m^2 is the three-point Laplacian's eigenvalue, so as eps -> 0 the
modes decay as macro._heat_symbol does on the same grid.

About a uniform state q = (c, s, u) the macro system is linear too: mode m
evolves by exp(t * A_m), with J the Jacobian of ModelParams.reactions at q
and

    A_m = J - kappa_m^2 * diag(Dc, Ds, Du) + chi * c * kappa_m^2 * e_c e_s^T,

where kappa_m^2 = (4/dx^2) * sin^2(pi*m/n) at every mode, the three-point
symbol of both the diffusion and the linearized upwind drift. Mode 0 is
the ODE's exp(t * J).
"""

import numpy as np

_TAYLOR_DEGREE = 18


def expm(a):
    """exp of each square matrix of a stack: a degree-18 Taylor polynomial
    of a / 2^s, with s set by the largest 1-norm, then squared s times."""
    norm = np.abs(a).sum(axis=-2).max()
    squarings = max(0, int(np.ceil(np.log2(2.0 * norm)))) if norm > 0 else 0
    a = a / 2.0 ** squarings
    eye = np.broadcast_to(np.eye(a.shape[-1], dtype=a.dtype), a.shape)
    result = eye
    for j in range(_TAYLOR_DEGREE, 0, -1):  # Horner: I + a/j * (...)
        result = eye + (a @ result) / j
    for _ in range(squarings):
        result = result @ result
    return result


def mode_symbols(grid):
    """kappa_m on the rfft modes m = 0 .. n//2 of a SpatialGrid."""
    n = grid.n_cells
    kappa = 2.0 / grid.dx * np.sin(np.pi / n * np.arange(n // 2 + 1))
    if n % 2 == 0:
        kappa[-1] = 0.0
    return kappa


def propagators(grid, vgrid, M, eps, sigma, q, t):
    """exp(t * B_m) for the rfft modes m = 0 .. n//2 of one species, as an
    (n//2 + 1, n_nodes, n_nodes) complex stack.

    The exponential is taken in the basis M, e_k - M w_k (k >= 1), where
    relaxation is exactly diag(0, -lam, ..., -lam): mode 0 is then diagonal,
    and keeps the mass w^T f to rounding however many squarings a stiff
    lam needs (in the node basis its error doubles with each one).
    """
    n, w = vgrid.n_nodes, vgrid.weights
    basis = np.eye(n) - np.outer(M, w)
    basis[:, 0] = M
    inverse = np.eye(n) - np.outer(M / M[0], np.eye(n)[0])
    inverse[0] = w
    relax = np.diag(np.r_[0.0, np.full(n - 1, -sigma / eps ** (q + 1))])
    speeds = inverse @ (vgrid.nodes[:, None] * basis)  # diag(v) in the basis
    drift = np.multiply.outer(mode_symbols(grid) / eps, speeds)
    return basis @ expm(t * (relax - 1j * drift)) @ inverse


def reaction_jacobian(params, q):
    """The Jacobian of ModelParams.reactions at the state q = (c, s, u)."""
    c, _, u = q
    return np.array([[-params.d1 - params.beta * u, 0.0, -params.beta * c],
                     [params.beta * u, -params.d2, params.beta * c],
                     [0.0, params.k, -params.d3]])


def macro_matrices(grid, coeff, q):
    """A_m for the rfft modes m = 0 .. n//2 of the macro system with
    MacroCoefficients coeff linearized about q, as an (n//2 + 1, 3, 3)
    stack."""
    n = grid.n_cells
    kappa2 = (2.0 / grid.dx * np.sin(np.pi / n * np.arange(n // 2 + 1))) ** 2
    symbol = np.diag([-coeff.Dc, -coeff.Ds, -coeff.Du])
    symbol[0, 1] = coeff.chi * q[0]
    return reaction_jacobian(coeff.params, q) + np.multiply.outer(kappa2, symbol)
