"""Exact per-mode propagators of the linearized model's tiers, for tests.

About a uniform state q = (c, s, u), f_i = q_i * M_i, the kinetic model is
linear with coefficients that do not depend on x. On a periodic grid of n
cells, the rfft mode m of (f1, f2, f3)(., v) then evolves by exp(t * B_m),
a 3*n_nodes matrix whose diagonal block for species i is

    -i * kappa_m * diag(v) / eps + lam_i * (M_i w^T - I),

lam_i = sigma_i / eps^(q_i+1), and the staggered symbol
kappa_m = (2/dx) * sin(pi*m/n), set to 0 at the Nyquist mode of an even n.
The interactions, the shared law at the ratios f_k/M_k over |V|, add
J_ik / (M_k |V|) (the identity times J_ik, since M is uniform) between the
blocks, with J the Jacobian of ModelParams.reactions at q; the bias adds
eps^(p-q1-1) * chi0 * c * i * kappa_m * v w^T in the rows of f1 and the
columns of f2. With chi0 = 0 and no reactions each species is on its own,
and kappa_m^2 is the three-point Laplacian's eigenvalue, so as eps -> 0 the
modes decay as macro._heat_symbol does on the same grid.

About q the macro system is linear too: mode m evolves by exp(t * A_m), with

    A_m = J - kappa_m^2 * diag(Dc, Ds, Du) + chi * c * kappa_m^2 * e_c e_s^T,

where kappa_m^2 = (4/dx^2) * sin^2(pi*m/n) at every mode, the three-point
symbol of both the diffusion and the linearized upwind drift. Mode 0 of
either tier is the ODE's exp(t * J).

Off equilibrium and without gradients, the kinetic model is pointwise, not
linear: f = f(t, v) obeys the 3*n_nodes ODE of relaxation plus the
interactions, which pointwise_kinetic integrates by RK4.
"""

import math

import numpy as np

from kinsir.velocity import interaction_terms

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


def propagators(grid, vgrid, eqs, eps, params, q, t, modes=None):
    """exp(t * B_m) of the kinetic model with ModelParams params linearized
    about q, for the rfft modes m (all of 0 .. n//2 by default), as a
    (modes, 3*n_nodes, 3*n_nodes) complex stack; the rows and columns
    i*n_nodes .. (i+1)*n_nodes - 1 are those of species i.

    The exponential is taken in the basis M_i, e_k - M_i w_k (k >= 1) of
    each species, where relaxation is exactly diag(0, -lam_i, ..., -lam_i):
    without reactions mode 0 is then diagonal, and keeps the mass w^T f to
    rounding however many squarings a stiff lam needs (in the node basis
    its error doubles with each one).
    """
    n, w, v = vgrid.n_nodes, vgrid.weights, vgrid.nodes
    basis, inverse = np.zeros((2, 3 * n, 3 * n))
    relax = np.zeros(3 * n)
    rates = zip(eqs, (params.sigma1, params.sigma2, params.sigma3),
                (params.q1, params.q2, params.q3))
    for i, (M, sigma, q_i) in enumerate(rates):
        block = slice(i * n, (i + 1) * n)
        basis[block, block] = np.eye(n) - np.outer(M, w)
        basis[block, i * n] = M
        inverse[block, block] = np.eye(n) - np.outer(M / M[0], np.eye(n)[0])
        inverse[i * n, block] = w
        relax[i * n + 1:(i + 1) * n] = -sigma / eps ** (q_i + 1)
    # B_m = relaxation + interactions - i * kappa_m * drift
    drift = np.diag(np.tile(v, 3) / eps)
    drift[:n, n:2 * n] = (-eps ** (params.p - params.q1 - 1) * params.chi0 * q[0]
                          * np.outer(v, w))
    react = (np.kron(reaction_jacobian(params, q), np.eye(n))
             / (vgrid.measure * eqs.reshape(-1)))
    kappa = mode_symbols(grid)[slice(None) if modes is None else modes]
    exponent = (np.diag(relax) + inverse @ react @ basis
                - 1j * np.multiply.outer(kappa, inverse @ drift @ basis))
    return basis @ expm(t * exponent) @ inverse


def pointwise_kinetic(f0, eqs, params, vgrid, eps, t, h):
    """f(t) of the kinetic model from the spatially constant f0, a (3, n_nodes)
    array: df_i/dt = lam_i * (M_i <f_i> - f_i) + interaction_terms(f), with
    lam_i = sigma_i / eps^(q_i+1), by RK4 at the largest step <= h that
    lands on t."""
    lam = np.array([[params.sigma1 / eps ** (params.q1 + 1)],
                    [params.sigma2 / eps ** (params.q2 + 1)],
                    [params.sigma3 / eps ** (params.q3 + 1)]])

    def rate(f):
        relaxation = lam * (eqs * (f @ vgrid.weights)[:, None] - f)
        return relaxation + interaction_terms(*f, eqs, params, vgrid)

    n_steps = math.ceil(t / h)
    dt = t / n_steps
    f = np.array(f0, dtype=float)
    for _ in range(n_steps):
        k1 = rate(f)
        k2 = rate(f + 0.5 * dt * k1)
        k3 = rate(f + 0.5 * dt * k2)
        k4 = rate(f + dt * k3)
        f = f + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    return f


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
