"""Velocity space: quadrature grid, equilibrium profiles, turning operators.

The kinetic tier posts each population on a bounded symmetric velocity set
V = [-vmax, vmax]. Velocity relaxation drives a distribution toward its own
zeroth moment times a fixed equilibrium profile M (uniform here), and every
macroscopic transport coefficient is a velocity moment:

    D   = (1/sigma) * int v^2 M(v) dv        diffusivity
    chi = (1/sigma1) * int v psi(v) dv        chemotactic sensitivity

with psi the net velocity bias produced by the gradient-sensing kernel
K(v, v*) = chi0 * v. All integrals are evaluated with the grid's quadrature
rule, never hard-coded, so the macro tier inherits exactly what the kinetic
tier integrates.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConsistencyError, OddNodeCountError, ResidualError, ValidationError
from .grids import check_bounded

# relative tolerance within which two routes to one coefficient must agree
CONSISTENCY_RTOL = 1e-12
# relative residual allowed when a relaxation equation is solved
RESIDUAL_RTOL = 1e-12


@dataclass(frozen=True)
class VelocityGrid:
    """Quadrature nodes and weights on V = [-vmax, vmax].

    Nodes come in exact +/-v pairs with equal weights, all weights are
    positive, the weights sum to 2*vmax, and polynomial moments are exact
    well past degree 4 (Gauss-Legendre).
    """

    vmax: float
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def measure(self):
        """|V| = 2*vmax."""
        return 2.0 * self.vmax

    def moment0(self, g):
        """Zeroth velocity moment <g> = sum_j w_j g_j (over the last axis)."""
        return g @ self.weights

    def moment1(self, g):
        """First velocity moment sum_j w_j v_j g_j (over the last axis)."""
        return g @ (self.weights * self.nodes)


def build_velocity_grid(vmax, n_nodes):
    """Gauss-Legendre rule with n_nodes points on [-vmax, vmax].

    n_nodes must be even (keeps the +/-v pairing and excludes a v = 0 node)
    and at least 4. Nodes and weights are symmetrized so the pairing is exact
    in floating point.
    """
    check_bounded("vmax", (vmax,), 0, strict=True)
    if not isinstance(n_nodes, int) or n_nodes % 2 != 0:
        raise OddNodeCountError("n_nodes must be an even integer")
    if n_nodes < 4:
        raise ValidationError("n_nodes must be >= 4")
    x, w = leggauss(n_nodes)
    nodes = vmax * 0.5 * (x - x[::-1])
    weights = vmax * 0.5 * (w + w[::-1])
    return VelocityGrid(float(vmax), nodes, weights)


def uniform_equilibrium(grid):
    """The uniform velocity profile M = 1/(2*vmax) as an (n_nodes,) array:
    positive, with zero net flux sum_j w_j v_j M_j = 0, and normalized so
    the discrete mass sum_j w_j M_j is 1 to rounding: not to the last bit,
    but within 2.5 * 2^-52 (1 + 2^-52 at vmax 1 and 8 nodes)."""
    values = np.full(grid.n_nodes, 1.0 / grid.measure)
    return values / grid.moment0(values)


def species_equilibria(grid):
    """The equilibrium profiles M1, M2, M3 as the rows of a (3, n_nodes)
    array."""
    return np.stack([uniform_equilibrium(grid)] * 3)


def relaxation_apply(g, M, sigma, grid):
    """Relaxation turning operator L(g) = -sigma*(g - M*<g>).

    Accepts stacked inputs with node index last. The result has zero
    discrete mean: relaxation redistributes over velocity, it neither
    creates nor destroys particles.
    """
    mean = grid.moment0(g)
    return -sigma * (g - M * mean[..., None])


def relaxation_kernel(M, sigma, grid):
    """Dense kernel matrix T[j, k] = sigma * M_j (new velocity j, old k).

    The relaxation operator is the gain/loss form of this kernel; it
    satisfies detailed balance T[j,k]*M_k = T[k,j]*M_j exactly and meets the
    lower bound T >= sigma*M with equality.
    """
    n = grid.n_nodes
    return np.broadcast_to(sigma * M[:, None], (n, n)).copy()


def invert_relaxation(f, M, sigma, grid):
    """Solve L(g) = f for the unique g with <g> = 0.

    Solvable only when <f> = 0 (the operator range); the solution is
    g = -f/sigma. Both checks are relative to max|f|: the mean against
    RESIDUAL_RTOL*|V|*max|f|, the residual against RESIDUAL_RTOL*max|f|.
    """
    size = np.abs(f).max()
    if abs(grid.moment0(f)) > RESIDUAL_RTOL * grid.measure * size:
        raise ValidationError("relaxation inverse needs a zero-mean right side")
    g = -f / sigma
    residual = np.abs(relaxation_apply(g, M, sigma, grid) - f).max()
    if residual > RESIDUAL_RTOL * size:
        raise ResidualError(f"relaxation inverse residual {residual:.3e}")
    return g


def solve_theta(M, sigma, grid):
    """theta = L^-1(v*M) = -v*M/sigma, the first-moment response of the
    relaxation operator; the diffusivity is -sum_j w_j v_j theta_j."""
    return invert_relaxation(grid.nodes * M, M, sigma, grid)


def diffusion_tensor(M, sigma, grid):
    """D = (1/sigma) * sum_j w_j v_j^2 M_j, a float in one dimension."""
    return float(grid.moment0(grid.nodes**2 * M) / sigma)


def diffusion_tensor_from_theta(theta, grid):
    """The same D via the theta route, D = -sum_j w_j v_j theta_j."""
    return float(-grid.moment1(theta))


def perturbation_apply(f1, grad_s, chi0, grid):
    """Gradient-bias turning operator acting on the healthy-cell population.

    With kernel K(v, v*) = chi0 * v, the gain/loss quadrature is

        (T1 f1)(v) = chi0*(v . grad_s)*<f1> - chi0*(sum_k w_k v_k) grad_s f1(v).

    The loss coefficient sum_k w_k v_k vanishes on a symmetric grid, but both
    terms are kept so mass conservation holds structurally rather than by
    cancellation of an omitted term. Accepts stacked f1 with node index last
    and grad_s broadcasting against the leading axes.
    """
    grad = np.asarray(grad_s)
    return ((chi0 * (grad * grid.moment0(f1)))[..., None] * grid.nodes
            - (bias_loss_rate(chi0, grid) * grad)[..., None] * f1)


def bias_loss_rate(chi0, grid):
    """The loss coefficient chi0 * sum_k w_k v_k of the bias operator."""
    return chi0 * grid.moment1(np.ones(grid.n_nodes))


def psi_profile(M2, chi0, grid):
    """Net velocity bias psi(v) produced by a unit infected-cell gradient:

        psi(v) = chi0*v*<M2> - chi0*(sum_k w_k v_k)*M2(v)  ( = chi0*v here).
    """
    return chi0 * grid.nodes * grid.moment0(M2) - bias_loss_rate(chi0, grid) * M2


def chemotactic_sensitivity(grid, params):
    """chi = (1/sigma1) * sum_j w_j v_j psi(v_j), a float in one dimension.

    For the linear kernel this reduces to 2*chi0*vmax^3/(3*sigma1).
    """
    psi = psi_profile(uniform_equilibrium(grid), params.chi0, grid)
    return float(grid.moment1(psi) / params.sigma1)


def alpha_direct(s_gradient, grid, eqs, params):
    """Macroscopic drift velocity alpha evaluated from the kinetic side:

        alpha = (1/sigma1) * sum_j w_j v_j (T1 M1)(v_j)

    with the perturbation operator applied to the healthy-cell equilibrium.
    alpha must agree with chi * s_gradient; a ConsistencyError flags any
    disagreement between the two routes beyond the relative tolerance
    CONSISTENCY_RTOL.
    """
    applied = perturbation_apply(eqs[0], s_gradient, params.chi0, grid)
    alpha = float(grid.moment1(applied) / params.sigma1)
    if not math.isclose(alpha, chemotactic_sensitivity(grid, params) * s_gradient,
                        rel_tol=CONSISTENCY_RTOL):
        raise ConsistencyError(
            "drift velocity disagrees with chi * grad_s beyond tolerance"
        )
    return alpha


def interaction_terms(f1, f2, f3, eqs, params, grid):
    """Kinetic gain/loss terms of the virus dynamics, per velocity node:
    the shared law ModelParams.reactions at the ratios rho_i = f_i/M_i,
    which play the role of local densities, each divided by |V|; one array
    with the three terms as its rows.

    Integrating over V at a local equilibrium f_i = M_i*(c, s, u) reproduces
    the ODE right-hand side at (c, s, u) exactly.
    """
    ratios = [f / M for f, M in zip((f1, f2, f3), eqs)]
    return np.stack(params.reactions(*ratios)) / grid.measure


@dataclass(frozen=True)
class MacroCoefficients:
    """Scalar transport coefficients (1D) plus the reaction parameters."""

    Dc: float
    Ds: float
    Du: float
    chi: float
    params: object

    def __post_init__(self):
        check_bounded(("Dc", "Ds", "Du"), (self.Dc, self.Ds, self.Du), 0)
        check_bounded("chi", (abs(self.chi),), 0)  # chi may take either sign

    @property
    def max_diffusivity(self):
        return max(self.Dc, self.Ds, self.Du)


def transport_coefficients(params, grid):
    """The diffusivities and the chemotactic sensitivity, as MacroCoefficients.

    Each diffusivity is computed directly and again via theta, and chi is
    checked against the drift velocity alpha of a unit gradient; a
    ConsistencyError flags two routes that differ beyond the relative
    tolerance CONSISTENCY_RTOL.
    """
    eqs = species_equilibria(grid)
    sigmas = (params.sigma1, params.sigma2, params.sigma3)
    diffusivities = []
    for species, (M, sigma) in enumerate(zip(eqs, sigmas), start=1):
        direct = diffusion_tensor(M, sigma, grid)
        via_theta = diffusion_tensor_from_theta(solve_theta(M, sigma, grid), grid)
        if not math.isclose(direct, via_theta, rel_tol=CONSISTENCY_RTOL):
            raise ConsistencyError(
                f"diffusivity of species {species}: direct "
                f"{direct:.17g} but via theta {via_theta:.17g}"
            )
        diffusivities.append(direct)
    alpha_direct(1.0, grid, eqs, params)
    return MacroCoefficients(*diffusivities, chemotactic_sensitivity(grid, params),
                             params)
