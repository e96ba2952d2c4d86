"""Velocity space: quadrature grid, equilibrium profiles, turning operators.

The kinetic tier posts each population on a bounded symmetric velocity set
V = [-vmax, vmax]. Velocity relaxation drives a distribution toward its own
zeroth moment times a fixed equilibrium profile M (uniform here), and every
macroscopic transport coefficient is a velocity moment:

    D   = (1/sigma) * int v (x) v M(v) dv          diffusion tensor
    chi = (1/sigma1) * int v (x) psi(v) dv          chemotactic sensitivity

with psi the net velocity bias produced by the gradient-sensing kernel
K(v, v*) = chi0 * v. All integrals are evaluated with the grid's quadrature
rule, never hard-coded, so the macro tier inherits exactly what the kinetic
tier integrates.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    ConsistencyError,
    OddNodeCountError,
    ResidualError,
    ValidationError,
)

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
    if vmax <= 0:
        raise ValidationError("vmax must be > 0")
    if not isinstance(n_nodes, int) or n_nodes % 2 != 0:
        raise OddNodeCountError("n_nodes must be an even integer")
    if n_nodes < 4:
        raise ValidationError("n_nodes must be >= 4")
    x, w = leggauss(n_nodes)
    nodes = vmax * 0.5 * (x - x[::-1])
    weights = vmax * 0.5 * (w + w[::-1])
    return VelocityGrid(float(vmax), nodes, weights)


@dataclass(frozen=True)
class EquilibriumDistribution:
    """Per-node equilibrium profile M of one species (1, 2 or 3).

    Positive everywhere, unit discrete mass sum_j w_j M_j = 1, zero net flux
    sum_j w_j v_j M_j = 0.
    """

    species: int
    values: np.ndarray


def uniform_equilibrium(grid, species):
    """The uniform profile M = 1/(2*vmax), normalized so the discrete mass
    is 1 to the last bit."""
    if species not in (1, 2, 3):
        raise ValidationError("species must be 1, 2 or 3")
    values = np.full(grid.n_nodes, 1.0 / grid.measure)
    values = values / grid.moment0(values)
    return EquilibriumDistribution(species, values)


def species_equilibria(grid):
    """Equilibrium profiles for all three species."""
    return tuple(uniform_equilibrium(grid, i) for i in (1, 2, 3))


def relaxation_apply(g, M, sigma, grid):
    """Relaxation turning operator L(g) = -sigma*(g - M*<g>).

    Accepts stacked inputs with node index last. The result has zero
    discrete mean: relaxation redistributes over velocity, it neither
    creates nor destroys particles.
    """
    mean = grid.moment0(g)
    return -sigma * (g - M.values * mean[..., None])


def relaxation_kernel(M, sigma, grid):
    """Dense kernel matrix T[j, k] = sigma * M_j (new velocity j, old k).

    The relaxation operator is the gain/loss form of this kernel; it
    satisfies detailed balance T[j,k]*M_k = T[k,j]*M_j exactly and meets the
    lower bound T >= sigma*M with equality.
    """
    n = grid.n_nodes
    return np.broadcast_to(sigma * M.values[:, None], (n, n)).copy()


def turning_apply(kernel, g, grid):
    """Gain/loss application of a general turning kernel:

        (T g)_j = sum_k w_k kernel[j,k] g_k  -  (sum_k w_k kernel[k,j]) g_j
    """
    gain = kernel @ (grid.weights * g)
    loss = (grid.weights @ kernel) * g
    return gain - loss


def invert_relaxation(f, M, sigma, grid):
    """Solve L(g) = f for the unique g with <g> = 0.

    Solvable only when <f> = 0 (the operator range); the solution is
    g = -f/sigma. The residual is verified before returning.
    """
    scale = max(1.0, float(np.max(np.abs(f))))
    if abs(grid.moment0(f)) > RESIDUAL_RTOL * scale:
        raise ValidationError("relaxation inverse needs a zero-mean right side")
    g = -f / sigma
    residual = np.max(np.abs(relaxation_apply(g, M, sigma, grid) - f))
    if residual > RESIDUAL_RTOL * scale:
        raise ResidualError(f"relaxation inverse residual {residual:.3e}")
    return g


def solve_theta(M, sigma, grid):
    """Solve L(theta) = v*M for the zero-mean theta = -v*M/sigma.

    theta carries the first-moment response of the relaxation operator; the
    diffusion tensor is -sum_j w_j v_j theta_j. Both checks are relative to
    the size of theta, which grows like 1/sigma.
    """
    theta = -grid.nodes * M.values / sigma
    size = np.abs(theta).max()
    residual = np.abs(relaxation_apply(theta, M, sigma, grid) - grid.nodes * M.values).max()
    if residual > RESIDUAL_RTOL * sigma * size:
        raise ResidualError(f"theta residual {residual:.3e}")
    if abs(grid.moment0(theta)) > RESIDUAL_RTOL * grid.measure * size:
        raise ResidualError("theta is not mean-free")
    return theta


def diffusion_tensor(M, sigma, grid):
    """D = (1/sigma) * sum_j w_j v_j (x) v_j M_j, as a 1 x 1 matrix."""
    value = grid.moment0(grid.nodes**2 * M.values) / sigma
    return np.array([[value]])


def diffusion_tensor_from_theta(theta, grid):
    """Same tensor via the theta route, D = -sum_j w_j v_j (x) theta_j."""
    value = -grid.moment1(theta)
    return np.array([[value]])


def perturbation_apply(f1, grad_s, chi0, grid):
    """Gradient-bias turning operator acting on the healthy-cell population.

    With kernel K(v, v*) = chi0 * v, the gain/loss quadrature is

        (T1 f1)(v) = chi0*(v . grad_s)*<f1> - chi0*(sum_k w_k v_k) grad_s f1(v).

    The loss coefficient sum_k w_k v_k vanishes on a symmetric grid, but both
    terms are kept so mass conservation holds structurally rather than by
    cancellation of an omitted term. Accepts stacked f1 with node index last
    and grad_s broadcasting against the leading axes.
    """
    mean = grid.moment0(f1)
    grad = np.asarray(grad_s)
    gain = chi0 * (grad * mean)[..., None] * grid.nodes
    loss = chi0 * grid.moment1(np.ones(grid.n_nodes)) * grad[..., None] * f1
    return gain - loss


def psi_profile(M2, chi0, grid):
    """Net velocity bias psi(v) produced by a unit infected-cell gradient:

        psi(v) = chi0*v*<M2> - chi0*(sum_k w_k v_k)*M2(v)  ( = chi0*v here).
    """
    return chi0 * grid.nodes * grid.moment0(M2.values) - chi0 * grid.moment1(
        np.ones(grid.n_nodes)
    ) * M2.values


def chemotactic_sensitivity(grid, params):
    """chi = (1/sigma1) * sum_j w_j v_j (x) psi(v_j), as a 1 x 1 matrix.

    For the linear kernel this reduces to 2*chi0*vmax^3/(3*sigma1).
    """
    psi = psi_profile(uniform_equilibrium(grid, 2), params.chi0, grid)
    value = grid.moment1(psi) / params.sigma1
    return np.array([[value]])


def alpha_direct(s_gradient, u_value, grid, eqs, params):
    """Macroscopic drift velocity alpha(s, u) evaluated from the kinetic side:

        alpha = (1/sigma1) * sum_j w_j v_j (T1 M1)(v_j)

    with the perturbation operator applied to the healthy-cell equilibrium.
    u_value is accepted because a gradient-sensing kernel may in general
    depend on the virus density; the implemented kernel does not, so alpha
    must agree with chi * s_gradient, and a ConsistencyError flags any
    disagreement between the two routes beyond the relative tolerance
    CONSISTENCY_RTOL.
    """
    M1 = eqs[0]
    applied = perturbation_apply(M1.values, s_gradient, params.chi0, grid)
    alpha = np.atleast_1d(grid.moment1(applied) / params.sigma1)
    expected = chemotactic_sensitivity(grid, params) @ np.atleast_1d(s_gradient)
    if _disagree(alpha[0], expected[0], CONSISTENCY_RTOL):
        raise ConsistencyError(
            "drift velocity disagrees with chi * grad_s beyond tolerance"
        )
    return alpha


def _disagree(a, b, rtol):
    """True when scalars a and b differ by more than rtol times the larger."""
    return abs(a - b) > rtol * max(abs(a), abs(b))


def interaction_terms(f1, f2, f3, eqs, params, grid):
    """Kinetic gain/loss terms of the virus dynamics, per velocity node.

    Ratios rho_i = f_i/M_i play the role of local densities:

        G1 = (-d1*rho1 - beta*rho1*rho3 + r) / |V|
        G2 = (-d2*rho2 + beta*rho1*rho3) / |V|
        G3 = (-d3*rho3 + k*rho2) / |V|

    Integrating over V at a local equilibrium f_i = M_i*(c, s, u) reproduces
    the ODE right-hand side at (c, s, u) exactly.
    """
    M1, M2, M3 = (eq.values for eq in eqs)
    rho1, rho2, rho3 = f1 / M1, f2 / M2, f3 / M3
    measure = grid.measure
    infection = params.beta * rho1 * rho3
    g1 = (-params.d1 * rho1 - infection + params.r) / measure
    g2 = (-params.d2 * rho2 + infection) / measure
    g3 = (-params.d3 * rho3 + params.k * rho2) / measure
    return g1, g2, g3


@dataclass(frozen=True)
class TransportCoefficients:
    """Everything the macro tier needs, produced by velocity quadrature."""

    Dc: np.ndarray
    Ds: np.ndarray
    Du: np.ndarray
    chi: np.ndarray


def transport_coefficients(params, grid):
    """Assemble the diffusion tensors and the chemotactic sensitivity.

    Each diffusion tensor is computed directly and again via theta, and chi
    is checked against the drift velocity alpha of a unit gradient; a
    ConsistencyError flags two routes that differ beyond the relative
    tolerance CONSISTENCY_RTOL.
    """
    eqs = species_equilibria(grid)
    sigmas = (params.sigma1, params.sigma2, params.sigma3)
    tensors = []
    for eq, sigma in zip(eqs, sigmas):
        direct = diffusion_tensor(eq, sigma, grid)
        via_theta = diffusion_tensor_from_theta(solve_theta(eq, sigma, grid), grid)
        if _disagree(direct[0, 0], via_theta[0, 0], CONSISTENCY_RTOL):
            raise ConsistencyError(
                f"diffusion tensor of species {eq.species}: direct "
                f"{direct[0, 0]:.17g} but via theta {via_theta[0, 0]:.17g}"
            )
        tensors.append(direct)
    alpha_direct(1.0, 0.0, grid, eqs, params)
    return TransportCoefficients(*tensors, chemotactic_sensitivity(grid, params))
