"""Exception types raised across the package."""


class GGFlowError(Exception):
    """Base class for all ggflow errors."""


class NonPositivePi(GGFlowError):
    """Invariant measure has a nonpositive entry."""


class NegativeRate(GGFlowError):
    """Jump-rate matrix has a negative entry."""


class DetailedBalanceViolation(GGFlowError):
    """pi[i]*kappa[i,j] != pi[j]*kappa[j,i] beyond tolerance."""

    def __init__(self, i, j, theta_ij, theta_ji, rel):
        self.edge = (i, j)
        self.theta_ij = theta_ij
        self.theta_ji = theta_ji
        self.rel = rel
        super().__init__(
            f"detailed balance violated on edge ({i},{j}): "
            f"pi_i*k_ij={theta_ij:.6g}, pi_j*k_ji={theta_ji:.6g} "
            f"(relative asymmetry {rel:.3g})"
        )


class GridMismatch(GGFlowError):
    """Time grids of states and fluxes are not aligned."""


class InvalidDistribution(GGFlowError):
    """Initial weights are not n finite nonnegative numbers with a positive sum."""


class UnsupportedParameter(GGFlowError):
    """Parameter outside the admissible range of a family."""


class NonConcaveAlpha(GGFlowError):
    """Sampled concavity check failed for a user-supplied weight function."""


class ContinuityEquationViolated(GGFlowError):
    """A curve/flux pair fails the continuity-equation residual check."""


class StepSizeUnderflow(GGFlowError):
    """Adaptive integrator cannot proceed without violating positivity."""

    def __init__(self, t, state, h):
        self.t = t
        self.state = state
        self.h = h
        super().__init__(f"step size underflow at t={t:.6g} (h={h:.3g}); state={state}")


class NonFiniteField(GGFlowError):
    """Evolution field evaluated to a non-finite value."""


class Infeasible(GGFlowError):
    """Transport problem has no admissible curve (mass mismatch)."""


class SingularLaplacian(GGFlowError):
    """Graph Laplacian system unsolvable (disconnected graph)."""

    def __init__(self, components, msg=None):
        self.components = components
        super().__init__(
            msg or f"graph is disconnected; components: {components}"
        )


class Disconnected(GGFlowError):
    """Operation requires a connected graph."""


class SolverStalled(GGFlowError):
    """Inner convex solver failed to reach the requested tolerance."""
