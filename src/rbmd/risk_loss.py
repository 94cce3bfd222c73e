"""Convex loss functions whose expected minimum recovers each supported risk measure.

Every measure in scope admits the representation

    g(rho(Z)) = min_xi E[L(xi, Z)]

with expected shortfall using the tail-average loss (g = identity) and the
two-sided (a, b, p) deviation family using a power loss (g(x) = x**p).  The
deviation family covers volatility (a=b=1, p=2), mean absolute deviation
around the median (a=b=1, p=1) and square-root variantiles
(a=sqrt(alpha), b=sqrt(1-alpha), p=2).
"""

import math
from dataclasses import dataclass

EXPECTED_SHORTFALL = "es"
DEVIATION = "deviation"

_KINDS = (EXPECTED_SHORTFALL, DEVIATION)
_SUPPORTED_POWERS = (1, 2)


@dataclass(frozen=True)
class MeasureSpec:
    """Which risk measure to use, together with its parameters.

    ``alpha`` is only meaningful for expected shortfall; ``a_plus``,
    ``b_minus`` and ``p_power`` only for the deviation family.
    """

    kind: str
    alpha: float = 0.95
    a_plus: float = 1.0
    b_minus: float = 1.0
    p_power: int = 2

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind == EXPECTED_SHORTFALL:
            if not (0.0 < self.alpha < 1.0):
                raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        else:
            if not (self.a_plus > 0.0 and self.b_minus > 0.0):
                raise ValueError("deviation weights a, b must be positive")
            if self.p_power not in _SUPPORTED_POWERS:
                # General real p >= 1 is a documented extension point.
                raise ValueError(f"p must be one of {_SUPPORTED_POWERS}, got {self.p_power}")

    @classmethod
    def expected_shortfall(cls, alpha: float = 0.95) -> "MeasureSpec":
        return cls(kind=EXPECTED_SHORTFALL, alpha=alpha)

    @classmethod
    def deviation(cls, a: float, b: float, p: int) -> "MeasureSpec":
        return cls(kind=DEVIATION, a_plus=a, b_minus=b, p_power=p)

    @classmethod
    def volatility(cls) -> "MeasureSpec":
        return cls.deviation(1.0, 1.0, 2)

    @classmethod
    def mad(cls) -> "MeasureSpec":
        return cls.deviation(1.0, 1.0, 1)

    @classmethod
    def variantile(cls, alpha: float) -> "MeasureSpec":
        if not (0.0 < alpha < 1.0):
            raise ValueError(f"variantile level must lie in (0, 1), got {alpha}")
        return cls.deviation(math.sqrt(alpha), math.sqrt(1.0 - alpha), 2)

    @property
    def is_es(self) -> bool:
        return self.kind == EXPECTED_SHORTFALL

    @property
    def xi_rule(self) -> tuple[float, bool]:
        """(level, expectile) of the minimizing xi of E[L(xi, Z)], from its
        first-order condition: the alpha quantile (VaR) for expected
        shortfall, the a/(a+b) quantile for p = 1 (Koenker and Bassett 1978)
        and the a^2/(a^2+b^2) expectile for p = 2 (Newey and Powell 1987)."""
        a, b = self.a_plus, self.b_minus
        if self.is_es or self.p_power == 1:
            return (self.alpha if self.is_es else a / (a + b)), False
        return a * a / (a * a + b * b), True


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"non-finite input {v!r}")


def loss_value(spec: MeasureSpec, xi: float, z: float) -> float:
    """L(xi, z) for the given measure.

    ES: xi + (z - xi)_+ / (1 - alpha).  Deviation: expanded two-branch form
    a^p (z - xi)_+^p + b^p (z - xi)_-^p (the branches never overlap).
    """
    _require_finite(xi, z)
    if spec.is_es:
        return xi + max(z - xi, 0.0) / (1.0 - spec.alpha)
    p = spec.p_power
    up = max(z - xi, 0.0)
    down = max(xi - z, 0.0)
    return spec.a_plus ** p * up ** p + spec.b_minus ** p * down ** p


def loss_grad_xi(spec: MeasureSpec, xi: float, z: float) -> float:
    """Partial derivative of L in xi.

    At the p=1 kink the deviation branch uses the one-sided conventions
    (z - xi)_+^0 = 1{z >= xi} and (z - xi)_-^0 = 1{z <= xi}; the ES
    indicator is strict at z = xi.
    """
    _require_finite(xi, z)
    if spec.is_es:
        ind = 1.0 if z > xi else 0.0
        return 1.0 - ind / (1.0 - spec.alpha)
    p = spec.p_power
    if p == 1:
        up = 1.0 if z >= xi else 0.0
        down = 1.0 if z <= xi else 0.0
    else:
        up = max(z - xi, 0.0) ** (p - 1)
        down = max(xi - z, 0.0) ** (p - 1)
    return p * (-(spec.a_plus ** p) * up + spec.b_minus ** p * down)


def loss_grad_z(spec: MeasureSpec, xi: float, z: float) -> float:
    """Partial derivative of L in z; for deviations this is -loss_grad_xi exactly."""
    _require_finite(xi, z)
    if spec.is_es:
        ind = 1.0 if z > xi else 0.0
        return ind / (1.0 - spec.alpha)
    return -loss_grad_xi(spec, xi, z)


def make_gradient_fn(spec: MeasureSpec):
    """Fused (loss_grad_xi, loss_grad_z) evaluator for stochastic inner loops.

    Returns a callable (xi, z) -> (dL/dxi, dL/dz) that matches the module
    functions exactly while skipping per-call dispatch and validation.
    """
    if spec.is_es:
        inv = 1.0 / (1.0 - spec.alpha)

        def grads(xi: float, z: float):
            if z > xi:
                return 1.0 - inv, inv
            return 1.0, 0.0

        return grads
    p = spec.p_power
    ap = spec.a_plus ** p
    bp = spec.b_minus ** p
    if p == 1:

        def grads(xi: float, z: float):
            if z > xi:
                g = -ap
            elif z < xi:
                g = bp
            else:
                g = bp - ap
            return g, -g

        return grads

    def grads(xi: float, z: float):
        diff = z - xi
        g = -2.0 * (ap if diff > 0.0 else bp) * diff
        return g, -g

    return grads


def rho_from_expected_loss(spec: MeasureSpec, v: float) -> float:
    """Invert the outer function g: v**(1/p) for deviations, identity for ES."""
    _require_finite(v)
    if spec.is_es:
        return v
    if v < 0.0:
        raise ValueError(f"expected loss must be nonnegative for deviations, got {v}")
    if spec.p_power == 1:
        return v
    return v ** (1.0 / spec.p_power)
