"""Two-mode Gaussian states, Gaussian channels, and entanglement measures.

Conventions used throughout the package:

* hbar = 1, so the vacuum quadrature variance is 1/2 and V_vac = I/2.
* Quadratures are ordered (x1, p1, x2, p2); two-mode covariance matrices
  therefore split into 2x2 blocks per mode.
* Squeezing in dB is 10*log10(e**(2r)), loss in dB is -10*log10(tau).

All functions are pure and operate on immutable values, so they are safe
to call concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CovMat2",
    "BalancedForm",
    "TwoModeChannel",
    "OneModeChannel",
    "SqueezeParam",
    "make_tms",
    "apply_two_mode",
    "apply_one_mode",
    "loss_channel",
    "min_sympl_eig_pt",
    "log_negativity",
    "physicality_check",
    "balanced_physicality_check",
    "squeeze_db_to_r",
    "squeeze_r_to_db",
    "R_MAX",
]


def _is_array(x) -> bool:
    """Whether x is a numpy array, 0-d included, without importing numpy.

    A numpy scalar such as np.float64 is no array: it takes a function's
    float path, as a float does.  No value is an array before numpy is
    imported, so a float never imports it.
    """
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)

_SYMMETRY_TOL = 1e-12
_PHYSICALITY_TOL = 1e-10
#: Largest finite float: a check written not (lo <= x <= _FINITE) fails
#: NaN and +-inf as well as x < lo.
_FINITE = sys.float_info.max

#: Largest squeezing parameter, about 869 dB.  Beyond it the excess forms
#: lose their terms to rounding: at the brubaker2022 caps the optimized
#: negativities fall to 0 from about r = 180, the EO-swap threshold from
#: r = 354, and past r = 355 they overflow.
R_MAX = 100.0


def squeeze_db_to_r(db: float) -> float:
    """Convert squeezing in dB to the dimensionless squeezing parameter."""
    return db * math.log(10.0) / 20.0


def squeeze_r_to_db(r: float) -> float:
    """Convert the dimensionless squeezing parameter to dB."""
    return 20.0 * r / math.log(10.0)


def _check_r(r) -> None:
    """The rule of SqueezeParam, 0 <= r <= R_MAX."""
    if not (0.0 <= r <= R_MAX):
        raise ValueError(f"squeezing parameter must be finite and >= 0, at most {R_MAX}, got {r}")


@dataclass(frozen=True)
class SqueezeParam:
    """Dimensionless two-mode squeezing parameter, 0 <= r <= R_MAX."""

    r: float

    def __post_init__(self):
        _check_r(self.r)

    @classmethod
    def from_db(cls, db: float) -> "SqueezeParam":
        return cls(squeeze_db_to_r(db))

    @property
    def db(self) -> float:
        return squeeze_r_to_db(self.r)


def _as_r(r) -> float:
    """Accept either a SqueezeParam or a bare float, checked as a SqueezeParam."""
    if isinstance(r, SqueezeParam):
        return r.r
    r = float(r)
    _check_r(r)
    return r


def _frozen_matrix(m, n: int, what: str, symmetric: bool = False) -> np.ndarray:
    """Read-only float copy of an n x n matrix of finite entries, symmetric if asked."""
    import numpy as np

    m = np.array(m, dtype=float)
    if m.shape != (n, n):
        raise ValueError(f"{what} must be {n}x{n}, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has a non-finite entry")
    if symmetric and np.max(np.abs(m - m.T)) > _SYMMETRY_TOL:
        raise ValueError(f"{what} is not symmetric within 1e-12")
    m.flags.writeable = False
    return m


class CovMat2:
    """4x4 real symmetric covariance matrix of a two-mode Gaussian state.

    Construction only enforces finite entries and symmetry; physicality
    (the uncertainty relation) is a separate check because unphysical
    matrices are useful as negative test inputs.
    """

    __slots__ = ("m",)

    def __init__(self, m):
        object.__setattr__(self, "m", _frozen_matrix(m, 4, "covariance matrix", symmetric=True))

    def __setattr__(self, name, value):
        raise AttributeError("CovMat2 is immutable")

    def __repr__(self):
        return f"CovMat2({self.m!r})"


class BalancedForm(NamedTuple):
    """(a, b, c) triple of a balanced-correlated two-mode state.

    The covariance matrix is a*I2 and b*I2 on the diagonal blocks and
    c*diag(1, -1) on the off-diagonal block.  Mode 1 carries variance ``a``.
    """

    a: float
    b: float
    c: float

    def to_cov(self) -> CovMat2:
        import numpy as np

        m = np.zeros((4, 4))
        m[0, 0] = m[1, 1] = self.a
        m[2, 2] = m[3, 3] = self.b
        m[0, 2] = m[2, 0] = self.c
        m[1, 3] = m[3, 1] = -self.c
        return CovMat2(m)

    @classmethod
    def from_cov(cls, v: CovMat2, tol: float = 1e-10) -> "BalancedForm":
        """Extract (a, b, c), requiring the matrix to be in balanced form.

        The returned fields are read directly from the matrix entries so a
        to_cov/from_cov round trip is exact.
        """
        m = v.m
        a, b, c = m[0, 0], m[2, 2], m[0, 2]
        scale = max(1.0, abs(a), abs(b), abs(c))
        if abs(m - cls(a, b, c).to_cov().m).max() > tol * scale:
            raise ValueError("covariance matrix is not balanced-correlated")
        return cls(a, b, c)


def _freeze_channel(ch, n: int) -> None:
    object.__setattr__(ch, "T", _frozen_matrix(ch.T, n, "channel matrix T"))
    object.__setattr__(ch, "N", _frozen_matrix(ch.N, n, "channel noise matrix N", symmetric=True))


@dataclass(frozen=True)
class TwoModeChannel:
    """Gaussian channel acting on covariance matrices as V -> T V T^t + N."""

    T: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        _freeze_channel(self, 4)


@dataclass(frozen=True)
class OneModeChannel:
    """Single-mode Gaussian channel, same convention at 2x2."""

    T: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        _freeze_channel(self, 2)


def make_tms(r) -> CovMat2:
    """Covariance matrix of a two-mode squeezed vacuum state.

    Diagonal blocks are cosh(2r)/2 * I2, off-diagonal
    sinh(2r)/2 * diag(1, -1).  r = 0 gives the vacuum, I/2.
    """
    rv = _as_r(r)
    ch = math.cosh(2.0 * rv) / 2.0
    sh = math.sinh(2.0 * rv) / 2.0
    return BalancedForm(ch, ch, sh).to_cov()


def apply_two_mode(ch: TwoModeChannel, v: CovMat2) -> CovMat2:
    """Apply a two-mode channel: T V T^t + N, re-symmetrized.

    The average with the transpose removes round-off asymmetry so long
    channel compositions stay exactly symmetric.
    """
    out = ch.T @ v.m @ ch.T.T + ch.N
    return CovMat2((out + out.T) / 2.0)


def apply_one_mode(ch: OneModeChannel, v: CovMat2, mode: int) -> CovMat2:
    """Apply a one-mode channel to mode 1 or 2 of a two-mode state.

    The channel is embedded as a direct sum with the identity on the
    untouched mode (and zero added noise there).
    """
    if mode not in (1, 2):
        raise ValueError(f"mode index must be 1 or 2, got {mode}")
    import numpy as np

    T = np.eye(4)
    N = np.zeros((4, 4))
    s = slice(0, 2) if mode == 1 else slice(2, 4)
    T[s, s] = ch.T
    N[s, s] = ch.N
    return apply_two_mode(TwoModeChannel(T, N), v)


def loss_channel(tau: float) -> OneModeChannel:
    """Pure-loss channel with transmissivity tau in [0, 1]."""
    if not (0.0 <= tau <= 1.0):
        raise ValueError(f"transmissivity must be in [0, 1], got {tau}")
    import numpy as np

    t = math.sqrt(tau)
    return OneModeChannel(t * np.eye(2), ((1.0 - tau) / 2.0) * np.eye(2))


def min_sympl_eig_pt(s: BalancedForm) -> float:
    """Minimum symplectic eigenvalue of the partially transposed state.

    For balanced-correlated states this is
    (a + b - sqrt((a - b)**2 + 4 c**2)) / 2; the state is entangled
    if and only if the result is below 1/2.
    """
    a, b, c = s
    return (a + b - math.sqrt((a - b) ** 2 + 4.0 * c * c)) / 2.0


def log_negativity(s: BalancedForm) -> float:
    """Logarithmic negativity max{0, -log2(2 nu)} of a balanced state.

    Works on the full variances (a, b, c) through min_sympl_eig_pt.  Next
    to a blue-pump instability the variances grow like 1e16 and nu
    cancels, down to a spurious 0 (a ValueError here); network states
    are read by network.mm_log_negativity, which keeps the exact sign.
    """
    nu = min_sympl_eig_pt(s)
    if not (nu > 0.0):  # NaN fails it too
        raise ValueError(
            f"partial-transpose eigenvalue {nu} is not > 0: state {s} is unphysical"
        )
    if nu >= 0.5:
        return 0.0
    return -math.log2(2.0 * nu)


def physicality_check(v: CovMat2, tol: float = _PHYSICALITY_TOL) -> bool:
    """Whether v satisfies the bosonic uncertainty relation.

    Checks that all eigenvalues of the Hermitian matrix v + (i/2) Omega
    are >= -tol, Omega the symplectic form of the (x1, p1, x2, p2) order.
    """
    import numpy as np

    omega = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    h = v.m + 0.5j * omega
    return bool(np.linalg.eigvalsh(h).min() >= -tol)


def balanced_physicality_check(s: BalancedForm, tol: float = _PHYSICALITY_TOL) -> bool:
    """Closed-form physicality test for balanced-correlated states.

    Equivalent to physicality_check on the expanded covariance matrix:
    both marginals at or above vacuum, positive definiteness, and the
    minimum symplectic eigenvalue at or above 1/2.
    """
    a, b, c = s
    if a < 0.5 - tol or b < 0.5 - tol:
        return False
    x = a * b - c * c
    if x <= 0.0:
        return False
    # nu_minus >= 1/2 with Delta = a^2 + b^2 - 2c^2 and det V = x^2 requires
    # Delta - 1/2 >= sqrt(Delta^2 - 4 x^2), i.e. both conditions below
    delta = a * a + b * b - 2.0 * c * c
    if delta < 0.5 - tol:
        return False
    return 4.0 * x * x + 0.25 >= delta - tol
