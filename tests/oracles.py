"""Reference routes that only the tests call: the graph Laplacian on one
vector, the conductance Dirichlet form, the closed-form eigenpairs of the
unit path, and the extension profile by quadrature of its kernel integral."""

from functools import lru_cache

import numpy as np

from fraclap.errors import InvalidParams
from fraclap.quadrature import integrate_halfline
from fraclap.spectral import _check_vector, _laplacian, _stiffness_apply, check_theta


def laplacian_apply(space, f) -> np.ndarray:
    """Delta f(x) = mu(x)^{-1} sum_y c(x,y) (f(y) - f(x)) for a vector f."""
    return _laplacian(space, _check_vector(space, f))


def dirichlet_form(space, f, g) -> float:
    """E(f, g) = 1/2 sum_{x,y} c(x,y)(f(x)-f(y))(g(x)-g(y))."""
    f = _check_vector(space, f)
    g = _check_vector(space, g)
    return float(f @ _stiffness_apply(space, g))


def path_modes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues 2 - 2 cos(pi k / n) = 4 sin^2(pi k / (2 n)), k = 0..n-1
    (the sine form has no cancellation at small k), and orthonormal
    eigenvectors cos(pi k (x + 1/2) / n), normalized, of -Delta on the unit
    path of n points (`fixture("path", n=n)`), with no eigensolver.  grid2d
    nx x ny is the Kronecker product of the nx and ny paths: its eigenvalues
    are the sums of theirs, and its heat kernel the Kronecker product of
    theirs.  The cosine's argument is reduced in integers first, so it
    carries no rounding of pi k (2 x + 1) / (2 n) at large k x."""
    k = np.arange(n)
    angle = np.outer(2 * k + 1, k) % (4 * n)  # pi k (2x + 1) / (2n) in units of pi / (2n)
    basis = np.cos(np.pi / (2 * n) * angle) * np.sqrt(2.0 / n)
    basis[:, 0] = np.sqrt(1.0 / n)
    return 4.0 * np.sin(np.pi / (2 * n) * k) ** 2, basis


@lru_cache(maxsize=None)
def profile_normalization_quadrature(a: float) -> float:
    """1/C_a = integral over (0, inf) of tau^((a-3)/2) exp(-1/(4 tau)) dtau by
    adaptive quadrature (closed form: 4^theta Gamma(theta))."""
    return integrate_halfline(lambda tau: tau ** ((a - 3.0) / 2.0) * np.exp(-1.0 / (4.0 * tau)))


def mode_profile_quadrature(lam: float, theta: float, y: float) -> float:
    """Profile by adaptive quadrature of the kernel integral, rescaled by
    s = y^2 sigma so the integrand keeps unit scale:

        g_lam(y) = C_a * integral sigma^((a-3)/2) e^{-1/(4 sigma)}
                                  e^{-lam y^2 sigma} d sigma.

    Independent oracle for `fraclap.mode_profile`; accurate while lam y^2 is
    not many orders below one.
    """
    check_theta(theta)
    if lam < 0 or y < 0:
        raise InvalidParams("mode_profile needs lam >= 0 and y >= 0")
    if y == 0.0 or lam == 0.0:
        return 1.0
    a = 1.0 - 2.0 * theta
    c = lam * y * y
    val = integrate_halfline(lambda s: s ** ((a - 3.0) / 2.0) * np.exp(-1.0 / (4.0 * s) - c * s))
    return val / profile_normalization_quadrature(a)
