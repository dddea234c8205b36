"""Expansion coefficients of shifted polynomials in the two natural bases.

Four index families cover the combinations target/basis, where the target
is z^n * phi_r or z^n * phi_r^* and the basis is {phi_s} or {phi_s^*}:

  moment          phi    in phi   -- handled by the path/matrix modules
  star_to_phi     phi^*  in phi   -- polynomial in the symbols, no divisions
  phi_to_star     phi    in phi^* -- carries 1/ab_s and 1/ab_{s-1} factors
  star_to_star    phi^*  in phi^* -- same denominators via star_to_phi

The starred-basis families exist only when the relevant alpha's are
nonzero; every such division is guarded by ZeroVerblunsky.  Each closed
form has a lattice-path companion (suffix ``_paths``) used to cross-check
it over a different computation route.
"""

from .algebra import LaurentPoly, zero_of
from .core import normalized_pairing, phi
from .errors import ZeroVerblunsky
from .matrices import ScalarMatrix
from .paths import (UP, moment_lukasiewicz, moment_negative,
                    schroder_weight_sum, weighted_paths)

PHI_BASIS = "phi"
PHI_STAR_BASIS = "phi_star"


def reconstruct(vs, basis, coeffs):
    """Sum of coeffs[s] times phi_s, or times phi_s^* for the starred basis;
    an expansion's coefficients must give back its target."""
    if basis not in (PHI_BASIS, PHI_STAR_BASIS):
        raise ValueError("unknown basis tag %r" % (basis,))
    total = LaurentPoly({}, vs.mode)
    for s, c in enumerate(coeffs):
        base = phi(vs, s)
        poly = base.phi if basis == PHI_BASIS else base.phi_star
        total = total + poly.scale(c)
    return total


def expand_in_phi_basis(vs, f):
    """Coefficients of a polynomial against the monic family {phi_s}.

    Back-substitution from the top degree down; exact and always
    well-posed because each phi_s is monic of degree s.
    """
    if f.is_zero:
        return []
    if f.valuation() < 0:
        raise ValueError("target has negative powers; not a polynomial")
    deg = f.degree()
    coeffs = [zero_of(vs.mode)] * (deg + 1)
    residual = f
    for s in range(deg, -1, -1):
        c = residual.coeff(s)
        coeffs[s] = c
        if c:
            residual = residual - phi(vs, s).phi.scale(c)
    if not residual.is_zero:
        raise AssertionError("triangular solve left a nonzero residual")
    return coeffs


def expand_in_phistar_basis(vs, f, bound):
    """Coefficients of a polynomial against {phi_s^*} for s <= bound.

    phi_s^* has constant term 1 and top coefficient -alpha_{s-1}, so the
    system is triangular from the top only while those top coefficients
    survive; a vanishing alpha breaks uniqueness and raises.
    """
    if not f.is_zero and f.valuation() < 0:
        raise ValueError("target has negative powers; not a polynomial")
    if not f.is_zero and f.degree() > bound:
        raise ValueError("degree exceeds the expansion bound")
    for i in range(bound):
        _require_nonzero(vs, i)
    coeffs = [zero_of(vs.mode)] * (bound + 1)
    residual = f
    for s in range(bound, 0, -1):
        top = residual.coeff(s)
        c = top / -vs.alpha(s - 1)
        coeffs[s] = c
        if c:
            residual = residual - phi(vs, s).phi_star.scale(c)
    coeffs[0] = residual.coeff(0)
    if not (residual - phi(vs, 0).phi_star.scale(coeffs[0])).is_zero:
        raise AssertionError("starred solve left a nonzero residual")
    return coeffs


def star_to_phi_coeff(vs, n, r, s):
    """Coefficient of phi_s in z^n phi_r^*, conjugated.

    Computed by peeling one reversal level at a time:
        value(r+1) = value(r) - ab_r * moment(n+1, r, s).
    Division-free, hence defined for every sequence.
    """
    if min(n, r, s) < 0:
        raise ValueError("indices must be nonnegative")
    val = moment_lukasiewicz(vs, n, 0, s)
    for k in range(r):
        val = val - vs.alpha_bar(k) * moment_lukasiewicz(vs, n + 1, k, s)
    return val


def star_to_phi_coeff_negative(vs, n, r, s):
    """Pairing <phi_s, z^(-n) phi_r^*> / kappa_s for n >= 1.

    The same peeling recurrence, driven by the mirrored-model moments;
    z^(-n) phi_r^* is not a polynomial, so this is a pairing value rather
    than a basis coefficient, but it needs no nonzero-alpha hypothesis.
    """
    if n < 1:
        raise ValueError("n must be >= 1; use star_to_phi_coeff for n >= 0")
    if min(r, s) < 0:
        raise ValueError("indices must be nonnegative")
    val = moment_negative(vs, n, 0, s)
    for k in range(r):
        if n > 1:
            term = moment_negative(vs, n - 1, k, s)
        else:
            term = vs.one() if k == s else vs.zero()
        val = val - vs.alpha_bar(k) * term
    return val


def _require_nonzero(vs, j):
    # ab_{-1} = -1 by convention, so only j >= 0 can vanish
    if j >= 0 and not vs.alpha(j):
        raise ZeroVerblunsky(j)


def phi_to_star_coeff(vs, n, r, s):
    """Coefficient of phi_s^* in z^n phi_r, conjugated.

    Two-moment combination
        rho_s * moment(n, r, s+1) / ab_s - moment(n, r, s) / ab_{s-1},
    valid uniformly in n with ab_{-1} = -1 at the left edge.
    """
    if min(n, r, s) < 0:
        raise ValueError("indices must be nonnegative")
    _require_nonzero(vs, s)
    _require_nonzero(vs, s - 1)
    high = vs.rho(s) * moment_lukasiewicz(vs, n, r, s + 1) / vs.alpha_bar(s)
    low = moment_lukasiewicz(vs, n, r, s) / vs.alpha_bar(s - 1)
    return high - low


def star_to_star_coeff(vs, n, r, s):
    """Coefficient of phi_s^* in z^n phi_r^*, conjugated.

    Same two-term shape as phi_to_star_coeff with the star_to_phi values
    in place of the moments; the identity component at n = 0.
    """
    if min(n, r, s) < 0:
        raise ValueError("indices must be nonnegative")
    _require_nonzero(vs, s)
    _require_nonzero(vs, s - 1)
    inner = (star_to_phi_coeff(vs, n, r, s)
             - vs.alpha_bar(s - 1) * vs.rho(s)
             * star_to_phi_coeff(vs, n, r, s + 1) / vs.alpha_bar(s))
    return -inner / vs.alpha_bar(s - 1)


def star_to_phi_coeff_paths(vs, n, r, s):
    """Path route to star_to_phi_coeff: unit-width paths, no opening rise.

    Sums the (n+1)-step unit-width-model paths r -> s whose first step is
    not a rise, then strips the leading alpha_r each of them carries.
    """
    _require_nonzero(vs, r)
    total = vs.zero()
    for _, w in weighted_paths("lukasiewicz", n + 1, r, s, vs,
                               skip_first=(UP,)):
        total = total + w
    return total / vs.alpha(r)


def phi_to_star_coeff_paths(vs, n, r, s):
    """Path route to phi_to_star_coeff for n >= 1.

    Zero-width-drop model sum with both boundary drops forbidden, scaled
    by -1/ab_{s-1}.
    """
    if n < 1:
        raise ValueError("path route needs n >= 1")
    _require_nonzero(vs, s - 1)
    inner = schroder_weight_sum(vs, n, r, s, skip_initial_vertical=True,
                                skip_terminal_vertical=True)
    return -inner / vs.alpha_bar(s - 1)


def star_to_star_coeff_paths(vs, n, r, s):
    """Path route to star_to_star_coeff for n >= 1.

    Opening drops are allowed here; only the terminal drop is forbidden.
    The prefactor ab_{r-1}/ab_{s-1} absorbs the forced opening level step
    of the widened path family.
    """
    if n < 1:
        raise ValueError("path route needs n >= 1")
    _require_nonzero(vs, s - 1)
    inner = schroder_weight_sum(vs, n, r, s, skip_initial_vertical=False,
                                skip_terminal_vertical=True)
    return vs.alpha_bar(r - 1) * inner / vs.alpha_bar(s - 1)


def star_overlap_matrix(vs, dim):
    """Matrix of star_to_phi_coeff(0, i, j) for i, j < dim."""
    return ScalarMatrix([[star_to_phi_coeff(vs, 0, i, j)
                          for j in range(dim)] for i in range(dim)])


def star_basis_change(vs, dim):
    """Lower-bidiagonal inverse of the n = 0 star overlap matrix.

    Diagonal -1/ab_{i-1} (so the corner entry is 1), subdiagonal
    rho_i/ab_i; the product star_overlap_matrix * star_basis_change is
    the identity.
    """
    for i in range(dim):
        _require_nonzero(vs, i - 1)
        if i + 1 < dim:
            _require_nonzero(vs, i)
    rows = [[vs.zero() for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = -vs.one() / vs.alpha_bar(i - 1)
        if i + 1 < dim:
            rows[i + 1][i] = vs.rho(i) / vs.alpha_bar(i)
    return ScalarMatrix(rows)


def expand_moment_basis(vs, n, r):
    """All four coefficient families of z^n phi_r(*) at once, as lists.

    Returns a dict with keys (target, basis) over s = 0 .. n + r; the
    starred-basis entries require the guarded alphas to be nonzero.
    """
    width = n + r + 1
    out = {
        ("phi", PHI_BASIS): [moment_lukasiewicz(vs, n, r, s)
                             for s in range(width)],
        ("phi_star", PHI_BASIS): [star_to_phi_coeff(vs, n, r, s)
                                  for s in range(width)],
        ("phi", PHI_STAR_BASIS): [phi_to_star_coeff(vs, n, r, s)
                                  for s in range(width)],
        ("phi_star", PHI_STAR_BASIS): [star_to_star_coeff(vs, n, r, s)
                                       for s in range(width)],
    }
    return out


def star_pairing_oracle(vs, n, r, s):
    """Ground truth for the star_to_phi family: <phi_s, z^n phi_r^*>/kappa_s.

    n may be negative; compare star_to_phi_coeff (n >= 0) and
    star_to_phi_coeff_negative (n <= -1) against this.
    """
    return normalized_pairing(vs, s, phi(vs, r).phi_star.shift(n))
