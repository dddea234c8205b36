"""Named coefficient families and their closed-form generalized moments.

Each family fixes a rule for the recurrence coefficient sequence; where a
closed evaluation of the ordinary or generalized moments is known, it is
provided here alongside the sequence so the two routes can cross-check
each other.  Each formula is written once, and the mode chooses only its
arithmetic (`_real`, `_scalar`, `_half_power`): exact for rational (or
Gaussian-rational) data, floats for the rest.
"""

import itertools
import math
from fractions import Fraction

from .algebra import (
    NUMERIC,
    SYMBOLIC,
    GaussianRational,
    as_mode_scalar,
    conjugate,
    one_of,
    t_root,
    zero_of,
)
from .core import VerblunskySequence, phi
from .errors import UnsupportedFamily

# family tag -> conventional parameter name (as accepted on the command line)
FAMILY_PARAMS = {
    "geronimus": "alpha",
    "bernstein_szego": "zeta",
    "mass_point": "gamma",
    "circular_jacobi": "a",
    "single_nontrivial": "a",
    "rogers_szego": "q",
    "al_salam_carlitz": "q",
}


def _is_exact(x):
    return isinstance(x, (int, Fraction, GaussianRational))


def _is_real(x):
    return isinstance(x, (int, float, Fraction))


def _validate(tag, value):
    if tag == "geronimus":
        # constant-coefficient family; the closed unit disk is allowed
        # because the path models never divide by 1 - |alpha|^2
        if abs(complex(value)) > 1:
            raise ValueError("geronimus parameter must satisfy |alpha| <= 1")
    elif tag == "bernstein_szego":
        if abs(complex(value)) >= 1:
            raise ValueError("bernstein_szego parameter must satisfy |zeta| < 1")
    elif tag == "mass_point":
        if not (_is_real(value) and 0 < value < 1):
            raise ValueError("mass_point parameter must be real with 0 < gamma < 1")
    elif tag == "circular_jacobi":
        if not (_is_real(value) and value > -1):
            raise ValueError("circular_jacobi parameter must be real with a > -1")
    elif tag == "single_nontrivial":
        if not (_is_real(value) and 0 < value <= 1):
            raise ValueError("single_nontrivial parameter must be real with 0 < a <= 1")
    elif tag in ("rogers_szego", "al_salam_carlitz"):
        if not (_is_real(value) and 0 < value < 1):
            raise ValueError("%s parameter must be real with 0 < q < 1" % tag)
    else:
        raise ValueError("unknown family %r" % (tag,))


class FamilySpec:
    """A family tag plus its parameter, validated against the family's range."""

    __slots__ = ("tag", "value")

    def __init__(self, tag, value):
        _validate(tag, value)
        self.tag = tag
        self.value = value

    def __repr__(self):
        return "%s(%s=%s)" % (self.tag, FAMILY_PARAMS[self.tag], self.value)

    def __eq__(self, other):
        return (isinstance(other, FamilySpec)
                and self.tag == other.tag and self.value == other.value)

    def __hash__(self):
        return hash((self.tag, self.value))


def family_mode(spec):
    """Natural scalar representation for a family's data."""
    return SYMBOLIC if _is_exact(spec.value) else NUMERIC


def _resolve_mode(spec, mode):
    natural = family_mode(spec)
    if mode is None:
        return natural
    if mode == SYMBOLIC and natural == NUMERIC:
        raise UnsupportedFamily("%r has no exact scalar representation" % (spec,))
    return mode


def _real(spec, mode):
    # symbolic mode is only ever resolved for an exact parameter
    return Fraction(spec.value) if mode == SYMBOLIC else float(spec.value)


def _scalar(spec, mode):
    # a complex parameter's counterpart of `_real`
    return spec.value if mode == SYMBOLIC else complex(spec.value)


def _half_power(q, e, mode):
    """q ** (e / 2): a power of the adjoined root t = sqrt(q) when exact."""
    return t_root(q) ** e if mode == SYMBOLIC else q ** (e / 2.0)


# ---------------------------------------------------------------------------
# coefficient sequences

def _chebyshev_ratios(x):
    """t_k = U_{k-1}(x) / U_k(x) for k = 0, 1, 2, ..., with U_k the
    Chebyshev polynomials of the second kind: t_0 = 0 (U_{-1} = 0) and
    t_k = 1 / (2x - t_{k-1}).  For x >= 1 every t_k lies in [0, 1], so
    no float overflows."""
    t = 0
    while True:
        yield t
        t = 1 / (2 * x - t)


def _ratio_product(x, lo, hi):
    """t_lo * ... * t_hi = U_{lo-1}(x) / U_hi(x); 1 when lo > hi."""
    out = 1
    for t in itertools.islice(_chebyshev_ratios(x), lo, hi + 1):
        out = out * t
    return out


def verblunsky_of(spec, mode=None):
    """Coefficient sequence of a family; exact scalars for exact parameters."""
    mode = _resolve_mode(spec, mode)
    v = spec.value
    tag = spec.tag
    if tag == "geronimus":
        fn = lambda j: v
    elif tag == "bernstein_szego":
        fn = lambda j: v if j == 0 else 0
    elif tag == "mass_point":
        g = _real(spec, mode)
        fn = lambda j: g / (1 + j * g)
    elif tag == "circular_jacobi":
        a = _real(spec, mode)
        fn = lambda j: -a / (j + a + 1)
    elif tag == "single_nontrivial":
        # alpha_j = -1 / U_{j+1}(1/a) = -(t_1 ... t_{j+1}), one more
        # ratio per index
        ratios = itertools.islice(_chebyshev_ratios(1 / _real(spec, mode)),
                                  1, None)
        products = [-1]

        def fn(j):
            while len(products) <= j + 1:
                products.append(products[-1] * next(ratios))
            return products[j + 1]
    elif tag == "rogers_szego":
        t = t_root(v) if mode == SYMBOLIC else math.sqrt(v)
        fn = lambda j: t ** (j + 1) if j % 2 == 0 else -(t ** (j + 1))
    else:  # al_salam_carlitz
        q = _real(spec, mode)
        fn = lambda j: 1 - 2 * q ** ((j + 1) // 2) if j % 2 else 0

    return VerblunskySequence(fn, mode, source=repr(spec))


# ---------------------------------------------------------------------------
# small exact combinatorics

def rising_factorial(a, k):
    """a (a+1) ... (a+k-1); exact whenever a is."""
    out = 1
    for j in range(k):
        out = out * (a + j)
    return out


def q_binomial(n, m, q):
    """Gaussian binomial coefficient, computed by the product formula."""
    if m < 0 or m > n:
        return 0
    out = 1
    for j in range(m):
        out = out * (1 - q ** (n - j)) / (1 - q ** (j + 1))
    return out


# ---------------------------------------------------------------------------
# closed moment evaluations

def closed_moment_nm(spec, n, m, mode=None):
    """Closed evaluation of the (n, m) moment, where the family has one."""
    mode = _resolve_mode(spec, mode)
    tag = spec.tag
    if tag == "al_salam_carlitz":
        raise UnsupportedFamily("no closed (n, m) moment for %s" % tag)
    if tag == "geronimus":
        return as_mode_scalar(geronimus_gf_moment(_scalar(spec, mode), n, m),
                              mode)
    if n < m:
        return zero_of(mode)
    k = n - m
    if tag == "bernstein_szego":
        if k == 0:
            return one_of(mode)
        return as_mode_scalar(spec.value, mode) ** k
    if tag == "mass_point":
        if k == 0:
            return one_of(mode)
        g = _real(spec, mode)
        return as_mode_scalar(g / (1 + m * g), mode)
    if tag == "circular_jacobi":
        if k == 0:
            return one_of(mode)
        a = _real(spec, mode)
        val = math.comb(n, m) * rising_factorial(-a, k)
        val = val / rising_factorial(a + m + 1, k)
        return as_mode_scalar(val, mode)
    if tag == "single_nontrivial":
        if k == 0:
            return one_of(mode)
        if k > 1:
            return zero_of(mode)
        # -U_{n-1} / U_n at x = 1/a
        x = 1 / _real(spec, mode)
        return as_mode_scalar(-_ratio_product(x, n, n), mode)
    # rogers_szego: the half-integer exponent (n-m)^2 / 2 lives in t = sqrt(q)
    q = _real(spec, mode)
    return as_mode_scalar(q_binomial(n, m, q) * _half_power(q, k * k, mode),
                          mode)


def closed_moment_nrs(spec, n, r, s, mode=None):
    """Closed evaluation of the (n, r, s) moment, where the family has one."""
    mode = _resolve_mode(spec, mode)
    tag = spec.tag
    if tag == "al_salam_carlitz":
        raise UnsupportedFamily("no closed (n, r, s) moment for %s" % tag)
    if tag == "geronimus":
        # the (n + i, s) moments weighted by the family's own degree-r
        # coefficients, conjugated
        a = _scalar(spec, mode)
        return as_mode_scalar(sum(conjugate(geronimus_phi_coeff(a, r, i))
                                  * geronimus_gf_moment(a, n + i, s)
                                  for i in range(r + 1)), mode)
    if tag == "bernstein_szego":
        if r == 0:
            return closed_moment_nm(spec, n, s, mode)
        return one_of(mode) if s == n + r else zero_of(mode)
    if tag == "mass_point":
        if r == 0:
            return closed_moment_nm(spec, n, s, mode)
        if s >= n + r:
            return one_of(mode) if s == n + r else zero_of(mode)
        g = _real(spec, mode)
        den = (1 + (r - 1) * g) * (1 + s * g)
        if s > n - 1:
            return as_mode_scalar(-(n * g * g) / den, mode)
        return as_mode_scalar((1 - g) * g / den, mode)
    if tag == "circular_jacobi":
        a = _real(spec, mode)
        if a == 0:
            return one_of(mode) if s == n + r else zero_of(mode)
        total = 0
        for i in range(r + 1):
            if n + i < s:
                continue  # the (n+i, s) factor vanishes
            coef = math.comb(r, i) * math.comb(n + i, s)
            num = rising_factorial(a, i + 1) * rising_factorial(-a, n + i - s)
            den = rising_factorial(a + r - i, i + 1) * rising_factorial(a + s + 1, n + i - s)
            total = total + coef * num / den
        return as_mode_scalar(total, mode)
    if tag == "single_nontrivial":
        if s == n + r:
            return one_of(mode)
        if n - 1 <= s < n + r:
            # -U_{n-1} U_0 / (U_{s+1} U_r) at x = 1/a
            x = 1 / _real(spec, mode)
            return as_mode_scalar(-_ratio_product(x, n, s + 1)
                                  * _ratio_product(x, 1, r), mode)
        return zero_of(mode)
    # rogers_szego
    q = _real(spec, mode)
    total = zero_of(mode)
    for j in range(r + 1):
        c = q_binomial(r, j, q) * q_binomial(n + j, s, q)
        if (r - j) % 2 == 1:
            c = -c
        total = total + c * _half_power(q, (r - j) + (n + j - s) ** 2, mode)
    return as_mode_scalar(total, mode)


def nrs_from_nm(spec_or_vs, n, r, s):
    """Rebuild the (n, r, s) moment as a combination of (n+i, s) moments
    weighted by the conjugated coefficients of the degree-r polynomial."""
    if isinstance(spec_or_vs, FamilySpec):
        vs = verblunsky_of(spec_or_vs)
        nm = lambda k: closed_moment_nm(spec_or_vs, k, s)
    else:
        vs = spec_or_vs
        from .paths import moment_lukasiewicz
        nm = lambda k: moment_lukasiewicz(vs, k, 0, s)
    poly = phi(vs, r).phi
    total = vs.zero()
    for i in range(r + 1):
        c = poly.coeff(i)
        if not c:
            continue
        total = total + conjugate(c) * nm(n + i)
    return total


# ---------------------------------------------------------------------------
# the constant-coefficient family via generating functions

def geronimus_series(alpha_value, order):
    """Coefficients, to the requested order, of the two series fixed by the
    first-step decompositions of weighted flat-step path classes.

    Returns (f, g) as coefficient lists of length order + 1.  No radical is
    ever expanded: each coefficient is a polynomial in the ones below it.
    """
    if isinstance(alpha_value, int):
        alpha_value = Fraction(alpha_value)  # keep int / int exact below
    aa = alpha_value * conjugate(alpha_value)
    if not aa:
        raise ValueError("series expansion needs a nonzero parameter")
    rr = 1 - aa
    scale = alpha_value / aa
    f = [1]
    g = [1]
    for k in range(1, order + 1):
        f.append(-f[k - 1] + rr * sum(f[i] * f[k - 1 - i] for i in range(k)))
        g.append(scale * (g[k - 1] - rr * sum(f[i] * g[k - 1 - i] for i in range(k))))
    return f, g


def geronimus_gf_moment(alpha_value, n, m):
    """(n, m) moment of the constant-coefficient family, read off from the
    series solutions of the two functional equations."""
    if not alpha_value:
        return 1 if n == m else 0
    if n < m:
        return 0
    f, g = geronimus_series(alpha_value, n)
    # [z^n] g(z) (z f(z))^m  =  [z^(n-m)] g(z) f(z)^m
    width = n - m + 1
    h = g[:width]
    for _ in range(m):
        h = [sum(h[i] * f[k - i] for i in range(k + 1)) for k in range(width)]
    return h[n - m]


def geronimus_phi_coeff(alpha_value, n, i):
    """Coefficient of z^i in the degree-n monic polynomial of the
    constant-coefficient family, by its three-term coefficient recurrence."""
    if not 0 <= i <= n:
        raise ValueError("coefficient index out of range")
    rows = [[1]]
    abar = conjugate(alpha_value)
    rr = 1 - alpha_value * abar
    while len(rows) <= n:
        k = len(rows)
        prev = rows[k - 1]
        before = rows[k - 2] if k >= 2 else []
        row = [0] * (k + 1)
        row[k] = 1  # monic
        row[0] = -abar
        for j in range(1, k):
            row[j] = prev[j - 1] + prev[j] - rr * (before[j - 1] if j - 1 < len(before) else 0)
        rows.append(row)
    return rows[n][i]
