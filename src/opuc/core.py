"""Verblunsky sequences, the monic polynomial recurrences, the moment
functional, and the inner-product oracle.

Everything downstream is cross-checked against `moment_oracle`, which
computes generalized moments directly from the definition: the moment
functional L is recovered from the polynomial coefficient matrices by
solving two unit-lower-triangular systems, and the sesquilinear form is
<f, g> = L(f(z) * conj(g)(1/z)).  The oracle forms the product
phi_s(z) * conj(phi_r)(1/z) once per (r, s), since z^n only moves where
L reads it, and divides by the squared norm kappa_s from a prefix-product
table.  It imports nothing but `algebra`, so it never reaches a route.
"""

from .algebra import (SYMBOLIC, NUMERIC, LaurentPoly,
                      alpha as sym_alpha, as_mode_scalar,
                      bar_inverse_substitute, conjugate, one_of, zero_of)


class VerblunskySequence:
    """A rule j -> alpha_j together with a mode tag and per-object caches.

    alpha(-1) is the boundary constant -1.  Numeric mode insists on
    |alpha_j| < 1 for every accessed j; symbolic mode cannot check this
    and leaves it as a caller obligation.  Instances are treated as
    immutable; the caches only memoize pure functions of the sequence.
    Every table that grows with n (the coefficients, the phi pairs, the
    classical moments, the norms kappa_s under ("kappa",), each path
    model's columns, or anti-diagonals for gentle Motzkin, the transfer
    rows and, under ("u_walk", r), row r of each power of U) is a list in
    `cache`, extended only by `sweep`; the oracle's product for (r, s),
    as its items in key order with its valuation and degree, is the one
    entry of the table ("pairing", r, s), and the theta blocks are not
    cached.  Entry j + 1 of the coefficient table holds
    (alpha_j, conj(alpha_j), rho_j), and `alpha`, `alpha_bar` and `rho`
    only read it.
    """

    def __init__(self, accessor, mode, source="rule"):
        self.mode = mode
        self.source = source
        self._accessor = accessor
        self.cache = {}

    @classmethod
    def generic(cls):
        """Fully symbolic sequence: alpha_j stays the symbol a_j."""
        return cls(lambda j: sym_alpha(j), SYMBOLIC, source="generic")

    @classmethod
    def from_table(cls, values, mode):
        values = list(values)

        def accessor(j):
            if j >= len(values):
                raise IndexError(
                    "alpha_%d requested but table has %d entries"
                    % (j, len(values)))
            return values[j]

        return cls(accessor, mode, source="table[%d]" % len(values))

    def alpha(self, j):
        if j < -1:
            raise ValueError("alpha index must be >= -1, got %d" % j)
        return self.sweep(("coefficients",), j + 1, _coef_step)[j + 1][0]

    def alpha_bar(self, j):
        if j < -1:
            raise ValueError("alpha index must be >= -1, got %d" % j)
        return self.sweep(("coefficients",), j + 1, _coef_step)[j + 1][1]

    def rho(self, j):
        """1 - alpha_j * conj(alpha_j)."""
        if j < 0:
            raise ValueError("rho index must be >= 0, got %d" % j)
        return self.sweep(("coefficients",), j + 1, _coef_step)[j + 1][2]

    def rho_product(self, lo, hi):
        """Product of rho_j for lo <= j < hi (empty product is 1)."""
        out = one_of(self.mode)
        for j in range(lo, hi):
            out = out * self.rho(j)
        return out

    def sweep(self, key, upto, step, *args):
        """The table cached under key, holding at least entries 0..upto.

        Missing entries are appended one at a time as
        step(self, table, *args); given an empty table, step builds entry
        0.  A hit returns the stored list itself.
        """
        table = self.cache.get(key)
        if table is None:
            table = self.cache[key] = []
        while len(table) <= upto:
            table.append(step(self, table, *args))
        return table

    def one(self):
        return one_of(self.mode)

    def zero(self):
        return zero_of(self.mode)


def _coef_step(vs, table):
    # entry j + 1 of the coefficient table; entry 0 is alpha_{-1} = -1,
    # which lies on the unit circle and so skips the numeric disk check
    j = len(table) - 1
    v = as_mode_scalar(vs._accessor(j) if j >= 0 else -1, vs.mode)
    if vs.mode == NUMERIC and j >= 0 and abs(v) >= 1:
        raise ValueError("|alpha_%d| = %g >= 1; numeric sequences must stay "
                         "inside the open unit disk" % (j, abs(v)))
    v_bar = conjugate(v)
    return v, v_bar, 1 - v * v_bar


class PhiPair:
    """Monic polynomial of degree n together with its reverse."""

    __slots__ = ("n", "phi", "phi_star")

    def __init__(self, n, phi, phi_star):
        self.n = n
        self.phi = phi
        self.phi_star = phi_star


def phi(vs, n):
    """The degree-n monic orthogonal polynomial and its reverse.

    Both members are advanced by the coupled recurrences
    phi_{k+1} = z*phi_k - conj(alpha_k)*phi_k^* and
    phi_{k+1}^* = phi_k^* - alpha_k*z*phi_k, from phi_0 = phi_0^* = 1.
    """
    if n < 0:
        raise ValueError("polynomial degree must be >= 0")
    return vs.sweep(("phi",), n, _phi_step)[n]


def _phi_step(vs, pairs):
    if not pairs:
        return PhiPair(0, LaurentPoly.one(vs.mode), LaurentPoly.one(vs.mode))
    k, last = len(pairs) - 1, pairs[-1]
    zp = last.phi.shift(1)
    return PhiPair(k + 1, zp.minus_scaled(last.phi_star, vs.alpha_bar(k), 0),
                   last.phi_star.minus_scaled(last.phi, vs.alpha(k), 1))


def reverse(f, declared_degree):
    """z**declared_degree times conj(f)(1/z), for a polynomial f."""
    if not f.is_zero and f.valuation() < 0:
        raise ValueError("reverse needs a polynomial (no negative powers)")
    if not f.is_zero and f.degree() > declared_degree:
        raise ValueError("declared degree %d below actual degree %d"
                         % (declared_degree, f.degree()))
    return LaurentPoly({declared_degree - k: conjugate(c)
                        for k, c in f.coeffs.items()}, f.mode)


def kappa(vs, n):
    """Squared norm of phi_n: the product of (1 - |alpha_j|^2), j < n."""
    if n < 0:
        raise ValueError("kappa index must be >= 0")
    return vs.sweep(("kappa",), n, _kappa_step)[n]


def _kappa_step(vs, table):
    # entry s is entry s - 1 times rho_{s-1}: rho_product(0, s)'s order
    s = len(table)
    return table[-1] * vs.rho(s - 1) if s else one_of(vs.mode)


def moments_from_phis(vs, N):
    """Moments mu_0..mu_N and mu_{-1}..mu_{-N} of the functional L.

    L kills phi_n and its coefficient-conjugate for n >= 1 and sends 1
    to 1.  With phi_n = sum_k c_{n,k} z^k and L(z^k) = mu_{-k} this is a
    pair of unit-lower-triangular systems:

        mu_{-n} = delta_{n,0} - sum_{k<n} c_{n,k} mu_{-k}
        mu_{ n} = delta_{n,0} - sum_{k<n} conj(c_{n,k}) mu_{k}

    The two systems are solved independently (the negative-index run
    never conjugates the positive one), so downstream reciprocity checks
    are genuine tests.  The pairs (mu_n, mu_{-n}) are one swept table.
    Returns (nonneg, nonpos) with nonneg[k] = mu_k and nonpos[k] = mu_{-k}.
    """
    pairs = vs.sweep(("moments",), N, _moment_pair_step)[:N + 1]
    return [pos for pos, _ in pairs], [neg for _, neg in pairs]


def _moment_pair_step(vs, pairs):
    n = len(pairs)
    if not n:
        return one_of(vs.mode), one_of(vs.mode)
    coeff = phi(vs, n).phi.coeffs.get
    acc_neg = zero_of(vs.mode)
    acc_pos = zero_of(vs.mode)
    for k in range(n):
        c = coeff(k)
        if not c:
            continue
        pos, neg = pairs[k]
        acc_neg = acc_neg + c * neg
        acc_pos = acc_pos + c.conjugate() * pos
    return -acc_pos, -acc_neg


def functional_eval(vs, f):
    """Apply L to a Laurent polynomial: L(z^k) = mu_{-k}."""
    if f.is_zero:
        return zero_of(vs.mode)
    # reads the (mu_n, mu_{-n}) table in place: splitting it as
    # moments_from_phis does costs O(need) on every call
    pairs = vs.sweep(("moments",), max(-f.valuation(), f.degree()),
                     _moment_pair_step)
    out = zero_of(vs.mode)
    for k, c in f.coeffs.items():
        out = out + c * (pairs[k][1] if k >= 0 else pairs[-k][0])
    return out


def inner_product(vs, f, g):
    """<f, g> = L(f(z) * conj(g)(1/z))."""
    return functional_eval(vs, f * bar_inverse_substitute(g))


def normalized_pairing(vs, s, g):
    """<phi_s, g> / <phi_s, phi_s>; a zero norm raises ValueError."""
    f = phi(vs, s).phi
    norm = _norm(vs, s)
    return inner_product(vs, f, g) / norm


def _norm(vs, s):
    # kappa_s, which the oracle divides by, or a ValueError naming why
    # it is 0
    norm = kappa(vs, s)
    if not norm:
        zeros = [j for j in range(s) if not vs.rho(j)]
        raise ValueError(
            "the oracle divides by <phi_%d, phi_%d>, which is 0: %s"
            % (s, s, "rho_%d = 0" % zeros[0] if zeros
               else "the product of rho_j underflows"))
    return norm


def moment_oracle(vs, n, r, s):
    """mu_{n,r,s} = <phi_s, z^n phi_r> / <phi_s, phi_s>, from scratch.

    n may be negative.  This is the ground truth every other moment
    method is tested against.  For n >= 0 and s > r + n, z^n phi_r has
    degree below s, so it is orthogonal to phi_s and the moment is 0
    without reading the norm's alpha_{r+n}..alpha_{s-1}.

    The product P = phi_s(z) * conj(phi_r)(1/z) does not depend on n:
    <phi_s, z^n phi_r> = L(z^-n P).  P is built once per (r, s), and the
    sweep table ("pairing", r, s) keeps its (k, c) items in P's key
    order with its valuation and degree; each n then reads kappa_s, sums
    the items against the moment table at offset -n, with the floats of
    a fresh product, in its order, and divides.
    """
    if r < 0 or s < 0:
        raise ValueError("r and s must be >= 0")
    if n >= 0 and s > r + n:
        return vs.zero()
    items, lo, hi = vs.sweep(("pairing", r, s), 0, _pairing_step, r, s)[0]
    norm = _norm(vs, s)
    pairs = vs.sweep(("moments",), max(n - lo, hi - n), _moment_pair_step)
    out = vs.zero()
    for k, c in items:
        k -= n
        out = out + c * (pairs[k][1] if k >= 0 else pairs[-k][0])
    return out / norm


def _pairing_step(vs, table, r, s):
    # P's items in key order, its valuation and its degree; P is never 0:
    # its top term is phi_s's leading 1 times the conjugate of phi_r's
    # lowest nonzero coefficient, and no other product lands there
    p = phi(vs, s).phi * bar_inverse_substitute(phi(vs, r).phi)
    return list(p.coeffs.items()), p.valuation(), p.degree()
