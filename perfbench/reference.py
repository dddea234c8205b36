"""Exact reference values for the benchmark's checks.

Nothing here imports ``opuc``: the reference recomputes the monic
polynomials phi_n and phi_n^*, the moment functional L and the
generalized moments

    mu(n, r, s) = <phi_s, z^n phi_r> / <phi_s, phi_s>,
    <f, g> = L(f(z) * conj(g)(1/z)),

straight from their definitions, so that a wrong value in any route of
the program shows up as a mismatch here.

Two implementations share that definition:

* ``DyadicReference`` serves the numeric workloads.  Every input alpha_j
  is A_j / 2**K with A_j a Gaussian integer, so phi_n is a Gaussian
  integer polynomial over 2**(K n) and L(z^k) a Gaussian integer over a
  power of two.  The recurrences run on those scaled integers and never
  build a Fraction or take a gcd, which keeps n = 200 near a second where
  plain Fractions take over a minute.
* ``FieldReference`` serves the exact workloads.  It runs the same
  recurrences over ``Exact``, the field Q(i)(t) with t*t a positive
  rational, which holds the circular Jacobi, mass-point and
  Bernstein-Szego data and the Rogers-Szego data with t = sqrt(q).
"""

import math
from fractions import Fraction

# numeric inputs have coordinates that are multiples of 2**-K
K = 6


# ---------------------------------------------------------------------------
# the field Q(i)(t)


def _f(x):
    return x if isinstance(x, Fraction) else Fraction(x)


class Exact:
    """a + b*t with a, b Gaussian rationals and t*t = tsq (None: no t)."""

    __slots__ = ("ar", "ai", "br", "bi", "tsq")

    def __init__(self, ar=0, ai=0, br=0, bi=0, tsq=None):
        self.ar, self.ai, self.br, self.bi = _f(ar), _f(ai), _f(br), _f(bi)
        self.tsq = None if tsq is None else _f(tsq)

    @staticmethod
    def _make(ar, ai, br, bi, tsq):
        out = Exact.__new__(Exact)
        out.ar, out.ai, out.br, out.bi, out.tsq = ar, ai, br, bi, tsq
        return out

    @staticmethod
    def coerce(x):
        if isinstance(x, Exact):
            return x
        if isinstance(x, (int, Fraction)):
            return Exact._make(_f(x), Fraction(0), Fraction(0), Fraction(0),
                               None)
        return None

    @staticmethod
    def t(tsq):
        return Exact(0, 0, 1, 0, tsq)

    def _tsq(self, other):
        if self.tsq is None or other.tsq is None or self.tsq == other.tsq:
            return self.tsq if self.tsq is not None else other.tsq
        raise ValueError("t*t = %s meets t*t = %s" % (self.tsq, other.tsq))

    def __add__(self, other):
        o = Exact.coerce(other)
        if o is None:
            return NotImplemented
        return Exact._make(self.ar + o.ar, self.ai + o.ai, self.br + o.br,
                           self.bi + o.bi, self._tsq(o))

    __radd__ = __add__

    def __neg__(self):
        return Exact._make(-self.ar, -self.ai, -self.br, -self.bi, self.tsq)

    def __sub__(self, other):
        o = Exact.coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = Exact.coerce(other)
        if o is None:
            return NotImplemented
        tsq = self._tsq(o)
        ar = self.ar * o.ar - self.ai * o.ai
        ai = self.ar * o.ai + self.ai * o.ar
        if self.br or self.bi or o.br or o.bi:
            bbr = self.br * o.br - self.bi * o.bi
            bbi = self.br * o.bi + self.bi * o.br
            ar += tsq * bbr
            ai += tsq * bbi
            br = self.ar * o.br - self.ai * o.bi + self.br * o.ar - self.bi * o.ai
            bi = self.ar * o.bi + self.ai * o.br + self.br * o.ai + self.bi * o.ar
        else:
            br = bi = Fraction(0)
        return Exact._make(ar, ai, br, bi, tsq)

    __rmul__ = __mul__

    def inverse(self):
        # (a + b t)^-1 = (a - b t) / (a^2 - tsq b^2); the norm is nonzero
        # because sqrt(tsq) is irrational for every tsq the workloads use
        tsq = self.tsq or Fraction(0)
        nr = (self.ar * self.ar - self.ai * self.ai
              - tsq * (self.br * self.br - self.bi * self.bi))
        ni = 2 * self.ar * self.ai - tsq * 2 * self.br * self.bi
        mod = nr * nr + ni * ni
        if mod == 0:
            raise ZeroDivisionError("division by zero in Q(i)(t)")
        inv = Exact._make(nr / mod, -ni / mod, Fraction(0), Fraction(0),
                          self.tsq)
        return Exact._make(self.ar, self.ai, -self.br, -self.bi,
                           self.tsq) * inv

    def __truediv__(self, other):
        o = Exact.coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return Exact.coerce(other) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = Exact.coerce(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self):
        # t is real
        return Exact._make(self.ar, -self.ai, self.br, -self.bi, self.tsq)

    def __bool__(self):
        return bool(self.ar or self.ai or self.br or self.bi)

    def __eq__(self, other):
        o = Exact.coerce(other)
        if o is None:
            return NotImplemented
        return (self.ar == o.ar and self.ai == o.ai and self.br == o.br
                and self.bi == o.bi)

    def __hash__(self):
        return hash((self.ar, self.ai, self.br, self.bi))

    def __repr__(self):
        out = "(%s%+si)" % (self.ar, self.ai)
        if self.br or self.bi:
            out += " + (%s%+si)*t" % (self.br, self.bi)
        return out


ZERO = Exact()
ONE = Exact(1)


# ---------------------------------------------------------------------------
# exact reference over Q(i)(t)


class FieldReference:
    """phi, phi^*, the functional L and mu(n, r, s) for exact alphas."""

    def __init__(self, alpha):
        self._alpha_fn = alpha
        self._alphas = {}
        self._phis = [[ONE]]
        self._stars = [[ONE]]
        self._mom = [ONE]

    def alpha(self, j):
        if j == -1:
            return -ONE
        v = self._alphas.get(j)
        if v is None:
            v = self._alphas[j] = Exact.coerce(self._alpha_fn(j))
        return v

    def rho(self, j):
        a = self.alpha(j)
        return ONE - a * a.conj()

    def rho_product(self, k):
        """rho(0, k) = prod_{j<k} rho_j."""
        out = ONE
        for j in range(k):
            out = out * self.rho(j)
        return out

    def _grow(self, n):
        # phi_{k+1} = z phi_k - conj(alpha_k) phi_k^*
        # phi_{k+1}^* = phi_k^* - alpha_k z phi_k
        while len(self._phis) <= n:
            k = len(self._phis) - 1
            p, q = self._phis[k], self._stars[k]
            a = self.alpha(k)
            ab = a.conj()
            zp = [ZERO] + p
            qq = q + [ZERO]
            self._phis.append([zp[i] - ab * qq[i] for i in range(k + 2)])
            self._stars.append([qq[i] - a * zp[i] for i in range(k + 2)])

    def phi(self, n):
        """Coefficients of phi_n, lowest degree first."""
        self._grow(n)
        return self._phis[n]

    def phistar(self, n):
        self._grow(n)
        return self._stars[n]

    def L(self, e):
        """The functional at z^e: L(phi_n) = 0 for n >= 1, L(1) = 1, and
        L(z^-e) = conj(L(z^e))."""
        k = abs(e)
        while len(self._mom) <= k:
            m = len(self._mom)
            c = self.phi(m)
            acc = ZERO
            for j in range(m):
                acc = acc + c[j] * self._mom[j]
            self._mom.append(-acc)
        return self._mom[k] if e >= 0 else self._mom[k].conj()

    def mu(self, n, r, s):
        """<phi_s, z^n phi_r> / <phi_s, phi_s>; n may be negative."""
        ps, pr = self.phi(s), self.phi(r)
        acc = ZERO
        for j, cj in enumerate(ps):
            for k, ck in enumerate(pr):
                acc = acc + cj * ck.conj() * self.L(j - n - k)
        return acc / self.rho_product(s)


# ---------------------------------------------------------------------------
# scaled-integer reference for dyadic numeric inputs


class DyadicReference:
    """mu(n, r, s) for alpha_j = (a_j + i b_j) / 2**K, exactly.

    P[n] holds 2**(K n) phi_n as Gaussian integer pairs, Q[n] holds
    2**(K n) phi_n^*, and M[k] holds 2**E[k] L(z^k).
    """

    def __init__(self, numerators):
        self.A = [tuple(p) for p in numerators]
        self.P = [[(1, 0)]]
        self.Q = [[(1, 0)]]
        self.M = [(1, 0)]
        self.E = [0]

    def alpha(self, j):
        a, b = self.A[j]
        return complex(a, b) / (1 << K)

    def _grow_phi(self, n):
        one = 1 << K
        stars = self.Q
        while len(self.P) <= n:
            k = len(self.P) - 1
            a, b = self.A[k]
            p, q = self.P[k], stars[k]
            newp, newq = [], []
            for i in range(k + 2):
                pr, pi = p[i - 1] if i else (0, 0)
                qr, qi = q[i] if i <= k else (0, 0)
                newp.append((one * pr - (a * qr + b * qi),
                             one * pi - (a * qi - b * qr)))
                newq.append((one * qr - (a * pr - b * pi),
                             one * qi - (a * pi + b * pr)))
            self.P.append(newp)
            stars.append(newq)

    def _grow_moments(self, n):
        self._grow_phi(n)
        M, E = self.M, self.E
        while len(M) <= n:
            m = len(M)
            p = self.P[m]
            top = max(E)
            re = im = 0
            for k in range(m):
                pr, pi = p[k]
                mr, mi = M[k]
                sh = top - E[k]
                re += (pr * mr - pi * mi) << sh
                im += (pr * mi + pi * mr) << sh
            # L(z^m) is a polynomial of degree < 2m in the alphas, so most
            # of the 2**(K m + top) scale cancels; dropping it keeps the
            # integers near 2 K m bits instead of K m^2 / 2
            exp = K * m + top
            low = re | im
            if low:
                exp -= min(exp, (low & -low).bit_length() - 1)
            else:
                exp = 0
            shift = K * m + top - exp
            M.append((-(re >> shift), -(im >> shift)))
            E.append(exp)

    def mu_parts(self, n, r, s):
        """Integers (re, im, den) with mu(n, r, s) = (re + i im) / den."""
        need = max(abs(s - n), abs(n + r))
        self._grow_moments(max(need, r, s))
        M, E = self.M, self.E
        top = max(E[:need + 1])
        ps, pr = self.P[s], self.P[r]
        re = im = 0
        for j, (sr, si) in enumerate(ps):
            for k, (rr, ri) in enumerate(pr):
                # c^s_j * conj(c^r_k), scaled by 2**(K s + K r)
                cr = sr * rr + si * ri
                ci = si * rr - sr * ri
                e = j - n - k
                lr, li = M[abs(e)]
                if e < 0:
                    li = -li
                sh = top - E[abs(e)]
                re += (cr * lr - ci * li) << sh
                im += (cr * li + ci * lr) << sh
        # kappa_s = prod_{j<s} (4**K - |A_j|^2) / 4**K
        kap = 1
        for j in range(s):
            a, b = self.A[j]
            kap *= (1 << (2 * K)) - a * a - b * b
        # mu = num * 4**(K s) / (2**(K s + K r + top) * kap)
        return re << (K * s), im << (K * s), kap << (K * r + top)

    def mu(self, n, r, s):
        """mu(n, r, s) rounded once to a complex float."""
        re, im, den = self.mu_parts(n, r, s)
        return complex(re / den, im / den)

    def mu_exact(self, n, r, s):
        re, im, den = self.mu_parts(n, r, s)
        return Exact(Fraction(re, den), Fraction(im, den))

    def rho_product(self, k):
        out = 1.0
        for j in range(k):
            out *= 1.0 - abs(self.alpha(j)) ** 2
        return out


# ---------------------------------------------------------------------------
# closed forms, transcribed from the paper's statements


def q_binomial(n, m, q):
    if m < 0 or m > n:
        return Fraction(0)
    num = den = Fraction(1)
    for j in range(m):
        num *= 1 - q ** (n - j)
        den *= 1 - q ** (j + 1)
    return num / den


def pochhammer(a, k):
    out = Fraction(1)
    for j in range(k):
        out *= a + j
    return out


def closed_nm(family, value, n, m):
    """The (n, m) moment mu(n, 0, m) of the paper's exact families."""
    if n < m:
        return ZERO
    k = n - m
    if family == "circular_jacobi":
        a = _f(value)
        return Exact(math.comb(n, m) * pochhammer(-a, k)
                     / pochhammer(a + m + 1, k))
    if family == "rogers_szego":
        q = _f(value)
        return Exact.t(q) ** (k * k) * q_binomial(n, m, q)
    if family == "mass_point":
        g = _f(value)
        return ONE if k == 0 else Exact(g / (1 + m * g))
    if family == "bernstein_szego":
        return Exact.coerce(value) ** k
    raise ValueError("no closed form for %r" % (family,))


# ---------------------------------------------------------------------------
# path models: the benchmark's own counts


def count_paths(model, n, r, s):
    """Number of lattice paths of a model with the given boundary data.

    lukasiewicz: (0, r) -> (n, s), steps (1, d) with d <= 1, height >= 0.
    negative: the mirror image, (0, s) -> (-n, r).
    gmotzkin: (-r, r) -> (2n - s, s), unit steps; a rise only where x + y
      is even, a fall only where x + y is odd, level steps anywhere.
    schroder: (0, r) -> (n, s), steps (1, 1), (1, 0) and zero-width drops
      (0, -1); no drop opens the path and the path stops on reaching the end.
    """
    if model == "negative":
        return count_paths("lukasiewicz", n, s, r)
    if model == "lukasiewicz":
        row = {r: 1}
        for _ in range(n):
            new = {}
            for y, c in row.items():
                for y2 in range(0, y + 2):
                    new[y2] = new.get(y2, 0) + c
            row = new
        return row.get(s, 0)
    if model == "gmotzkin":
        x_end = 2 * n - s
        if x_end < -r:
            return 0
        row = {r: 1}
        for x in range(-r, x_end):
            new = {}
            for y, c in row.items():
                moves = [y]
                if (x + y) % 2 == 0:
                    moves.append(y + 1)
                elif y > 0:
                    moves.append(y - 1)
                for y2 in moves:
                    new[y2] = new.get(y2, 0) + c
            row = new
        return row.get(s, 0)
    if model == "schroder":
        # column x: heights reachable after the width step into x, before
        # the drops that follow it; drops then lower the height freely
        if n == 0:
            return 1 if r == s else 0
        row = {r: 1}
        for x in range(n):
            if x > 0:
                dropped = {}
                for y, c in row.items():
                    for y2 in range(0, y + 1):
                        dropped[y2] = dropped.get(y2, 0) + c
                row = dropped
            new = {}
            for y, c in row.items():
                for y2 in (y, y + 1):
                    new[y2] = new.get(y2, 0) + c
            row = new
        return sum(c for y, c in row.items() if y >= s)
    raise ValueError("unknown model %r" % (model,))
