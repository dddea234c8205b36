"""Exact scalar arithmetic over the Verblunsky symbols.

Two scalar representations flow through this library:

* symbolic mode: ExactScalar, a sparse Laurent polynomial with
  Gaussian-rational coefficients in the symbols a_j and ab_j (a_j
  stands for alpha_j, ab_j for its complex conjugate; the bar is kept
  as a flag so conjugation is a symbol swap plus coefficient
  conjugation).  An optional extra generator t with t**2 equal to a
  fixed positive rational supports families whose closed forms live in
  a quadratic extension (square root of a rational parameter).
* numeric mode: the builtin ``complex``, used directly so the dynamic
  programs run at native speed.

Module helpers (conjugate, exact_div, evaluate_numeric, render_scalar)
accept both representations, which keeps the rest of the library
mode-agnostic.  A scalar of either kind is false exactly when it is
zero, so a plain truth test is the zero test in both modes.  Integers
and Fractions coerce into either mode; floats and complexes are
rejected by the symbolic side to preserve exactness.

Convention: symbol index -1 encodes the boundary value alpha_{-1} = -1.
Constructors eliminate it immediately, so stored symbols always have
index >= 0.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import ExactDivisionError

SYMBOLIC = "symbolic"
NUMERIC = "numeric"


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def _parts(self, other):
        if isinstance(other, GaussianRational):
            return other.re, other.im
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return None

    def __add__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return GaussianRational(self.re + p[0], self.im + p[1])

    __radd__ = __add__

    def __sub__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return GaussianRational(self.re - p[0], self.im - p[1])

    def __rsub__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return GaussianRational(p[0] - self.re, p[1] - self.im)

    def __mul__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        c, d = p
        return GaussianRational(self.re * c - self.im * d,
                                self.re * d + self.im * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        c, d = p
        norm = c * c + d * d
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational((self.re * c + self.im * d) / norm,
                                (self.im * c - self.re * d) / norm)

    def __rtruediv__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return GaussianRational(p[0], p[1]) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __eq__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return self.re == p[0] and self.im == p[1]

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        im = "i" if self.im == 1 else ("-i" if self.im == -1
                                       else "%si" % self.im)
        if self.re == 0:
            return im
        sign = "+" if self.im > 0 else ""
        return "(%s%s%s)" % (self.re, sign, im)

    __repr__ = __str__


class Symbol(NamedTuple):
    """One generator of the symbolic ring: alpha_index or its conjugate."""

    index: int
    barred: bool

    def __str__(self):
        return ("ab%d" if self.barred else "a%d") % self.index


# ---------------------------------------------------------------------------
# coefficient helpers: coefficients are int, Fraction, or GaussianRational,
# always kept in the simplest of the three so the common all-integer
# dynamic programs never touch Fraction arithmetic.

def _cnorm(c):
    if isinstance(c, GaussianRational):
        if c.im != 0:
            return c
        c = c.re
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _cadd(x, y):
    if type(x) is int and type(y) is int:
        return x + y
    return _cnorm(x + y)


def _cmul(x, y):
    if type(x) is int and type(y) is int:
        return x * y
    return _cnorm(x * y)


def _cdiv(x, y):
    if isinstance(x, GaussianRational) or isinstance(y, GaussianRational):
        gx = x if isinstance(x, GaussianRational) else GaussianRational(x)
        return _cnorm(gx / y)
    return _cnorm(Fraction(x) / y)


def _cconj(x):
    return x.conjugate() if isinstance(x, GaussianRational) else x


def _merge_monom(m1, m2):
    """Merge two sorted ((Symbol, exp), ...) tuples, adding exponents."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        s1, e1 = m1[i]
        s2, e2 = m2[j]
        if s1 == s2:
            e = e1 + e2
            if e:
                out.append((s1, e))
            i += 1
            j += 1
        elif s1 < s2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _join_tsq(a, b):
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise ValueError("incompatible adjoined roots: t^2=%s vs t^2=%s" % (a, b))


class ExactScalar:
    """Sparse Laurent polynomial in the Verblunsky symbols.

    terms maps (monomial, t_exponent) to a coefficient, where monomial
    is a sorted tuple of (Symbol, nonzero integer exponent) pairs.
    Exponents may be negative (several step weights and linearization
    formulas divide by alpha-bars).  When tsq is set, the generator t
    obeys t**2 = tsq and stored t exponents are reduced to 0 or 1.
    Instances are immutable: every operation builds a new one.
    """

    __slots__ = ("terms", "tsq")

    def __init__(self, terms=None, tsq=None):
        if tsq is not None and not isinstance(tsq, Fraction):
            tsq = Fraction(tsq)
        clean = {}
        if terms:
            for key, c in terms.items():
                c = _cnorm(c)
                if c == 0:
                    continue
                m, te = key
                if te and tsq is not None and te not in (0, 1):
                    qp, te = divmod(te, 2)
                    c = _cmul(c, tsq ** qp)
                    c0 = clean.get((m, te))
                    if c0 is not None:
                        c = _cadd(c0, c)
                        if c == 0:
                            del clean[(m, te)]
                            continue
                elif te and tsq is None:
                    raise ValueError("t exponent present without t^2 value")
                clean[(m, te)] = c
        self.terms = clean
        self.tsq = tsq

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, ExactScalar):
            return x
        if isinstance(x, (int, Fraction, GaussianRational)):
            return ExactScalar({((), 0): x})
        return None

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def constant_value(self):
        """The coefficient of the empty monomial, or None if non-constant."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and ((), 0) in self.terms:
            return self.terms[((), 0)]
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        tsq = _join_tsq(self.tsq, other.tsq)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            acc = _cadd(terms.get(k, 0), c)
            if acc == 0:
                terms.pop(k, None)
            else:
                terms[k] = acc
        out = ExactScalar.__new__(ExactScalar)
        out.terms = terms
        out.tsq = tsq
        return out

    __radd__ = __add__

    def __neg__(self):
        out = ExactScalar.__new__(ExactScalar)
        out.terms = {k: -c for k, c in self.terms.items()}
        out.tsq = self.tsq
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        tsq = _join_tsq(self.tsq, other.tsq)
        terms = {}
        for (m1, t1), c1 in self.terms.items():
            for (m2, t2), c2 in other.terms.items():
                c = _cmul(c1, c2)
                m = _merge_monom(m1, m2)
                te = t1 + t2
                if te and te not in (0, 1):
                    qp, te = divmod(te, 2)
                    c = _cmul(c, tsq ** qp)
                key = (m, te)
                acc = _cadd(terms.get(key, 0), c)
                if acc == 0:
                    terms.pop(key, None)
                else:
                    terms[key] = acc
        out = ExactScalar.__new__(ExactScalar)
        out.terms = terms
        out.tsq = tsq
        return out

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; only single-term scalars are units here."""
        if len(self.terms) != 1:
            raise ExactDivisionError(
                "only single-term symbolic scalars are invertible")
        ((m, te), c), = self.terms.items()
        im = tuple((s, -e) for s, e in m)
        return ExactScalar({(im, -te): _cdiv(1, c)}, self.tsq)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        result = ExactScalar({((), 0): 1}, self.tsq)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("symbolic division by zero")
        if len(other.terms) == 1:
            return self * other.inverse()
        return _exact_divide(self, other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def conjugate(self):
        terms = {}
        for (m, te), c in self.terms.items():
            cm = tuple(sorted((Symbol(s.index, not s.barred), e)
                              for s, e in m))
            terms[(cm, te)] = _cconj(c)
        return ExactScalar(terms, self.tsq)

    # -- queries -----------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def symbol_indices(self):
        return sorted({s.index for (m, _), _ in self.terms.items()
                       for s, _ in m})

    def evaluate(self, assignment):
        """Numeric value with alpha_j = assignment[j] (ab_j its conjugate)."""
        total = 0j
        tval = None
        for (m, te), c in self.terms.items():
            v = complex(c)
            for s, e in m:
                if s.index not in assignment:
                    raise KeyError(
                        "no numeric value assigned for index %d" % s.index)
                a = complex(assignment[s.index])
                if s.barred:
                    a = a.conjugate()
                v *= a ** e
            if te:
                if tval is None:
                    tval = float(self.tsq) ** 0.5
                v *= tval ** te
            total += v
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (m, te) in sorted(self.terms):
            c = self.terms[(m, te)]
            factors = []
            for s, e in m:
                factors.append(str(s) if e == 1 else "%s^%d" % (s, e))
            if te:
                factors.append("t" if te == 1 else "t^%d" % te)
            body = "*".join(factors)
            cs = str(c)
            if body:
                if cs == "1":
                    text = body
                elif cs == "-1":
                    text = "-" + body
                else:
                    text = cs + "*" + body
            else:
                text = cs
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


def _exact_divide(f, g):
    """Exact quotient f/g in the symbol ring; raises if not divisible.

    Laurent supports are first shifted to nonnegative exponents, then a
    graded-lex long division by the single divisor g runs; for divisible
    inputs every intermediate remainder is a multiple of g, so the
    leading-term division never fails.  Multi-term divisors containing
    the adjoined root t are not supported (never needed).
    """
    if any(te for (_, te) in f.terms) or any(te for (_, te) in g.terms):
        raise ExactDivisionError(
            "division by multi-term scalars with the adjoined root")
    tsq = _join_tsq(f.tsq, g.tsq)
    variables = sorted({s for (m, _) in f.terms for s, _ in m} |
                       {s for (m, _) in g.terms for s, _ in m})
    index = {s: i for i, s in enumerate(variables)}
    nv = len(variables)

    def to_vec(terms):
        out = {}
        for (m, _), c in terms.items():
            v = [0] * nv
            for s, e in m:
                v[index[s]] = e
            out[tuple(v)] = c
        return out

    fv, gv = to_vec(f.terms), to_vec(g.terms)
    shift_f = [min((0,) + tuple(k[i] for k in fv)) for i in range(nv)]
    shift_g = [min((0,) + tuple(k[i] for k in gv)) for i in range(nv)]
    fv = {tuple(k[i] - shift_f[i] for i in range(nv)): c
          for k, c in fv.items()}
    gv = {tuple(k[i] - shift_g[i] for i in range(nv)): c
          for k, c in gv.items()}

    def order(k):
        return (sum(k), k)

    glead = max(gv, key=order)
    gc = gv[glead]
    quot = {}
    rem = dict(fv)
    while rem:
        rlead = max(rem, key=order)
        diff = tuple(rlead[i] - glead[i] for i in range(nv))
        if any(d < 0 for d in diff):
            raise ExactDivisionError("nonzero remainder in symbolic division")
        qc = _cdiv(rem[rlead], gc)
        quot[diff] = qc
        for k, c in gv.items():
            kk = tuple(k[i] + diff[i] for i in range(nv))
            acc = _cadd(rem.get(kk, 0), -_cmul(qc, c))
            if acc == 0:
                rem.pop(kk, None)
            else:
                rem[kk] = acc

    terms = {}
    for k, c in quot.items():
        m = tuple((variables[i], k[i] + shift_f[i] - shift_g[i])
                  for i in range(nv)
                  if k[i] + shift_f[i] - shift_g[i] != 0)
        terms[(m, 0)] = c
    return ExactScalar(terms, tsq)


# ---------------------------------------------------------------------------
# constructors

def sym(j, barred=False):
    """alpha_j (or its conjugate); j = -1 collapses to the constant -1."""
    if j == -1:
        return gauss(-1)
    if j < -1:
        raise ValueError("symbol index must be >= -1, got %d" % j)
    return ExactScalar({(((Symbol(j, barred), 1),), 0): 1})


def alpha(j):
    return sym(j, False)


def alpha_bar(j):
    return sym(j, True)


def gauss(re, im=0):
    """A constant symbolic scalar with exact rational parts."""
    return ExactScalar({((), 0): GaussianRational(re, im)})


def t_root(q):
    """The generator t with t**2 = q (q a positive rational)."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("t^2 must be a positive rational, got %s" % q)
    return ExactScalar({((), 1): 1}, tsq=q)


SYM_ZERO = ExactScalar()
SYM_ONE = ExactScalar({((), 0): 1})


# ---------------------------------------------------------------------------
# mode-agnostic helpers

def conjugate(x):
    """Complex conjugate for either scalar representation."""
    if isinstance(x, (ExactScalar, complex)):
        return x.conjugate()
    if isinstance(x, GaussianRational):
        return x.conjugate()
    if isinstance(x, (int, float, Fraction)):
        return x
    raise TypeError("cannot conjugate %r" % type(x))


def exact_div(a, b):
    """Division appropriate to the representation: exact or complex."""
    if isinstance(a, ExactScalar) or isinstance(b, ExactScalar):
        a = a if isinstance(a, ExactScalar) else ExactScalar._coerce(a)
        return a / b
    return a / b


def zero_of(mode):
    return SYM_ZERO if mode == SYMBOLIC else 0j


def one_of(mode):
    return SYM_ONE if mode == SYMBOLIC else complex(1)


def as_mode_scalar(x, mode):
    """Coerce an exact constant (int/Fraction/GaussianRational) to a mode."""
    if mode == SYMBOLIC:
        if isinstance(x, ExactScalar):
            return x
        if isinstance(x, (int, Fraction, GaussianRational)):
            return ExactScalar({((), 0): x})
        raise TypeError("cannot use %r in symbolic mode" % type(x))
    if isinstance(x, ExactScalar):
        c = x.constant_value()
        if c is None:
            raise TypeError("non-constant symbolic scalar in numeric mode")
        return complex(c) if isinstance(c, GaussianRational) else complex(c)
    return complex(x)


def evaluate_numeric(x, assignment):
    """Evaluate a scalar at concrete alpha values (ab_j gets the conjugate)."""
    if isinstance(x, ExactScalar):
        return x.evaluate(assignment)
    return complex(x)


def values_close(a, b, tol=1e-9):
    """Exact equality for symbolic scalars, relative closeness otherwise."""
    if isinstance(a, ExactScalar) or isinstance(b, ExactScalar):
        return a == b
    return abs(a - b) <= tol * (1 + abs(b))


def render_scalar(x):
    """Canonical text form used by the CLI and golden tests."""
    if isinstance(x, ExactScalar):
        return str(x)
    x = complex(x)
    if x.imag == 0:
        return repr(x.real)
    return repr(x)


def beta_form(x):
    """Rewrite a symbolic polynomial with ab_j replaced by -b_j.

    Returns a map from monomials in the variables a_j, b_j to rational
    coefficients; monomials are sorted tuples of ((index, kind), exp)
    with kind "a" or "b".  Requires a genuine polynomial: nonnegative
    exponents and no adjoined root.
    """
    if not isinstance(x, ExactScalar):
        raise TypeError("beta_form needs a symbolic scalar")
    out = {}
    for (m, te), c in x.terms.items():
        if te:
            raise ValueError("adjoined root present; not a polynomial "
                             "in the Verblunsky symbols")
        bar_degree = 0
        key = []
        for s, e in m:
            if e < 0:
                raise ValueError("negative exponent; not a polynomial")
            if s.barred:
                bar_degree += e
                key.append(((s.index, "b"), e))
            else:
                key.append(((s.index, "a"), e))
        key = tuple(sorted(key))
        coeff = c if bar_degree % 2 == 0 else -c
        acc = _cadd(out.get(key, 0), coeff)
        if acc == 0:
            out.pop(key, None)
        else:
            out[key] = acc
    return out


def render_beta_monomial(key):
    if not key:
        return "1"
    return "*".join("%s%d" % (kind, idx) if e == 1
                    else "%s%d^%d" % (kind, idx, e)
                    for (idx, kind), e in key)


def is_polynomial(x):
    """True when a symbolic scalar has no negative exponents and no t."""
    if not isinstance(x, ExactScalar):
        raise TypeError("is_polynomial needs a symbolic scalar")
    for (m, te) in x.terms:
        if te:
            return False
        if any(e < 0 for _, e in m):
            return False
    return True


# ---------------------------------------------------------------------------
# Laurent polynomials in z over either scalar representation

class LaurentPoly:
    """Finite map from integer z-exponents to scalars, with a mode tag."""

    __slots__ = ("coeffs", "mode")

    def __init__(self, coeffs, mode):
        self.coeffs = {k: c for k, c in coeffs.items() if c}
        self.mode = mode

    @classmethod
    def zero(cls, mode):
        return cls({}, mode)

    @classmethod
    def one(cls, mode):
        return cls({0: one_of(mode)}, mode)

    @classmethod
    def z_power(cls, k, mode):
        return cls({k: one_of(mode)}, mode)

    @property
    def is_zero(self):
        return not self.coeffs

    def coeff(self, k):
        return self.coeffs.get(k, zero_of(self.mode))

    def degree(self):
        if not self.coeffs:
            return None
        return max(self.coeffs)

    def valuation(self):
        if not self.coeffs:
            return None
        return min(self.coeffs)

    def support(self):
        return sorted(self.coeffs)

    def _check(self, other):
        if self.mode != other.mode:
            raise ValueError("mode mismatch: %s vs %s"
                             % (self.mode, other.mode))

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            acc = out.get(k)
            acc = c if acc is None else acc + c
            if not acc:
                out.pop(k, None)
            else:
                out[k] = acc
        return LaurentPoly(out, self.mode)

    def __neg__(self):
        return LaurentPoly({k: -c for k, c in self.coeffs.items()}, self.mode)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        self._check(other)
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                c = c1 * c2
                acc = out.get(k)
                acc = c if acc is None else acc + c
                if not acc:
                    out.pop(k, None)
                else:
                    out[k] = acc
        return LaurentPoly(out, self.mode)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        return LaurentPoly({k: v * c for k, v in self.coeffs.items()},
                           self.mode)

    def shift(self, d):
        """Multiply by z**d."""
        return LaurentPoly({k + d: c for k, c in self.coeffs.items()},
                           self.mode)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.mode == other.mode and self.coeffs == other.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            c = render_scalar(self.coeffs[k])
            if "+" in c[1:] or "-" in c[1:] or " " in c:
                c = "(%s)" % c
            if k == 0:
                parts.append(c)
            else:
                zp = "z" if k == 1 else "z^%d" % k
                parts.append(zp if c == "1" else "%s*%s" % (c, zp))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


def bar_inverse_substitute(f):
    """Conjugate every coefficient and replace z by 1/z."""
    return LaurentPoly({-k: conjugate(c) for k, c in f.coeffs.items()},
                       f.mode)
