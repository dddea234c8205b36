"""Exact scalar arithmetic over the Verblunsky symbols.

Two scalar representations flow through this library:

* symbolic mode: a symbol-free value is a GaussianRational, an element
  a + b*t of the field Q(i)(t) with a, b Gaussian rationals and t an
  adjoined root, t**2 a fixed positive rational (square roots of a
  family's rational parameter).  It is stored as four int numerators
  over one int denominator, reduced to lowest terms, so a field
  operation is a few integer products and one gcd, and no Fraction is
  built.  Once a symbol enters, the value is an ExactScalar, a sparse
  Laurent polynomial over that field in the symbols a_j and ab_j (a_j
  stands for alpha_j, ab_j for its complex conjugate; the bar is kept
  as a flag so conjugation is a symbol swap plus coefficient
  conjugation).  Its coefficients are ints, Fractions or field
  elements, so the generic symbols' integer rings stay in int
  arithmetic.
* numeric mode: the builtin ``complex``, used directly so the dynamic
  programs run at native speed.

Module helpers (conjugate, evaluate_numeric, render_scalar, render_batch)
accept every representation, which keeps the rest of the library
mode-agnostic, and plain ``/`` divides exactly in symbolic mode.  A
scalar of any kind is false exactly when it is zero, so a plain truth
test is the zero test in both modes.  Integers and Fractions coerce into
either mode; floats and complexes are rejected by the symbolic side to
preserve exactness.  Equal exact values compare and hash alike, whatever
their types.

Convention: symbol index -1 encodes the boundary value alpha_{-1} = -1.
Constructors eliminate it immediately, so stored symbols always have
index >= 0.

Packed monomials: an ExactScalar stores each monomial as one Python int,
the sum of e_f << 16*f over signed 16-bit exponent fields (Kronecker
substitution): field 2j holds the exponent of a_j, field 2j+1 that of
ab_j.  A monomial product is then one int addition, and conjugation
swaps neighbouring fields.  Every exponent must stay within
+-EXPONENT_LIMIT (32767): each scalar carries a bound on its exponents
(the sum of the factors' bounds for a product, their maximum for a sum),
and a product whose bound would pass the limit raises OverflowError
rather than let a field wrap.  `_decode` turns a key into its nonzero
(field, exponent) pairs, fields ascending, for evaluation, beta_form and
the like.  The text form reads the fields directly and prints the terms
in the order of those pairs, a coefficient's t part right after the
rest; render_batch decodes and orders the monomials of many values at
once, and a single value's text is its one-value case.
"""

import heapq
import math
import sys
from array import array
from fractions import Fraction
from operator import itemgetter

from .errors import ExactDivisionError

SYMBOLIC = "symbolic"
NUMERIC = "numeric"


# ---------------------------------------------------------------------------
# text forms shared by the field, the ring and the z-polynomials

def _gauss_text(re, im):
    if not im:
        return str(re)
    imt = "i" if im == 1 else ("-i" if im == -1 else "%si" % im)
    if not re:
        return imt
    return "(%s%s%s)" % (re, "+" if im > 0 else "", imt)


def _term_text(body, cs):
    """One term: the coefficient text cs times the factors in body."""
    if body and cs in ("1", "-1"):
        return cs[:-1] + body
    return cs + "*" + body if body else cs


def _join_terms(texts):
    """Term texts joined by " + ", or by " - " before a negative term."""
    return texts[0] + "".join(" - " + t[1:] if t[0] == "-" else " + " + t
                              for t in texts[1:])


def _power(x, n, one):
    """x**n by repeated squaring; a negative n powers the inverse."""
    if not isinstance(n, int):
        raise TypeError("exponent must be an integer")
    if n < 0:
        x, n = x.inverse(), -n
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


# ---------------------------------------------------------------------------
# the coefficient field Q(i)(t)

class GaussianRational:
    """An element a + b*t of the exact coefficient field Q(i)(t).

    a and b are Gaussian rationals and t is the adjoined root with
    t*t = q, a positive rational Fraction.  The element is stored as five
    ints over one denominator, (n0 + n1*i + (n2 + n3*i)*t) / den, in
    canonical form: den > 0 and the five ints coprime, so equal elements
    have equal ints, and q is None exactly when n2 = n3 = 0.  An element
    without t therefore meets any other, while two elements whose roots
    have different squares refuse to meet (ValueError).  A product is
    Gaussian-integer products over den1 * den2, reduced by one gcd; a sum
    cross-multiplies by the cofactors of gcd(den1, den2) and reduces by a
    gcd with that gcd alone.  re, im, tre and tim read the parts of a
    and b, each an int when den is 1 and a Fraction otherwise.  Ints and
    Fractions mix in as the rationals they are.  Instances are immutable.
    """

    __slots__ = ("n0", "n1", "n2", "n3", "den", "q")

    def __init__(self, re=0, im=0):
        re = re if type(re) in (int, Fraction) else Fraction(re)
        im = im if type(im) in (int, Fraction) else Fraction(im)
        # over the lcm of two reduced denominators the parts stay coprime
        den = math.lcm(re.denominator, im.denominator)
        self.n0 = re.numerator * (den // re.denominator)
        self.n1 = im.numerator * (den // im.denominator)
        self.n2 = self.n3 = 0
        self.den, self.q = den, None

    @staticmethod
    def _quotient(c, d):
        """c / d for exact coefficients, an int when ints divide evenly,
        so integer rings stay integral."""
        if type(c) is int and type(d) is int:
            return c // d if not c % d else Fraction(c, d)
        return c / d

    def _part(self, n):
        return n if self.den == 1 else Fraction(n, self.den)

    re = property(lambda self: self._part(self.n0))
    im = property(lambda self: self._part(self.n1))
    tre = property(lambda self: self._part(self.n2))
    tim = property(lambda self: self._part(self.n3))

    def _root(self, other):
        # the q of a value formed from self and other; other carries t
        q = self.q
        if q is None or q is other.q or q == other.q:
            return other.q
        raise ValueError("incompatible adjoined roots: t^2=%s vs t^2=%s"
                         % (q, other.q))

    def _plus(self, other, sign):
        """self + sign*other, other a field element, sign 1 or -1."""
        da, db = self.den, other.den
        g = da if da == db else math.gcd(da, db)
        # den is lcm(da, db), and u, v scale the numerators to it
        u, v = db // g, da // g
        den = v * db
        if sign < 0:
            v = -v
        n0 = self.n0 * u + other.n0 * v
        # a common factor of the sum and den divides g, as each summand
        # is reduced (Knuth, TAOCP 4.5.1)
        if self.q is None is other.q and not (self.n1 or other.n1):
            h = math.gcd(n0, g)
            if h != 1:
                return _new(n0 // h, 0, 0, 0, den // h, None)
            return _new(n0, 0, 0, 0, den, None)
        q = self.q if other.q is None else self._root(other)
        n1 = self.n1 * u + other.n1 * v
        n2 = self.n2 * u + other.n2 * v
        n3 = self.n3 * u + other.n3 * v
        h = math.gcd(g, n0, n1, n2, n3)
        if h != 1:
            return _new(n0 // h, n1 // h, n2 // h, n3 // h, den // h, q)
        return _new(n0, n1, n2, n3, den, q)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _embed(other)
            if other is None:
                return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.n0, -self.n1, -self.n2, -self.n3, self.den, self.q)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _embed(other)
            if other is None:
                return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _embed(other)
            if other is None:
                return NotImplemented
        a0, a1, b0, b1 = self.n0, self.n1, other.n0, other.n1
        den = self.den * other.den
        if self.q is None is other.q and not (a1 or b1):
            n0 = a0 * b0
            g = math.gcd(n0, den)
            if g != 1:
                return _new(n0 // g, 0, 0, 0, den // g, None)
            return _new(n0, 0, 0, 0, den, None)
        # (A + B*t)(C + D*t) = A*C + B*D*q + (A*D + B*C)*t, with Gaussian
        # integers A = a0 + a1*i, B = a2 + a3*i, C and D likewise
        n0, n1 = a0 * b0 - a1 * b1, a0 * b1 + a1 * b0
        if self.q is None is other.q:
            q, n2, n3 = None, 0, 0
        else:
            q = self.q if other.q is None else self._root(other)
            a2, a3, b2, b3 = self.n2, self.n3, other.n2, other.n3
            n2 = a0 * b2 - a1 * b3 + a2 * b0 - a3 * b1
            n3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
            if self.q is not None and other.q is not None:
                # B*D*q over q's denominator r: scale everything by r
                p, r = q.numerator, q.denominator
                n0 = r * n0 + p * (a2 * b2 - a3 * b3)
                n1 = r * n1 + p * (a2 * b3 + a3 * b2)
                n2, n3, den = r * n2, r * n3, r * den
        g = math.gcd(n0, n1, n2, n3, den)
        if g != 1:
            return _new(n0 // g, n1 // g, n2 // g, n3 // g, den // g, q)
        return _new(n0, n1, n2, n3, den, q)

    __rmul__ = __mul__

    def inverse(self):
        """1 / self.  (A + B*t) * (A - B*t) = A*A - B*B*q, a Gaussian
        rational, and a Gaussian integer M times conj(M) is an int."""
        a0, a1, d = self.n0, self.n1, self.den
        if self.q is None:
            if not a1:
                if not a0:
                    raise ZeroDivisionError("%s has no inverse" % self)
                # d / a0, already coprime
                return _new(-d if a0 < 0 else d, 0, 0, 0, abs(a0), None)
            m0, m1, scale = a0, a1, d
            x0, x1, x2, x3 = 1, 0, 0, 0
        else:
            a2, a3, q = self.n2, self.n3, self.q
            p, r = q.numerator, q.denominator
            # M = r*A*A - p*B*B, so that 1/self = d*r*(A - B*t) / M
            m0 = r * (a0 * a0 - a1 * a1) - p * (a2 * a2 - a3 * a3)
            m1 = 2 * (r * a0 * a1 - p * a2 * a3)
            scale = d * r
            x0, x1, x2, x3 = a0, a1, -a2, -a3
        norm = m0 * m0 + m1 * m1
        if not norm:
            raise ZeroDivisionError("%s has no inverse" % self)
        # (x0 + x1*i) * conj(M) and (x2 + x3*i) * conj(M), times scale
        n0 = scale * (x0 * m0 + x1 * m1)
        n1 = scale * (x1 * m0 - x0 * m1)
        n2 = scale * (x2 * m0 + x3 * m1)
        n3 = scale * (x3 * m0 - x2 * m1)
        g = math.gcd(n0, n1, n2, n3, norm)
        return _new(n0 // g, n1 // g, n2 // g, n3 // g, norm // g, self.q)

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _embed(other)
            if other is None:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        return _power(self, n, _ONE)

    def conjugate(self):
        # t is real
        return _new(self.n0, -self.n1, self.n2, -self.n3, self.den, self.q)

    def _key(self):
        return self.n0, self.n1, self.n2, self.n3, self.den, self.q

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _embed(other)
            if other is None:
                return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        # a rational element hashes as the int or Fraction it equals
        if self.q is None and not self.n1:
            return hash(self.re)
        return hash(self._key())

    def __bool__(self):
        return self.q is not None or bool(self.n0 or self.n1)

    @property
    def is_zero(self):
        return not self

    def __complex__(self):
        d = self.den
        v = complex(self.n0 / d) + 1j * complex(self.n1 / d)
        if self.q is not None:
            v += (complex(self.n2 / d) + 1j * complex(self.n3 / d)) \
                * float(self.q) ** 0.5
        return v

    # an ExactScalar's queries, answered for the constant this stands for

    def symbol_indices(self):
        return []

    def evaluate(self, assignment):
        return complex(self)

    def _rows(self):
        """(t exponent, text) of the nonzero parts a and b, a first."""
        return [(te, _gauss_text(self._part(x), self._part(y)))
                for te, x, y in ((0, self.n0, self.n1), (1, self.n2, self.n3))
                if x or y]

    def __str__(self):
        if self.q is None:
            return _gauss_text(self.re, self.im)
        return _join_terms([_term_text("t" if te else "", cs)
                            for te, cs in self._rows()])

    __repr__ = __str__


def _new(n0, n1, n2, n3, den, q):
    """The element (n0 + n1*i + (n2 + n3*i)*t) / den of canonical ints."""
    out = object.__new__(GaussianRational)
    out.n0, out.n1, out.n2, out.n3, out.den = n0, n1, n2, n3, den
    out.q = q if n2 or n3 else None
    return out


def _embed(x):
    """An int or Fraction as a field element, anything else None."""
    if isinstance(x, (int, Fraction)):
        return _new(x.numerator, 0, 0, 0, x.denominator, None)
    return None


def _has_t(c):
    return type(c) is GaussianRational and c.q is not None


_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


# ---------------------------------------------------------------------------
# packed monomials (layout in the module docstring); ascending field order
# is the symbol order

_BITS = 16
_MASK = (1 << _BITS) - 1
_HALF = 1 << (_BITS - 1)
EXPONENT_LIMIT = _HALF - 1  # the largest |exponent| a field holds
_first, _second = itemgetter(0), itemgetter(1)


def _decode(key):
    """The nonzero (field, exponent) pairs of a packed key, fields ascending.

    Biasing every field by 2**15 makes it nonnegative, so one to_bytes
    splits the key into its fields; a zero exponent reads as 2**15.
    """
    if not key:
        return []
    nf = (abs(key).bit_length() >> 4) + 1
    bias = ((1 << (_BITS * nf)) - 1) // _MASK * _HALF
    fields = array("H", (key + bias).to_bytes(2 * nf, sys.byteorder))
    return [(f, d - _HALF) for f, d in enumerate(fields) if d != _HALF]


class _Chunk(dict):
    """Memo of chunk i of biased keys: a 64-bit chunk (symbol fields
    4i..4i+3) -> its sort bytes and its factor text.

    Each nonzero field f with biased exponent d adds the eight big-endian
    bytes of f << 16 | d, so comparing a term's joined sort bytes compares
    the key's ((field, exponent), ...) pairs.  Keys share few distinct
    chunks, so most lookups hit.
    """

    __slots__ = ("i",)

    def __init__(self, i):
        self.i = i

    def __missing__(self, chunk):
        keys, names = [], []
        for j in range(4):
            f, d = 4 * self.i + j, chunk >> (_BITS * j) & _MASK
            if d == _HALF:
                continue
            e = d - _HALF
            keys.append((f << _BITS | d).to_bytes(8, "big"))
            names.append(("ab%d" if f & 1 else "a%d") % (f >> 1)
                         + ("" if e == 1 else "^%d" % e))
        out = self[chunk] = (b"".join(keys), "*".join(names))
        return out


# _CHUNKS[i] is the memo of chunk i, emptied with the others once they
# hold more than _CHUNKS_KEPT entries in all
_CHUNKS = []
_CHUNKS_KEPT = 4096


def _swap_bars(key):
    """The key with a_j and ab_j exchanged (fields 2j and 2j+1)."""
    return sum(e << (_BITS * (f ^ 1)) for f, e in _decode(key))


def _bound(keys):
    """The largest |exponent| over packed keys."""
    return max((abs(e) for k in keys for _, e in _decode(k)), default=0)


def _scalar(terms, bound):
    out = ExactScalar.__new__(ExactScalar)
    out.terms, out.bound = terms, bound
    return out


class ExactScalar:
    """Sparse Laurent polynomial in the Verblunsky symbols.

    terms maps a packed monomial key (module docstring) to a nonzero
    coefficient: an int, a Fraction or a GaussianRational, so the
    all-integer rings of the generic symbols stay in int arithmetic.
    Exponents may be negative (several step weights and linearization
    formulas divide by alpha-bars).  bound is at least the largest
    |exponent| of any symbol; a product whose bound would pass
    EXPONENT_LIMIT raises OverflowError instead of letting a field wrap.
    Instances are immutable: every operation builds a new one.
    """

    __slots__ = ("terms", "bound")

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in (terms or {}).items() if c}
        self.bound = _bound(self.terms)

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, ExactScalar):
            return x
        if type(x) is GaussianRational:
            if x.q is None and not x.n1:
                # a rational stays an int or a Fraction
                x = x.n0 if x.den == 1 else x.re
        elif not isinstance(x, (int, Fraction)):
            return None
        return _scalar({0: x} if x else {}, 0)

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def constant_value(self):
        """The coefficient of the empty monomial, or None if non-constant."""
        return self.terms.get(0, 0) if self.terms.keys() <= {0} else None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ExactScalar):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        terms = dict(big)
        for k, c in small.items():
            old = terms.get(k)
            if old is None:
                terms[k] = c
                continue
            c = old + c
            if c:
                terms[k] = c
            else:
                del terms[k]
        return _scalar(terms, max(self.bound, other.bound))

    __radd__ = __add__

    def __neg__(self):
        return _scalar({k: -c for k, c in self.terms.items()}, self.bound)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, ExactScalar):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        bound = self.bound + other.bound
        if bound > EXPONENT_LIMIT:
            raise OverflowError("a product's exponents may exceed %d"
                                % EXPONENT_LIMIT)
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        if len(small) == 1:
            # most products scale a row by one monomial: the keys shift
            # injectively, so no two products meet
            (k0, c0), = small.items()
            if c0 == 1:
                terms = {k + k0: c for k, c in big.items()}
            else:
                terms = {k + k0: c * c0 for k, c in big.items()}
        else:
            terms = {}
            get = terms.get
            for k1, c1 in small.items():
                for k2, c2 in big.items():
                    k = k1 + k2
                    c = c1 * c2
                    old = get(k)
                    if old is None:
                        terms[k] = c
                        continue
                    c = old + c
                    if c:
                        terms[k] = c
                    else:
                        del terms[k]
        return _scalar(terms, bound)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; only single-term scalars are units here."""
        if len(self.terms) != 1:
            raise ExactDivisionError(
                "only single-term symbolic scalars are invertible")
        (k, c), = self.terms.items()
        return _scalar({-k: GaussianRational._quotient(1, c)}, self.bound)

    def __pow__(self, n):
        return _power(self, n, _scalar({0: 1}, 0))

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
        return _scalar({_swap_bars(k): c.conjugate()
                        for k, c in self.terms.items()}, self.bound)

    # -- queries -----------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant hashes as the coefficient it equals
        c = self.constant_value()
        return hash(frozenset(self.terms.items()) if c is None else c)

    def symbol_indices(self):
        return sorted({f >> 1 for k in self.terms for f, _ in _decode(k)})

    def evaluate(self, assignment):
        """Numeric value with alpha_j = assignment[j] (ab_j its conjugate)."""
        total = 0j
        for k, c in self.terms.items():
            v = complex(c)
            for f, e in _decode(k):
                if f >> 1 not in assignment:
                    raise KeyError(
                        "no numeric value assigned for index %d" % (f >> 1))
                a = complex(assignment[f >> 1])
                if f & 1:
                    a = a.conjugate()
                v *= a ** e
            total += v
        return total

    def __str__(self):
        return render_batch((self,))[0]

    __repr__ = __str__


def _lift(terms):
    """Shift packed keys to nonnegative exponents.

    Returns ({shifted key: (total degree, coefficient)}, shift key); the
    shift key is subtracted from every key.
    """
    decoded = [(k, _decode(k)) for k in terms]
    low = {}
    for _, pairs in decoded:
        for f, e in pairs:
            if e < low.get(f, 0):
                low[f] = e
    shift = sum(e << (_BITS * f) for f, e in low.items())
    base = sum(low.values())
    lifted = {k - shift: (sum(e for _, e in pairs) - base, terms[k])
              for k, pairs in decoded}
    if max((d for d, _ in lifted.values()), default=0) > EXPONENT_LIMIT:
        raise OverflowError("division needs exponents beyond %d"
                            % EXPONENT_LIMIT)
    return lifted, shift


def _exact_divide(f, g):
    """Exact quotient f/g in the symbol ring; raises if not divisible.

    Laurent supports are first shifted to nonnegative exponents, then a
    long division by the single divisor g runs in graded order (total
    degree, then the packed key); a heap yields each remainder's leading
    term.  For divisible inputs every intermediate remainder is a
    multiple of g, so the leading-term division never fails.  The
    coefficients divide in the field, the adjoined root included.
    """
    fv, shift_f = _lift(f.terms)
    gv, shift_g = _lift(g.terms)
    glead = max(gv, key=lambda k: (gv[k][0], k))
    gdeg, gc = gv[glead]
    # g's other terms, relative to its leading one
    tail = [(k - glead, d - gdeg, c) for k, (d, c) in gv.items()
            if k != glead]
    rem = {k: c for k, (_, c) in fv.items()}
    heap = [(-d, -k) for k, (d, _) in fv.items()]
    heapq.heapify(heap)
    quot = {}
    while rem:
        negdeg, negkey = heapq.heappop(heap)
        lead = -negkey
        c = rem.pop(lead, None)
        if c is None:  # cancelled since it was pushed
            continue
        diff = lead - glead
        if any(e < 0 for _, e in _decode(diff)):
            raise ExactDivisionError("nonzero remainder in symbolic division")
        qc = GaussianRational._quotient(c, gc)
        quot[diff + shift_f - shift_g] = qc
        for dk, dd, tc in tail:
            kk = lead + dk
            sub = -(qc * tc)
            old = rem.get(kk)
            if old is None:
                rem[kk] = sub
                heapq.heappush(heap, (negdeg - dd, -kk))
                continue
            acc = old + sub
            if acc:
                rem[kk] = acc
            else:
                del rem[kk]
    # the Newton polytope of f is that of q plus that of g, so every
    # exponent of q lies within f.bound + g.bound
    return _scalar(quot, f.bound + g.bound)


def exact_sum(values):
    """The sum of exact values, the ExactScalars merged into one term
    table at once: adding one at a time re-merges the growing total."""
    terms, bound, rest = {}, 0, _ZERO
    for x in values:
        if not isinstance(x, ExactScalar):
            rest = rest + x
            continue
        bound = max(bound, x.bound)
        for k, c in x.terms.items():
            old = terms.get(k)
            terms[k] = c if old is None else old + c
    return rest + _scalar({k: c for k, c in terms.items() if c}, bound) \
        if terms else rest


# ---------------------------------------------------------------------------
# constructors

def sym(j, barred=False):
    """alpha_j (or its conjugate); j = -1 collapses to the constant -1."""
    if j == -1:
        return gauss(-1)
    if j < -1:
        raise ValueError("symbol index must be >= -1, got %d" % j)
    return _scalar({1 << (_BITS * (2 * j + barred)): 1}, 1)


def alpha(j):
    return sym(j, False)


def alpha_bar(j):
    return sym(j, True)


def gauss(re, im=0):
    """The symbol-free exact constant re + im*i."""
    return GaussianRational(re, im)


def t_root(q):
    """The generator t with t**2 = q (q a positive rational).

    When q is the square of a rational, t is that rational: adjoining it
    would give the ring Q(i)[t]/(t*t - q), which has zero divisors.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError("t^2 must be a positive rational, got %s" % q)
    top, bottom = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if top * top == q.numerator and bottom * bottom == q.denominator:
        return GaussianRational(GaussianRational._quotient(top, bottom))
    return _new(0, 0, 1, 0, 1, q)


# ---------------------------------------------------------------------------
# mode-agnostic helpers

def conjugate(x):
    """Complex conjugate for either scalar representation."""
    if isinstance(x, (ExactScalar, GaussianRational, complex, int, float,
                      Fraction)):
        return x.conjugate()
    raise TypeError("cannot conjugate %r" % type(x))


def zero_of(mode):
    return _ZERO if mode == SYMBOLIC else 0j


def one_of(mode):
    return _ONE if mode == SYMBOLIC else complex(1)


def as_mode_scalar(x, mode):
    """Coerce an exact constant (int/Fraction/GaussianRational) to a mode."""
    if mode == SYMBOLIC:
        if isinstance(x, (ExactScalar, GaussianRational)):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError("cannot use %r in symbolic mode" % type(x))
    if isinstance(x, ExactScalar):
        c = x.constant_value()
        if c is None:
            raise TypeError("non-constant symbolic scalar in numeric mode")
        return complex(c)
    return complex(x)


def evaluate_numeric(x, assignment):
    """Evaluate a scalar at concrete alpha values (ab_j gets the conjugate)."""
    if isinstance(x, ExactScalar):
        return x.evaluate(assignment)
    return complex(x)


def values_close(a, b, tol=1e-9):
    """Exact equality for exact values, relative closeness between a float
    or complex number and a symbol-free value."""
    if (isinstance(a, ExactScalar) or isinstance(b, ExactScalar)
            or not isinstance(a, (float, complex))
            and not isinstance(b, (float, complex))):
        return a == b
    a, b = complex(a), complex(b)
    return abs(a - b) <= tol * (1 + abs(b))


def render_scalar(x):
    """Canonical text of one scalar, for LaurentPoly's coefficients and
    render_batch; the CLI prints floats in its own %.12g form."""
    if isinstance(x, (ExactScalar, GaussianRational)):
        return str(x)
    x = complex(x)
    if x.imag == 0:
        return repr(x.real)
    return repr(x)


def _ordered_monomials(keys):
    """(sort bytes, factor text, key) of each packed key, in text order.

    One to_bytes splits a biased key into 64-bit chunks of four fields
    each, and the chunk memos give each chunk's share of both.
    """
    if not keys:
        return []
    nq = (max(map(abs, keys)).bit_length() >> 6) + 1
    bias = ((1 << (64 * nq)) - 1) // _MASK * _HALF
    size, order = 8 * nq, sys.byteorder
    if sum(map(len, _CHUNKS)) > _CHUNKS_KEPT:
        _CHUNKS.clear()
    while len(_CHUNKS) < nq:
        _CHUNKS.append(_Chunk(len(_CHUNKS)))
    rows = []
    chunk, sort_join, text_join = _Chunk.__getitem__, b"".join, "*".join
    for k in keys:
        frags = list(map(chunk, _CHUNKS,
                         array("Q", (k + bias).to_bytes(size, order))))
        rows.append((sort_join(map(_first, frags)),
                     text_join(filter(None, map(_second, frags))), k))
    rows.sort()
    return rows


def _poly_text(terms, ordered):
    """The text of an ExactScalar's terms; ordered holds the
    _ordered_monomials row of each of its keys, in text order."""
    if not terms:
        return "0"
    rows = []
    for _, text, k in ordered:
        c = terms[k]
        if type(c) is GaussianRational and c.q is not None:
            rows += [_term_text(text + ("*t" if text else "t") if te
                                else text, cs)
                     for te, cs in c._rows()]
        else:
            rows.append(_term_text(text, str(c)))
    return _join_terms(rows)


def render_batch(values):
    """[render_scalar(x) for x in values], with the monomials of the
    batch's ExactScalars decoded and put in order once.

    A listing's weights and their total share most of their monomials:
    each distinct key is decoded once per batch, and a value's terms are
    then ordered by their keys' ranks in the batch.
    """
    polys = [x for x in values if isinstance(x, ExactScalar)]
    if len(polys) == 1:
        ranked = _ordered_monomials(polys[0].terms)
    else:
        ranked = _ordered_monomials(set().union(*[x.terms for x in polys]))
        rank = {k: i for i, (_, _, k) in enumerate(ranked)}.__getitem__
    out = []
    for x in values:
        if not isinstance(x, ExactScalar):
            out.append(render_scalar(x))
        elif len(polys) == 1:
            out.append(_poly_text(x.terms, ranked))
        else:
            out.append(_poly_text(x.terms, [
                ranked[i] for i in sorted(map(rank, x.terms))]))
    return out


def _polynomial_terms(x, what):
    # the terms of an exact value, a field element read as a constant
    out = ExactScalar._coerce(x)
    if out is None:
        raise TypeError("%s needs a symbolic scalar" % what)
    return out.terms


def beta_form(x):
    """Rewrite a symbolic polynomial with ab_j replaced by -b_j.

    Returns a map from monomials in the variables a_j, b_j to rational
    coefficients; monomials are sorted tuples of ((index, kind), exp)
    with kind "a" or "b".  Requires a genuine polynomial: nonnegative
    exponents and no adjoined root.
    """
    out = {}
    for k, c in _polynomial_terms(x, "beta_form").items():
        if _has_t(c):
            raise ValueError("adjoined root present; not a polynomial "
                             "in the Verblunsky symbols")
        # a_j sorts before ab_j, as (j, "a") before (j, "b"), and distinct
        # monomials stay distinct, so nothing is merged
        m = _decode(k)
        if any(e < 0 for _, e in m):
            raise ValueError("negative exponent; not a polynomial")
        key = tuple(((f >> 1, "ab"[f & 1]), e) for f, e in m)
        out[key] = -c if sum(e for f, e in m if f & 1) % 2 else c
    return out


def render_beta_monomial(key):
    if not key:
        return "1"
    return "*".join("%s%d" % (kind, idx) if e == 1
                    else "%s%d^%d" % (kind, idx, e)
                    for (idx, kind), e in key)


def is_polynomial(x):
    """True when a symbolic scalar has no negative exponents and no t."""
    return not any(_has_t(c) or any(e < 0 for _, e in _decode(k))
                   for k, c in _polynomial_terms(x, "is_polynomial").items())


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

    def minus_scaled(self, other, c, d):
        """self - c * z**d * other in one dict, with the keys, products
        and sums of `self - other.shift(d).scale(c)`: self's keys first,
        then other's new ones in other's order."""
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            t = v * c
            if not t:
                continue
            k += d
            acc = out.get(k)
            acc = -t if acc is None else acc + (-t)
            if not acc:
                out.pop(k, None)
            else:
                out[k] = acc
        poly = LaurentPoly.__new__(LaurentPoly)
        poly.coeffs, poly.mode = out, self.mode
        return poly

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
        return _join_terms(parts)

    __repr__ = __str__


def bar_inverse_substitute(f):
    """Conjugate every coefficient and replace z by 1/z."""
    return LaurentPoly({-k: conjugate(c) for k, c in f.coeffs.items()},
                       f.mode)
