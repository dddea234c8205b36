"""Exact scalar arithmetic over the Verblunsky symbols.

Two scalar representations flow through this library:

* symbolic mode: a symbol-free value is a GaussianRational, an element
  a + b*t of the field Q(i)(t) with a, b Gaussian rationals and t an
  adjoined root, t**2 a fixed positive rational (square roots of a
  family's rational parameter).  Once a symbol enters, the value is an
  ExactScalar, a sparse Laurent polynomial over that field in the
  symbols a_j and ab_j (a_j stands for alpha_j, ab_j for its complex
  conjugate; the bar is kept as a flag so conjugation is a symbol swap
  plus coefficient conjugation).
* numeric mode: the builtin ``complex``, used directly so the dynamic
  programs run at native speed.

Module helpers (conjugate, evaluate_numeric, render_scalar) accept every
representation, which keeps the rest of the library mode-agnostic, and
plain ``/`` divides exactly in symbolic mode.  A scalar of any kind is
false exactly when it is zero, so a plain truth test is the zero test
in both modes.  Integers and Fractions coerce into either mode; floats
and complexes are rejected by the symbolic side to preserve exactness.
Equal exact values compare and hash alike, whatever their types.

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
rather than let a field wrap.  Keys are decoded into (Symbol, exponent)
pairs only for evaluation, beta_form and the like; the text form reads
the fields directly and prints the terms in the order of those pairs, a
coefficient's t part right after the rest.
"""

import heapq
import math
import sys
from array import array
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

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

    a = re + im*i and b = tre + tim*i are Gaussian rationals whose parts
    are ints or Fractions, and t is the adjoined root with t*t = q, a
    positive rational.  q is None exactly when b = 0, so an element
    without t meets any other, while two elements whose roots have
    different squares refuse to meet (ValueError).  Ints and Fractions
    mix in as the rationals they are.  Instances are immutable.
    """

    __slots__ = ("re", "im", "tre", "tim", "q")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) in (int, Fraction) else Fraction(re)
        self.im = im if type(im) in (int, Fraction) else Fraction(im)
        self.tre = self.tim = 0
        self.q = None

    @staticmethod
    def _quotient(c, d):
        """c / d for exact coefficients, an int when ints divide evenly,
        so integer rings stay integral."""
        if type(c) is int and type(d) is int:
            return c // d if not c % d else Fraction(c, d)
        return c / d

    def _root(self, other):
        # the q of a value formed from self and other; other carries t
        if self.q is None or self.q == other.q:
            return other.q
        raise ValueError("incompatible adjoined roots: t^2=%s vs t^2=%s"
                         % (self.q, other.q))

    def __add__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _field(other, 0)
        if self.q is None is other.q and not (self.im or other.im):
            a, c = self.re, other.re
            return _field(a + c if a and c else a or c, 0)
        q = self.q if other.q is None else self._root(other)
        return _field(*[x + y if x and y else x or y for x, y in
                        zip((self.re, self.im, self.tre, self.tim),
                            (other.re, other.im, other.tre, other.tim))], q)

    __radd__ = __add__

    def __neg__(self):
        return _field(-self.re, -self.im, -self.tre, -self.tim, self.q)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _field(other, 0)
        if self.q is None is other.q and not (self.im or other.im):
            return _field(self.re * other.re, 0)
        # a sum of products of the nonzero parts, each on a unit 1, i, t
        # or it: with bit 0 for i and bit 1 for t, units u and v multiply
        # to unit u ^ v, times -1 if both hold i and q if both hold t
        q = self.q if other.q is None else self._root(other)
        out = [0, 0, 0, 0]
        ys = [(v, y) for v, y in enumerate(
            (other.re, other.im, other.tre, other.tim)) if y]
        for u, x in enumerate((self.re, self.im, self.tre, self.tim)):
            if x:
                for v, y in ys:
                    p = x * y
                    if u & v & 2:
                        p = p * q
                    if u & v & 1:
                        p = -p
                    w = u ^ v
                    out[w] = out[w] + p if out[w] else p
        return _field(*out, q)

    __rmul__ = __mul__

    def inverse(self):
        """1 / self.  x = a - b*t (conj(a) when there is no t) makes
        n = self * x free of t, and n times its conjugate is rational."""
        if self.q is None and not self.im:
            return _field(self._quotient(1, self.re), 0)
        x = (self.conjugate() if self.q is None
             else _field(self.re, self.im, -self.tre, -self.tim, self.q))
        n = self * x
        if n.im:
            x, n = x * n.conjugate(), n * n.conjugate()
        if not n:
            raise ZeroDivisionError("%s has no inverse" % self)
        return x * self._quotient(1, n.re)

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _field(other, 0)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        return _power(self, n, _ONE)

    def conjugate(self):
        # t is real
        return _field(self.re, -self.im, self.tre, -self.tim, self.q)

    def _key(self):
        return self.re, self.im, self.tre, self.tim, self.q

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _field(other, 0)
        elif type(other) is not GaussianRational:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        # a rational element hashes as the int or Fraction it equals
        return hash(self.re if self.q is None and not self.im
                    else self._key())

    def __bool__(self):
        return self.q is not None or bool(self.re or self.im)

    @property
    def is_zero(self):
        return not self

    def __complex__(self):
        v = complex(self.re) + 1j * complex(self.im)
        if self.q is not None:
            v += (complex(self.tre) + 1j * complex(self.tim)) \
                * float(self.q) ** 0.5
        return v

    # an ExactScalar's queries, answered for the constant this stands for

    def symbol_indices(self):
        return []

    def evaluate(self, assignment):
        return complex(self)

    def _rows(self):
        """(t exponent, text) of the nonzero parts a and b, a first."""
        return [(te, _gauss_text(re, im)) for te, re, im in
                ((0, self.re, self.im), (1, self.tre, self.tim)) if re or im]

    def __str__(self):
        if self.q is None:
            return _gauss_text(self.re, self.im)
        return _join_terms([_term_text("t" if te else "", cs)
                            for te, cs in self._rows()])

    __repr__ = __str__


def _field(re, im, tre=0, tim=0, q=None):
    out = object.__new__(GaussianRational)
    out.re, out.im, out.tre, out.tim = re, im, tre, tim
    out.q = q if tre or tim else None
    return out


def _has_t(c):
    return type(c) is GaussianRational and c.q is not None


_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


class Symbol(NamedTuple):
    """One generator of the symbolic ring: alpha_index or its conjugate."""

    index: int
    barred: bool

    def __str__(self):
        return ("ab%d" if self.barred else "a%d") % self.index


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


def pack_monomial(m):
    """Packed key of a monomial ((Symbol, exponent), ...)."""
    key = 0
    for s, e in m:
        if not -EXPONENT_LIMIT <= e <= EXPONENT_LIMIT:
            raise OverflowError("exponent %d of %s exceeds %d"
                                % (e, s, EXPONENT_LIMIT))
        key += e << (_BITS * (2 * s.index + s.barred))
    return key


def unpack_monomial(key):
    """((Symbol, exponent), ...) of a packed key."""
    return tuple((Symbol(f >> 1, bool(f & 1)), e) for f, e in _decode(key))


class _Chunk(dict):
    """Memo of chunk i of biased keys: a 64-bit chunk (symbol fields
    4i..4i+3) -> its sort bytes and its factor text.

    Each nonzero field f with biased exponent d adds the eight big-endian
    bytes of f << 16 | d, so comparing a term's joined sort bytes compares
    the ((Symbol, exp), ...) tuple it stands for.  Keys share few distinct
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

    terms maps a packed monomial key (see pack_monomial) to a nonzero
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
            if x.q is None and not x.im:
                x = x.re  # a rational stays an int or a Fraction
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
            for s, e in unpack_monomial(k):
                if s.index not in assignment:
                    raise KeyError(
                        "no numeric value assigned for index %d" % s.index)
                a = complex(assignment[s.index])
                if s.barred:
                    a = a.conjugate()
                v *= a ** e
            total += v
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        # one to_bytes splits a biased key into 64-bit chunks of four
        # fields each
        nq = (max(map(abs, self.terms)).bit_length() >> 6) + 1
        bias = ((1 << (64 * nq)) - 1) // _MASK * _HALF
        size, order = 8 * nq, sys.byteorder
        if sum(map(len, _CHUNKS)) > _CHUNKS_KEPT:
            _CHUNKS.clear()
        while len(_CHUNKS) < nq:
            _CHUNKS.append(_Chunk(len(_CHUNKS)))
        rows = []
        for k, c in self.terms.items():
            q = array("Q", (k + bias).to_bytes(size, order))
            frags = list(map(_Chunk.__getitem__, _CHUNKS, q))
            key = b"".join(map(_first, frags))
            if _has_t(c):
                rows += [(key, te, frags, cs) for te, cs in c._rows()]
            else:
                rows.append((key, 0, frags, str(c)))
        rows.sort()
        texts = []
        for _, te, frags, cs in rows:
            body = "*".join(filter(None, map(_second, frags)))
            if te:
                body += "*t" if body else "t"
            texts.append(_term_text(body, cs))
        return _join_terms(texts)

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
    return _scalar({pack_monomial(((Symbol(j, barred), 1),)): 1}, 1)


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
    return _field(0, 0, 1, 0, q)


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
    """Canonical text form used by the CLI and golden tests."""
    if isinstance(x, (ExactScalar, GaussianRational)):
        return str(x)
    x = complex(x)
    if x.imag == 0:
        return repr(x.real)
    return repr(x)


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
        m = unpack_monomial(k)
        if any(e < 0 for _, e in m):
            raise ValueError("negative exponent; not a polynomial")
        key = tuple(((s.index, "b" if s.barred else "a"), e) for s, e in m)
        out[key] = -c if sum(e for s, e in m if s.barred) % 2 else c
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
