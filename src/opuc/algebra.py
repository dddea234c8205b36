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

Module helpers (conjugate, evaluate_numeric, render_scalar) accept both
representations, which keeps the rest of the library mode-agnostic, and
plain ``/`` divides exactly in symbolic mode.  A scalar of either kind
is false exactly when it is zero, so a plain truth test is the zero test
in both modes.  Integers and Fractions coerce into either mode; floats
and complexes are rejected by the symbolic side to preserve exactness.

Convention: symbol index -1 encodes the boundary value alpha_{-1} = -1.
Constructors eliminate it immediately, so stored symbols always have
index >= 0.

Packed monomials: an ExactScalar stores each monomial as one Python int,
the sum of e_f << 16*f over signed 16-bit exponent fields (Kronecker
substitution).  Field 0 holds the exponent of t, field 1+2j that of a_j
and field 2+2j that of ab_j.  A monomial product is then one int
addition, and conjugation swaps neighbouring fields.  Every exponent
must stay within +-EXPONENT_LIMIT (32767): each scalar carries a bound
on its exponents (the sum of the factors' bounds for a product, their
maximum for a sum), and a product whose bound would pass the limit
raises OverflowError rather than let a field wrap.  Keys are decoded
into (Symbol, exponent) pairs only for evaluation, beta_form and the
like; the text form reads the fields directly and prints the terms in
the order of those pairs, so it is unchanged by the packing.
"""

import heapq
import sys
from array import array
from fractions import Fraction
from operator import itemgetter
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


def pack_monomial(m, te=0):
    """Packed key of a monomial ((Symbol, exponent), ...) times t**te."""
    key = te
    for s, e in m:
        if not -EXPONENT_LIMIT <= e <= EXPONENT_LIMIT:
            raise OverflowError("exponent %d of %s exceeds %d"
                                % (e, s, EXPONENT_LIMIT))
        key += e << (_BITS * (1 + 2 * s.index + s.barred))
    return key


def unpack_monomial(key):
    """(((Symbol, exponent), ...), t exponent) of a packed key."""
    pairs = _decode(key)
    te = 0
    if pairs and pairs[0][0] == 0:
        te = pairs[0][1]
        pairs = pairs[1:]
    return tuple((Symbol((f - 1) >> 1, not f & 1), e) for f, e in pairs), te


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
            if d == _HALF or not f:
                continue
            e = d - _HALF
            keys.append((f << _BITS | d).to_bytes(8, "big"))
            names.append(("a%d" if f & 1 else "ab%d") % ((f - 1) >> 1)
                         + ("" if e == 1 else "^%d" % e))
        out = self[chunk] = (b"".join(keys), "*".join(names))
        return out


# _CHUNKS[i] is the memo of chunk i, emptied with the others once they
# hold more than _CHUNKS_KEPT entries in all
_CHUNKS = []
_CHUNKS_KEPT = 4096


def _swap_bars(key):
    """The key with a_j and ab_j exchanged (fields 1+2j and 2+2j)."""
    if -_HALF < key < _HALF:  # a power of t alone
        return key
    return sum(e << (_BITS * (f + 1 if f & 1 else f - 1)) if f else e
               for f, e in _decode(key))


def _bound(keys):
    """The largest |exponent| of a symbol (t excluded) over packed keys."""
    return max((abs(e) for k in keys for f, e in _decode(k) if f), default=0)


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


def _join_tsq(a, b):
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise ValueError("incompatible adjoined roots: t^2=%s vs t^2=%s" % (a, b))


def _scalar(terms, tsq, bound):
    out = ExactScalar.__new__(ExactScalar)
    out.terms = terms
    out.tsq = tsq
    out.bound = bound
    return out


class ExactScalar:
    """Sparse Laurent polynomial in the Verblunsky symbols.

    terms maps a packed monomial key (see pack_monomial) to a nonzero
    coefficient.  Exponents may be negative (several step weights and
    linearization formulas divide by alpha-bars).  When tsq is set, the
    generator t obeys t**2 = tsq and stored t exponents are reduced to 0
    or 1.  bound is at least the largest |exponent| of any symbol; a
    product whose bound would pass EXPONENT_LIMIT raises OverflowError
    instead of letting a field wrap.  Instances are immutable: every
    operation builds a new one.
    """

    __slots__ = ("terms", "tsq", "bound")

    def __init__(self, terms=None, tsq=None):
        if tsq is not None and not isinstance(tsq, Fraction):
            tsq = Fraction(tsq)
        clean = {}
        for key, c in (terms or {}).items():
            c = _cnorm(c)
            if c == 0:
                continue
            te = ((key + _HALF) & _MASK) - _HALF
            if te and tsq is None:
                raise ValueError("t exponent present without t^2 value")
            if te not in (0, 1):
                qp, te = divmod(te, 2)
                key -= 2 * qp
                c = _cmul(c, tsq ** qp)
            c = _cadd(clean.pop(key, 0), c)
            if c != 0:
                clean[key] = c
        self.terms = clean
        self.tsq = tsq
        self.bound = _bound(clean)

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, ExactScalar):
            return x
        if isinstance(x, (int, Fraction, GaussianRational)):
            x = _cnorm(x)
            return _scalar({0: x} if x != 0 else {}, None, 0)
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
        if len(self.terms) == 1 and 0 in self.terms:
            return self.terms[0]
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ExactScalar):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        tsq = self.tsq
        if other.tsq is not tsq:
            tsq = _join_tsq(tsq, other.tsq)
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        terms = dict(big)
        for k, c in small.items():
            old = terms.get(k)
            if old is None:
                terms[k] = c
                continue
            c = old + c if type(old) is int and type(c) is int \
                else _cadd(old, c)
            if c:
                terms[k] = c
            else:
                del terms[k]
        return _scalar(terms, tsq, max(self.bound, other.bound))

    __radd__ = __add__

    def __neg__(self):
        return _scalar({k: -c for k, c in self.terms.items()}, self.tsq,
                       self.bound)

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
        if not isinstance(other, ExactScalar):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        tsq = self.tsq
        if other.tsq is not tsq:
            tsq = _join_tsq(tsq, other.tsq)
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
                terms = {k + k0: _cmul(c, c0) for k, c in big.items()}
        else:
            terms = {}
            get = terms.get
            for k1, c1 in small.items():
                for k2, c2 in big.items():
                    k = k1 + k2
                    c = c1 * c2 if type(c1) is int and type(c2) is int \
                        else _cmul(c1, c2)
                    old = get(k)
                    if old is None:
                        terms[k] = c
                        continue
                    c = old + c if type(old) is int and type(c) is int \
                        else _cadd(old, c)
                    if c:
                        terms[k] = c
                    else:
                        del terms[k]
        if tsq is not None:
            # t*t = tsq: fold every t^2 term onto its t^0 key
            for k in [k for k in terms if k & _MASK == 2]:
                c = _cadd(terms.get(k - 2, 0), _cmul(terms.pop(k), tsq))
                if c:
                    terms[k - 2] = c
                else:
                    terms.pop(k - 2, None)
        return _scalar(terms, tsq, bound)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; only single-term scalars are units here."""
        if len(self.terms) != 1:
            raise ExactDivisionError(
                "only single-term symbolic scalars are invertible")
        (k, c), = self.terms.items()
        return ExactScalar({-k: _cdiv(1, c)}, self.tsq)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        result = ExactScalar({0: 1}, self.tsq)
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
        return _scalar({_swap_bars(k): _cconj(c)
                        for k, c in self.terms.items()}, self.tsq, self.bound)

    # -- queries -----------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def symbol_indices(self):
        return sorted({(f - 1) >> 1 for k in self.terms
                       for f, _ in _decode(k) if f})

    def evaluate(self, assignment):
        """Numeric value with alpha_j = assignment[j] (ab_j its conjugate)."""
        total = 0j
        tval = None
        for k, c in self.terms.items():
            m, te = unpack_monomial(k)
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
        # one to_bytes splits a biased key into 64-bit chunks of four
        # fields each; the t exponent is field 0 and sorts last
        nq = (max(map(abs, self.terms)).bit_length() >> 6) + 1
        bias = ((1 << (64 * nq)) - 1) // _MASK * _HALF
        size, order = 8 * nq, sys.byteorder
        if sum(map(len, _CHUNKS)) > _CHUNKS_KEPT:
            _CHUNKS.clear()
        while len(_CHUNKS) < nq:
            _CHUNKS.append(_Chunk(len(_CHUNKS)))
        has_t = self.tsq is not None
        rows = []
        for k, c in self.terms.items():
            q = array("Q", (k + bias).to_bytes(size, order))
            frags = list(map(_Chunk.__getitem__, _CHUNKS, q))
            te = (q[0] & _MASK) - _HALF if has_t else 0
            rows.append((b"".join(map(_first, frags)), te, frags, c))
        rows.sort()
        parts = []
        for _, te, frags, c in rows:
            body = "*".join(filter(None, map(_second, frags)))
            if te:
                body += ("*" if body else "") + ("t" if te == 1
                                                 else "t^%d" % te)
            cs = str(c)
            if not body:
                text = cs
            elif cs == "1":
                text = body
            elif cs == "-1":
                text = "-" + body
            else:
                text = cs + "*" + body
            parts.append(" - " + text[1:] if text[0] == "-"
                         else " + " + text)
        out = "".join(parts)[3:]
        return "-" + out if parts[0][1] == "-" else out

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
    multiple of g, so the leading-term division never fails.  Multi-term
    divisors containing the adjoined root t are not supported (never
    needed).
    """
    if any(k & _MASK for k in f.terms) or any(k & _MASK for k in g.terms):
        raise ExactDivisionError(
            "division by multi-term scalars with the adjoined root")
    tsq = _join_tsq(f.tsq, g.tsq)
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
        qc = _cdiv(c, gc)
        quot[diff + shift_f - shift_g] = qc
        for dk, dd, tc in tail:
            kk = lead + dk
            sub = -_cmul(qc, tc)
            old = rem.get(kk)
            if old is None:
                rem[kk] = sub
                heapq.heappush(heap, (negdeg - dd, -kk))
                continue
            acc = _cadd(old, sub)
            if acc:
                rem[kk] = acc
            else:
                del rem[kk]
    # the Newton polytope of f is that of q plus that of g, so every
    # exponent of q lies within f.bound + g.bound
    return _scalar(quot, tsq, f.bound + g.bound)


# ---------------------------------------------------------------------------
# constructors

def sym(j, barred=False):
    """alpha_j (or its conjugate); j = -1 collapses to the constant -1."""
    if j == -1:
        return gauss(-1)
    if j < -1:
        raise ValueError("symbol index must be >= -1, got %d" % j)
    return ExactScalar({pack_monomial(((Symbol(j, barred), 1),)): 1})


def alpha(j):
    return sym(j, False)


def alpha_bar(j):
    return sym(j, True)


def gauss(re, im=0):
    """A constant symbolic scalar with exact rational parts."""
    return ExactScalar({0: GaussianRational(re, im)})


def t_root(q):
    """The generator t with t**2 = q (q a positive rational)."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("t^2 must be a positive rational, got %s" % q)
    return ExactScalar({1: 1}, tsq=q)


SYM_ZERO = ExactScalar()
SYM_ONE = ExactScalar({0: 1})


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
            return ExactScalar({0: x})
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
    for k, c in x.terms.items():
        m, te = unpack_monomial(k)
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
    for k in x.terms:
        m, te = unpack_monomial(k)
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
