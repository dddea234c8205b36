"""Matrix views of the moment recursions, plus the determinant identities.

The (r, s) entry of the n-th power of the one-step transfer matrix U is
a generalized moment, and so is the (r, s) entry of a product of
two-band factors built from 2x2 blocks, one per column of the parity
model.  Only row r is read, so both routes walk a row vector: O(d^2) per
step on the Hessenberg U, O(d) per factor and O(n*d) in all for the
blocks, with d = r + n + 1.  Sums keep the order of
`ScalarMatrix.__mul__`, so a walk equals the entry of the dense product
exactly.

U's rows do not depend on d, and row r of U^m does not depend on n, so
each sequence sweeps both (`VerblunskySequence.sweep`): ("u_rows",) and
("u_walk", r), one step of the walk per entry, and a row of moments
asked with n ascending costs one step per n.  The blocks are not cached,
as each walk reads them off the coefficient table, and neither is the
block walk, which drops blocks too high to come back to s in time.

Determinants are taken by fraction-free elimination, which is exact over
the symbolic coefficient ring and also serves the numeric mode.
"""

from .algebra import values_close
from .core import moments_from_phis


class ScalarMatrix:
    """Dense square matrix over either coefficient representation."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.dim = len(self.rows)
        if any(len(r) != self.dim for r in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, dim, one, zero):
        rows = [[zero] * dim for _ in range(dim)]
        for i in range(dim):
            rows[i][i] = one
        return cls(rows)

    def entry(self, i, j):
        return self.rows[i][j]

    def __getitem__(self, i):
        return self.rows[i]

    def __mul__(self, other):
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        d = self.dim
        zero = self.rows[0][0] * 0
        out = [[zero] * d for _ in range(d)]
        for i in range(d):
            arow = self.rows[i]
            orow = out[i]
            for k in range(d):
                a = arow[k]
                if not a:
                    continue
                brow = other.rows[k]
                for j in range(d):
                    b = brow[j]
                    if b:
                        orow[j] = orow[j] + a * b
        return ScalarMatrix(out)

    def __eq__(self, other):
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        return "ScalarMatrix(%r)" % (self.rows,)


# ---------------------------------------------------------------------------
# transfer matrix and its row walk


def _u_row(vs, rows):
    # row i of U, up to its last nonzero entry, the rise to i + 1; it
    # reads no alpha past alpha_i
    i = len(rows)
    row = [vs.one()] * (i + 2)
    neg, prod = -vs.alpha(i), vs.one()
    for j in range(i, -1, -1):
        row[j] = neg * vs.alpha_bar(j - 1) * prod
        if j:
            prod = vs.rho(j - 1) * prod
    return row


def build_U(vs, dim):
    """One-step transfer matrix: entry (i, j) is the i -> j step weight."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    rows = vs.sweep(("u_rows",), dim - 1, _u_row)
    zero = vs.zero()
    return ScalarMatrix([rows[i][:dim] + [zero] * (dim - i - 2)
                         for i in range(dim)])


def u_power_entry(vs, n, r, s):
    """Generalized moment as the (r, s) entry of the n-th transfer power.

    Entry n of the sequence's ("u_walk", r) table is row r of U^n, so a
    row of moments asked with n ascending multiplies by U once per n.
    """
    if min(n, r, s) < 0:
        raise ValueError("indices must be nonnegative")
    if s > r + n:
        return vs.zero()
    return vs.sweep(("u_walk", r), n, _u_walk_step, r)[n][s]


def _u_walk_step(vs, walk, r):
    # row r of U^m through height r + m, the last it reaches: e_r, then
    # the row before times U, summed k ascending as `ScalarMatrix.__mul__`
    # sums; it reads U's rows, so alphas, only below height r + m
    m = len(walk)
    if not m:
        return [vs.zero()] * r + [vs.one()]
    u = vs.sweep(("u_rows",), r + m - 1, _u_row)
    out = [vs.zero()] * (r + m + 1)
    for k, a in enumerate(walk[-1]):
        if not a:
            continue
        uk = u[k]  # ends at column k + 1: U is lower Hessenberg
        for j in range(k + 2):
            b = uk[j]
            if b:
                out[j] = out[j] + a * b
    return out


# ---------------------------------------------------------------------------
# factored two-band form


def theta_block(vs, j):
    """The 2x2 block pairing heights j and j+1."""
    return [[vs.alpha(j), vs.one()], [vs.rho(j), -vs.alpha_bar(j)]]


def _factor_blocks(vs, parity, dim):
    """(first height, block) pairs of a factor: even columns pair heights
    (0,1), (2,3), ...; odd ones fix height 0 and pair (1,2), (3,4), ..."""
    fixed = [(0, [[vs.one()]])] if parity else []
    return fixed + [(j, theta_block(vs, j)) for j in range(parity, dim, 2)]


def cmv_factor(vs, x, dim):
    """Transfer factor for the column starting at x, truncated to dim.

    Entry (i, j) reproduces the weight of the parity-model step
    (x, i) -> (x+1, j).
    """
    rows = [[vs.zero()] * dim for _ in range(dim)]
    for j, blk in _factor_blocks(vs, x % 2, dim):
        for a, brow in enumerate(blk[:dim - j]):
            rows[j + a][j:j + len(blk)] = brow[:dim - j]
    return ScalarMatrix(rows)


def cmv_walk_entry(vs, n, r, s):
    """Generalized moment as an entry of the factored-walk product.

    Row r of the product of the 2n + r - s factors from column -r on is
    walked block by block and entry s read off (no factors: n = 0, r = s).
    The walk stays below height r + n + 1, so no alpha past alpha_{r+n}
    is read; blocks too high to come back to s in time are skipped.
    """
    if min(n, r, s) < 0:
        raise ValueError("indices must be nonnegative")
    if s > r + n:
        return vs.zero()
    dim = r + n + 1
    layouts = (_factor_blocks(vs, 0, dim), _factor_blocks(vs, 1, dim))
    row = [vs.zero()] * dim
    row[r] = vs.one()
    end = 2 * n - s
    for x in range(-r, end):
        out = [vs.zero()] * dim
        for j, blk in layouts[x % 2]:
            if j > s + end - 1 - x:
                break
            heights = range(j, min(j + len(blk), dim))
            for k in heights:
                a = row[k]
                if not a:
                    continue
                for h in heights:
                    b = blk[k - j][h - j]
                    if b:
                        out[h] = out[h] + a * b
        row = out
    return row[s]


# ---------------------------------------------------------------------------
# determinants


def determinant(mat, one):
    """Fraction-free elimination with row-swap pivoting.

    Every division is exact over an integral domain; the same control
    flow serves the numeric mode, where the divisions are ordinary.
    """
    d = mat.dim
    a = [list(row) for row in mat.rows]
    sign = 1
    prev = one
    for k in range(d - 1):
        if not a[k][k]:
            for i in range(k + 1, d):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return one * 0
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num / prev
        prev = a[k][k]
    det = a[d - 1][d - 1]
    return det if sign == 1 else -det


def toeplitz_matrix(vs, n):
    """(n+1) x (n+1) matrix of classical moments, entry (i, j) index i - j."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    pos, neg = moments_from_phis(vs, n)
    rows = [[pos[i - j] if i >= j else neg[j - i] for j in range(n + 1)]
            for i in range(n + 1)]
    return ScalarMatrix(rows)


def toeplitz_det(vs, n):
    """Determinant of the order-n classical moment matrix."""
    return determinant(toeplitz_matrix(vs, n), vs.one())


def rho_power_product(vs, n):
    """The closed product the order-n determinant must equal."""
    out = vs.one()
    for k in range(n):
        out = out * vs.rho(k) ** (n - k)
    return out


def det_identity_check(vs, m, n):
    """Shifted-moment determinant against its generalized-moment factorization.

    Left side: det of the (n+1)-square matrix with entry (i, j) the
    classical moment of index m + i - j.  Right side: the rho product
    times det of the matrix with entry (i, j) the generalized moment
    (m + i, 0, j), negative first index handled by the mirrored model.
    Returns (lhs, rhs, equal).
    """
    from .paths import moment_lukasiewicz, moment_negative

    if n < 0:
        raise ValueError("order must be nonnegative")
    bound = abs(m) + n
    pos, neg = moments_from_phis(vs, bound)
    lhs_rows = [[pos[m + i - j] if m + i - j >= 0 else neg[j - m - i]
                 for j in range(n + 1)] for i in range(n + 1)]
    lhs = determinant(ScalarMatrix(lhs_rows), vs.one())

    def gen(idx, j):
        if idx >= 0:
            return moment_lukasiewicz(vs, idx, 0, j)
        return moment_negative(vs, -idx, 0, j)

    rhs_rows = [[gen(m + i, j) for j in range(n + 1)] for i in range(n + 1)]
    rhs = rho_power_product(vs, n) * determinant(ScalarMatrix(rhs_rows), vs.one())
    return lhs, rhs, values_close(lhs, rhs)
