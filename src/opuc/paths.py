"""Weighted lattice-path models for the generalized moments.

Three equivalent models for nonnegative powers of z (unit-width
"lukasiewicz" steps, parity-constrained "gmotzkin" steps, and "schroder"
steps with zero-width vertical drops), plus the mirrored model that
evaluates negative powers.  Each model is available twice: an exhaustive
enumerator for small instances and a dynamic-programming evaluator with
no practical size limit.  Both compute the same weighted totals, which
the test suite exercises model against model.

The enumerator is one walker over per-model step rules; `_MODELS` holds
each model's rule and step weight by name.  A unit-weight count over the
same rules sizes a listing before any path is built, and the walk enters
only points that some path runs through.  Weights are built during the
walk: a path's weight is its prefix's times one step weight, and each
step weight is formed once per listing.  `path_weight` forms a single
path's product afresh, as the independent check.  The DP evaluators
keep their own kernels and never read that table.  Each evaluator's
state is a table per start height, cached on the driving sequence and
grown by `VerblunskySequence.sweep` one column at a time, or for
gentle Motzkin one anti-diagonal at a time, since a column's height cap
would depend on the largest n served.  Later requests only append, and
reuse the entries already built; no model reads another's.

All step weights live in the coefficient ring of the driving
VerblunskySequence, so a single code path serves both exact symbolic and
floating-point numeric work.
"""

import functools
import math

from .algebra import SYMBOLIC, beta_form, render_beta_monomial
from .errors import EnumerationCapExceeded, PositivityViolation, ZeroVerblunsky

UP = (1, 1)
LEVEL = (1, 0)
VERTICAL = (0, -1)

DEFAULT_CAP = 10 ** 6


def _step_name(step):
    dx, dy = step
    if step == VERTICAL:
        return "V"
    if dy == 1:
        return "U"
    if dy == 0:
        return "H"
    return "D%d" % (-dy)


class LatticePath:
    """Immutable path: a model tag, a start point and (dx, dy) steps."""

    __slots__ = ("model", "start", "steps")

    def __init__(self, model, start, steps):
        self.model = model
        self.start = tuple(start)
        self.steps = tuple(steps)

    def points(self):
        """Every lattice point visited, start and end included."""
        x, y = self.start
        pts = [(x, y)]
        for dx, dy in self.steps:
            x += dx
            y += dy
            pts.append((x, y))
        return pts

    @property
    def end(self):
        return self.points()[-1]

    def render(self):
        """One-line step listing, e.g. ``U H D2 V``."""
        if not self.steps:
            return "(empty)"
        return " ".join(_step_name(s) for s in self.steps)

    def __eq__(self, other):
        if not isinstance(other, LatticePath):
            return NotImplemented
        return (self.model == other.model and self.start == other.start
                and self.steps == other.steps)

    def __hash__(self):
        return hash((self.model, self.start, self.steps))

    def __repr__(self):
        return "LatticePath(%r, %r, %s)" % (self.model, self.start, self.render())


# ---------------------------------------------------------------------------
# enumeration: one step rule and one step weight per model


def _unit_width(dx, last):
    # steps (dx, 1), (dx, 0), ..., (dx, -y) out of height y, none at x = last
    falls = functools.cache(
        lambda y: tuple((dx, dy) for dy in range(1, -y - 1, -1)))
    return lambda x, y, first: falls(y) if x != last else ()


def _lukasiewicz(n, r, s):
    # unit-width steps (1, dy) with dy <= 1, height kept >= 0
    return (0, r), (n, s), _unit_width(1, n), lambda x, y: n - x - (s - y)


def _luka_weight(vs, x, y, dx, dy):
    if dy == 1:
        return vs.one()
    return -vs.alpha(y) * vs.alpha_bar(y + dy - 1) * vs.rho_product(y + dy, y)


def _gmotzkin(n, r, s):
    # width-1 steps only; rises at even x+y, falls at odd x+y
    x_end = 2 * n - s
    return ((-r, r), (x_end, s), _gm_moves,
            lambda x, y: x_end - x - abs(y - s))


def _gm_moves(x, y, first):
    if (x + y) % 2 == 0:
        return (UP, LEVEL)
    return (LEVEL, (1, -1)) if y else (LEVEL,)


def _gm_weight(vs, x, y, dx, dy):
    if dy:
        return vs.one() if dy == 1 else vs.rho(y - 1)
    return vs.alpha(y) if (x + y) % 2 == 0 else -vs.alpha_bar(y - 1)


def _schroder(n, r, s):
    # vertical drops are zero-width and never open a path; at x = n only
    # the drops down to height s remain
    def moves(x, y, first):
        drop = (VERTICAL,) if y and not first else ()
        if x < n:
            return (UP, LEVEL) + drop
        return drop if y > s else ()
    return (0, r), (n, s), moves, lambda x, y: n - x - (s - y)


def _schroder_weight(vs, x, y, dx, dy):
    if dy == 1:
        return vs.one()
    if (dx, dy) == LEVEL:
        return -vs.alpha_bar(y - 1) * _inv_alpha_bar(vs, y)
    return vs.alpha_bar(y - 2) * _inv_alpha_bar(vs, y - 1) * vs.rho(y - 1)


def _negative(n, r, s):
    # mirror model: the lukasiewicz walks from height s to height r, run
    # leftward, so from (0, s) to (-n, r)
    return (0, s), (-n, r), _unit_width(-1, -n), lambda x, y: n + x - (r - y)


def _neg_weight(vs, x, y, dx, dy):
    if dy == 1:
        return vs.rho(y)
    return -vs.alpha_bar(y) * vs.alpha(y + dy - 1)


# name -> (rule, weight).  rule(n, r, s) -> (start, end, moves, slack):
# moves(x, y, first) lists the steps out of (x, y) in listing order, and
# slack(x, y) < 0 marks a point that can no longer reach the end.
# weight(vs, x, y, dx, dy) is that of the step (dx, dy) out of (x, y).
_MODELS = {
    "lukasiewicz": (_lukasiewicz, _luka_weight),
    "gmotzkin": (_gmotzkin, _gm_weight),
    "schroder": (_schroder, _schroder_weight),
    "negative": (_negative, _neg_weight),
}

MODELS = tuple(_MODELS)


def _model(name):
    if name not in _MODELS:
        raise ValueError("unknown path model %r" % (name,))
    return _MODELS[name]


def _count(start, end, moves, slack, limit=math.inf):
    # {point: the paths _walk would list from it}, by unit-weight sums
    # over the same moves, memoised per point; a point's sum stops once it
    # passes limit, which is all a refusal needs.  Depth first on an
    # explicit stack, because a path can be longer than the recursion
    # limit.  A point past the slack has no entry, a dead end reads 0.
    if slack(*start) < 0:
        return {}
    memo = {}
    stack = [[start, iter(moves(*start, True)), int(start == end)]]
    while stack:
        top = stack[-1]
        (x, y), steps, total = top
        child = None
        for dx, dy in steps:
            if total > limit:
                break
            point = (x + dx, y + dy)
            if slack(*point) >= 0:
                if point not in memo:
                    child = point
                    break
                total += memo[point]
        if child is not None:
            top[2] = total
            stack.append([child, iter(moves(*child, False)),
                          int(child == end)])
        else:
            memo[x, y] = total
            stack.pop()
            if stack:
                stack[-1][2] += total
    return memo


def _listing(model, n, r, s, cap):
    # (start, end, moves, counts) of a listing of at most cap paths
    start, end, moves, slack = _model(model)[0](n, r, s)
    counts = _count(start, end, moves, slack, cap)
    if counts.get(start, 0) > cap:
        raise EnumerationCapExceeded(
            "more than %d %s paths for (n=%d, r=%d, s=%d)" % (cap, model, n, r, s))
    return start, end, moves, counts


def _walk(start, end, moves, counts, skip_first=(), weight=None, vs=None):
    # yields (steps, weight) of each path in listing order, the weight
    # None unless a step weight rule and its sequence are given.  Depth
    # first on an explicit stack, as _count, because a path can be longer
    # than the recursion limit.  edges[point] lists the moves out of point
    # to the points with a path through them to the end (counts), so no
    # branch dies and every weight formed belongs to a listed path; each
    # edge is [step, point reached, step weight or None until a listed
    # path first takes it].  stack[i] holds the iterator over the edges
    # out of the point reached by steps[:i], the weight of steps[:i] (its
    # parent's times one step weight, from vs.one() at the start as in
    # path_weight) and that point.  A path is yielded on reaching the
    # end, whose own moves are then still tried.
    def out_of(point, first=False):
        x, y = point
        skip = skip_first if first else ()
        out = []
        for step in moves(x, y, first):
            child = (x + step[0], y + step[1])
            if counts.get(child) and step not in skip:
                out.append([step, child, None])
        return out

    if not counts.get(start):
        return
    one = None if weight is None else vs.one()
    if start == end:
        yield (), one
    edges = {}
    steps = []
    stack = [(iter(out_of(start, True)), one, start)]
    while stack:
        untried, w, (x, y) = stack[-1]
        for edge in untried:
            step, point, sw = edge
            steps.append(step)
            if weight is not None:
                if sw is None:
                    sw = edge[2] = weight(vs, x, y, *step)
                w = w * sw
            if point == end:
                yield tuple(steps), w
            out = edges.get(point)
            if out is None:
                out = edges[point] = out_of(point)
            stack.append((iter(out), w, point))
            break
        else:
            stack.pop()
            if steps:
                steps.pop()


def count_paths(model, n, r, s):
    """How many paths enumerate_paths lists, without building any."""
    start, end, moves, slack = _model(model)[0](n, r, s)
    return _count(start, end, moves, slack).get(start, 0)


def enumerate_paths(model, n, r, s, cap=DEFAULT_CAP):
    """Every path of the model for the given boundary data.

    Endpoints per model: lukasiewicz and schroder run (0, r) -> (n, s),
    gmotzkin runs (-r, r) -> (2n - s, s), negative runs (0, s) -> (-n, r).
    Raises EnumerationCapExceeded, before any path is built, when more
    than `cap` paths exist.
    """
    start, end, moves, counts = _listing(model, n, r, s, cap)
    return [LatticePath(model, start, steps)
            for steps, _ in _walk(start, end, moves, counts)]


def weighted_paths(model, n, r, s, vs, cap=DEFAULT_CAP, skip_first=()):
    """(path, weight) of every path enumerate_paths lists, in its order,
    leaving out those that open with a step in skip_first.

    Each weight is its prefix's weight times one step weight, so the
    listing costs one product per node of its prefix tree, and each
    distinct step weight is formed once.  The products run left to right
    from vs.one(), as in path_weight, so every weight equals path_weight's,
    float bits included.  Raises EnumerationCapExceeded, before any weight
    is formed, when more than `cap` paths exist, counting the skipped
    ones too.
    """
    start, end, moves, counts = _listing(model, n, r, s, cap)
    return ((LatticePath(model, start, steps), w) for steps, w in _walk(
        start, end, moves, counts, skip_first, _model(model)[1], vs))


def path_weight(path, vs):
    """Product of the model's step weights; the empty product is 1.

    Forms every step afresh: the independent check of weighted_paths."""
    weight = _model(path.model)[1]
    w = vs.one()
    x, y = path.start
    for dx, dy in path.steps:
        w = w * weight(vs, x, y, dx, dy)
        x += dx
        y += dy
    return w


def _inv_alpha_bar(vs, j):
    v = vs.alpha_bar(j)
    if not v:
        raise ZeroVerblunsky(j)
    return vs.one() / v


# ---------------------------------------------------------------------------
# dynamic programming evaluators


def _unit_column(vs, h):
    col = [vs.zero()] * (h + 1)
    col[h] = vs.one()
    return col


def moment_lukasiewicz(vs, n, r, s):
    """Generalized moment for z^n, n >= 0, as a unit-width-model weight sum."""
    if min(n, r, s) < 0:
        raise ValueError("indices must be nonnegative")
    row = vs.sweep(("luka_rows", r), n, _luka_step, r)[n]
    return row[s] if s < len(row) else vs.zero()


def _luka_step(vs, rows, r):
    # peel the last step; suffix accumulator S covers every fall into height y:
    # S_y = alpha_y * prev[y] + rho_y * S_{y+1}
    if not rows:
        return _unit_column(vs, r)
    prev = rows[-1]
    h = len(prev)
    zero = vs.zero()
    new = [zero] * (h + 1)
    acc = zero
    for y in range(h - 1, -1, -1):
        acc = vs.alpha(y) * prev[y] + vs.rho(y) * acc
        rise = prev[y - 1] if y >= 1 else zero
        new[y] = rise - vs.alpha_bar(y - 1) * acc
    new[h] = prev[h - 1]
    return new


def moment_gmotzkin(vs, n, r, s):
    """Same moment via the parity-constrained width-1 model."""
    if min(n, r, s) < 0:
        raise ValueError("indices must be nonnegative")
    if s > r + n:
        return vs.zero()
    return vs.sweep(("gm_diags", r), 2 * n + r, _gm_step, r)[2 * n + r][s]


def _gm_step(vs, diags, r):
    # anti-diagonal d holds the cells (t, y) with t + y = d, where column t
    # sits at abscissa t - r, by height y up to the rise bound y <= r + t;
    # the end (2n - s, s) of every moment of n lies on d = 2n + r.  A cell
    # reads the cell one lower on d - 2 (a rise), the same height on d - 1
    # (a level step) and one higher on d (a fall), so heights run downward.
    # A point on diagonal e has x + y = e - r, whose parity picks its
    # steps: d takes rises when d - r is even and falls when it is odd.
    d = len(diags)
    zero = vs.zero()
    new = [zero] * (min(d, (r + d) // 2) + 1)
    if d <= r:
        # no step reaches a cell before the start (0, r)
        if d == r:
            new[r] = vs.one()
        return new
    rises = (d - r) % 2 == 0
    below = diags[d - 2] if rises else ()
    beside = diags[d - 1]
    for y in range(len(new) - 1, -1, -1):
        acc = zero
        if rises:
            if y:
                v = below[y - 1]
                if v:
                    acc = acc + v
        elif y + 1 < len(new):
            v = new[y + 1]
            if v:
                acc = acc + vs.rho(y) * v
        if y < len(beside):
            v = beside[y]
            if v:
                if rises:
                    acc = acc - vs.alpha_bar(y - 1) * v
                else:
                    acc = acc + vs.alpha(y) * v
        new[y] = acc
    return new


# level weight at height y and drop weight entering from height b >= 1;
# both divide by a conjugated coefficient, hence the nonzero hypothesis
def _level_weight(vs, level):
    y = len(level)
    return -vs.alpha_bar(y - 1) * _inv_alpha_bar(vs, y)


def _drop_weight(vs, drop):
    b = len(drop)
    if not b:
        return None
    return vs.alpha_bar(b - 2) * _inv_alpha_bar(vs, b - 1) * vs.rho(b - 1)


def schroder_weight_sum(vs, n, r, s, skip_initial_vertical=True,
                        skip_terminal_vertical=False):
    """Weight sum over the zero-width-drop model from (0, r) to (n, s).

    The two flags toggle the boundary restrictions: by default paths may
    not open with a vertical drop (the standard model) and may end with
    one.  Raises ZeroVerblunsky if a required divisor vanishes.
    """
    if min(n, r, s) < 0:
        raise ValueError("indices must be nonnegative")
    allow_initial = not skip_initial_vertical
    col, pre = vs.sweep(("schroder_cols", r, allow_initial), n,
                        _schroder_step, r, allow_initial)[n]
    col = pre if skip_terminal_vertical else col
    return col[s] if s < len(col) else vs.zero()


def moment_schroder(vs, n, r, s):
    """Same moment as moment_lukasiewicz; needs every touched alpha nonzero."""
    return schroder_weight_sum(vs, n, r, s)


def _schroder_step(vs, cols, r, allow_initial):
    # entry n is (col, pre): the column after n width steps with and
    # without the trailing drops
    if not cols:
        pre = _unit_column(vs, r)
        col = list(pre)
        if allow_initial:
            drop = vs.sweep(("schroder_drop",), r, _drop_weight)
            for y in range(r - 1, -1, -1):
                col[y] = col[y] + drop[y + 1] * col[y + 1]
        return col, pre
    prev = cols[-1][0]
    h = len(prev)
    level = vs.sweep(("schroder_level",), h - 1, _level_weight)
    drop = vs.sweep(("schroder_drop",), h, _drop_weight)
    zero = vs.zero()
    pre = [zero] * (h + 1)
    for y in range(h + 1):
        acc = prev[y - 1] if y >= 1 else zero
        if y < h:
            acc = acc + level[y] * prev[y]
        pre[y] = acc
    col = list(pre)
    for y in range(h - 1, -1, -1):
        col[y] = col[y] + drop[y + 1] * col[y + 1]
    return col, pre


def moment_negative(vs, n, r, s):
    """Generalized moment for z^(-n), via the mirrored model DP."""
    if min(n, r, s) < 0:
        raise ValueError("indices must be nonnegative")
    row = vs.sweep(("neg_rows", s), n, _neg_step, s)[n]
    return row[r] if r < len(row) else vs.zero()


def _neg_step(vs, rows, s):
    # suffix sums: acc_y = sum over b >= y of conj(alpha_b) * prev[b]
    if not rows:
        return _unit_column(vs, s)
    prev = rows[-1]
    h = len(prev)
    zero = vs.zero()
    new = [zero] * (h + 1)
    acc = zero
    for y in range(h - 1, -1, -1):
        acc = acc + vs.alpha_bar(y) * prev[y]
        rise = vs.rho(y - 1) * prev[y - 1] if y >= 1 else zero
        new[y] = rise - vs.alpha(y - 1) * acc
    new[h] = vs.rho(h - 1) * prev[h - 1]
    return new


# ---------------------------------------------------------------------------
# correspondences between the models


def lukasiewicz_to_gmotzkin(path):
    """Rewrite each fall of size k as a level step, k falls and a level step.

    Rises stay rises.  The image starts at (-r, r), ends at (2n - s, s)
    and carries the same weight, step parities included.
    """
    r = path.start[1]
    steps = []
    for _, dy in path.steps:
        if dy == 1:
            steps.append(UP)
        else:
            steps.append(LEVEL)
            steps.extend([(1, -1)] * (-dy))
            steps.append(LEVEL)
    return LatticePath("gmotzkin", (-r, r), steps)


def gmotzkin_to_lukasiewicz(path):
    """Inverse of lukasiewicz_to_gmotzkin; rejects ill-formed step lists."""
    r = path.start[1]
    steps = []
    dys = iter(dy for _, dy in path.steps)
    for dy in dys:
        if dy == 1:
            steps.append(UP)
            continue
        if dy != 0:
            raise ValueError("fall outside a level-step block")
        k, dy = 0, next(dys, None)
        while dy == -1:
            k, dy = k + 1, next(dys, None)
        if dy != 0:
            raise ValueError("unterminated level-step block")
        steps.append((1, -k))
    return LatticePath("lukasiewicz", (0, r), steps)


def contract_schroder(path):
    """Merge every width step with its trailing drops into one unit-width step."""
    steps = []
    for dx, dy in path.steps:
        if dx == 1:
            steps.append((1, dy))
        elif (dx, dy) == VERTICAL and steps:
            steps[-1] = (1, steps[-1][1] - 1)
        else:
            raise ValueError("vertical drop with no preceding width step")
    return LatticePath("lukasiewicz", path.start, steps)


def schroder_grouping(n, r, s):
    """Partition the drop-model paths by their contracted representative.

    Returns a dict keyed by the representative's step tuple.  Per group,
    the drop-model weights add up to the representative's weight, which
    the tests verify.
    """
    groups = {}
    for p in enumerate_paths("schroder", n, r, s):
        groups.setdefault(contract_schroder(p).steps, []).append(p)
    return groups


# ---------------------------------------------------------------------------
# positivity


def positivity_certificate(vs, n, r, s):
    """Expansion of the moment over the doubled alphabet, coefficients checked.

    Requires a symbolic sequence with the coefficients kept generic.  The
    conjugated symbols are replaced by their negatives, after which every
    coefficient must be a nonnegative integer; a violation would mean an
    implementation bug, not a property of the input.
    """
    if vs.mode != SYMBOLIC:
        raise ValueError("positivity certificates need symbolic mode")
    value = moment_lukasiewicz(vs, n, r, s)
    expansion = beta_form(value)
    for monom, coeff in expansion.items():
        if not (isinstance(coeff, int) and coeff >= 0):
            raise PositivityViolation(
                "coefficient %s of %s in moment (%d, %d, %d)"
                % (coeff, render_beta_monomial(monom), n, r, s))
    return expansion
