"""Certification harness for maps between finite subset spaces.

Estimates Lipschitz and Hoelder constants by exhaustive or sampled pair
search, checks displacement bounds, splits, decomposes and merges sampled
set-valued paths, computes quasiconvexity obstruction constants, and builds
the exact rational chain witness showing that deleting the minimum of a
harmonic set admits no Lipschitz bound.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .metric import (
    DEFAULT_ENUMERATION_CAP,
    FSet,
    FiniteMetricSpace,
    _BLOCK_CELLS,
    _distance_fn,
    _eps_graph,
    _subset_count,
    as_finite_space,
    enumerate_fsets,
    get_tolerance,
    hausdorff,
    match_bijection,
    min_separation,
)

_PAIR_BUDGET = 20000
# sets per block side: a 128 x 128 float64 block is 128 KiB and stays in
# cache, where 1024 x 1024 (8 MiB) does not
_BLOCK = 128


@dataclass(frozen=True, eq=False)
class SubsetDomain:
    """All nonempty subsets of a space with at most n points.

    The subsets are enumerated eagerly when their number fits under the cap;
    otherwise ``sets`` is None and searches over the domain fall back to
    seeded sampling, unless their pair budget covers every pair.
    """

    space: object
    n: int
    sets: tuple | None

    @classmethod
    def build(cls, space, n, cap=None):
        cap = DEFAULT_ENUMERATION_CAP if cap is None else cap
        count = _subset_count(len(space.points), n)
        sets = tuple(enumerate_fsets(space, n)) if count <= cap else None
        return cls(space, n, sets)

    @property
    def exhaustive(self):
        return self.sets is not None


@dataclass(frozen=True)
class ConstantReport:
    """Best observed ratio Δ(f(A), f(B)) / Δ(A, B)^β over a pair search.

    ``stop_reason`` says why the search ended: ``"exhaustive"`` after every
    pair, ``"budget"`` when a sampled search used up its pair budget, and
    ``"stale"`` when it ran out of new pairs first, as a covered one does.
    """

    kind: str
    exponent: float
    constant: float
    witness: tuple
    pairs_examined: int
    mode: str
    stop_reason: str


class _PackedFamily:
    """Index-packed sets over their own universe: the points they contain.

    ``idx`` is (num_sets, k) with each row the universe indices of one set,
    padded by repeating the first index (padding never changes Hausdorff
    distances).  ``dist`` is the universe's distance matrix, exactly
    symmetric as every ``FiniteMetricSpace`` matrix is, or its line
    positions, read as |u - b|.

    A universe of at most ``_BLOCK`` points keeps one minima table over the
    whole family, (universe, num_sets) and C-contiguous, in rank codes:
    ``vals`` holds the distinct entries of the universe's distance matrix in
    ascending order, each line gap rounded to float once, and ``table[u, s]``
    is the index into ``vals`` of the min over b in s of d(u, b), in the
    least unsigned type that holds every index.  Min and max only compare
    distances, so they fold the codes as they would the floats, and
    ``floats`` reads codes back as the distances they stand for.

    A larger universe, such as the image of a retraction that slides points
    off the sample, would make that table quadratic in the family.  It
    keeps instead, for each block of ``_BLOCK`` sets, the block's distinct
    points and each set's slots as indices into them, and ``directed``
    builds a (block points, ``_BLOCK``) table of floats for each block pair
    it reads; its ``vals`` is None.
    """

    def __init__(self, sets, space):
        lookup, self.dist = _universe(sets, space)
        self.idx = _padded(sets, max(map(len, sets)), lambda pts: np.fromiter(
            map(lookup.__getitem__, pts), np.intp, len(pts)))
        if len(self.dist) <= _BLOCK:
            D = self.dist
            if D.ndim == 1:
                D = np.abs(D[:, None] - D).astype(float, copy=False)
            self.vals, codes = np.unique(D, return_inverse=True)
            codes = codes.reshape(D.shape).astype(np.min_scalar_type(len(self.vals) - 1))
            self.table = _minima(codes, slice(None), self.idx)
            self.blocks = None
        else:
            self.vals = self.table = None
            self.blocks = []
            for r0 in range(0, len(self.idx), _BLOCK):
                block = self.idx[r0:r0 + _BLOCK]
                pts, rows = np.unique(block, return_inverse=True)
                self.blocks.append((pts, rows.reshape(block.shape)))

    def directed(self, r0, c0):
        """Directed distances from each set of the row block at r0 to each
        set of the block at c0: for each row set, the max over its points
        of their minima to the other set.  The folds are k contiguous row
        gathers of a table and an in-place max."""
        if self.blocks is None:
            table = self.table[:, c0:c0 + _BLOCK]
            rows = self.idx[r0:r0 + _BLOCK]
        else:
            pts, rows = self.blocks[r0 // _BLOCK]
            table = _minima(self.dist, pts, self.idx[c0:c0 + _BLOCK])
        out = table[rows[:, 0]]
        for c in range(1, rows.shape[1]):
            np.maximum(out, table[rows[:, c]], out=out)
        return out

    def floats(self, H):
        """The distances that the entries of ``directed``'s tables stand for."""
        return H if self.vals is None else np.take(self.vals, H)


def _minima(dist, pts, slots):
    """Table [p, s] = min over the points b of row s of ``slots`` of
    ``dist[b, pts[p]]``, or of |dist[pts[p]] - dist[b]| for line positions;
    ``pts`` is an index array, or a slice for every point.  C-contiguous and
    folded one column of ``slots`` at a time, so building it peaks at two
    tables; from line positions it is rounded to float once, and from a
    matrix it keeps the matrix's type."""
    first, rest = slots[:, 0], slots[:, 1:].T
    if dist.ndim == 1:
        x = dist[pts, None]
        out = np.abs(x - dist[first])
        gap = np.empty_like(out)
        for c in rest:
            np.minimum(out, np.abs(np.subtract(x, dist[c], out=gap), out=gap), out=out)
        return out.astype(float, copy=False)
    out = np.ascontiguousarray(dist[first][:, pts].T)
    for c in rest:
        np.minimum(out, dist[c][:, pts].T, out=out)
    return out


def _hausdorff_block(fam, i0, j0):
    """Hausdorff distances between the sets of the row blocks at i0 and j0,
    in the family's table entries: entry (i, j) read by ``fam.floats`` is
    the float ``hausdorff(sets[i0 + i], sets[j0 + j], space)`` gives."""
    forward = fam.directed(i0, j0)
    return np.maximum(forward, fam.directed(j0, i0).T, out=forward)


def _pair_distances(sets, space):
    """Hausdorff distances of all pairs i < j of ``sets``, in
    ``np.triu_indices(len(sets), 1)`` order, as ``_hausdorff_block`` gives
    them."""
    fam = _PackedFamily(sets, space)
    N = len(sets)
    H = np.zeros((N, N), float if fam.vals is None else fam.table.dtype)
    for i0 in range(0, N, _BLOCK):
        for j0 in range(i0, N, _BLOCK):
            H[i0:i0 + _BLOCK, j0:j0 + _BLOCK] = _hausdorff_block(fam, i0, j0)
    return fam.floats(H[np.triu_indices(N, 1)])


def _universe(sets, space):
    """The distinct points of ``sets``: their index lookup and their
    distances, a square matrix, or line positions in order as
    ``_line_array`` reads them.  An empty set, or a point that
    ``FiniteMetricSpace.index`` cannot read, raises its ValueError."""
    if not all(map(len, sets)):
        raise ValueError("Hausdorff distance needs nonempty sets")
    if isinstance(space, FiniteMetricSpace):
        used = sorted(set(map(space.index, itertools.chain.from_iterable(sets))))
        return {space.points[i]: u for u, i in enumerate(used)}, space.dist[np.ix_(used, used)]
    vals = sorted({p for s in sets for p in s})
    return {v: u for u, v in enumerate(vals)}, _line_array(vals)


def _power(h, beta):
    """h ** beta, one rounding for both searches: on one float ``**`` is libm's
    pow, which can differ from the array loop that ``np.power`` runs even there."""
    return h if beta == 1.0 else np.sqrt(h) if beta == 0.5 else np.power(h, beta)


def _exhaustive_search(sets, images, space, beta):
    dom = _PackedFamily(sets, space)
    img = _PackedFamily(images, space)
    N = len(sets)
    # each distinct distance to the beta once; code 0 is the diagonal's zero,
    # so a pair is scored where Hd > 0 in codes as in floats
    pd = None if dom.vals is None else _power(dom.vals, beta)
    # blocks are skipped where both families are coded, from the first peak on
    skips = pd is not None and img.vals is not None
    thr = None
    best = -math.inf
    arg = None
    for i0 in range(0, N, _BLOCK):
        for j0 in range(i0, N, _BLOCK):
            Hd = _hausdorff_block(dom, i0, j0)
            Hi = _hausdorff_block(img, i0, j0)
            if thr is not None:
                # exact: a pair whose image code is below its threshold has a
                # ratio below best, so a block of only such pairs changes nothing
                live = Hi >= np.take(thr, Hd)
                if not (np.triu(live, 1) if i0 == j0 else live).any():
                    continue
            den = _power(Hd, beta) if pd is None else np.take(pd, Hd)
            R = np.divide(img.floats(Hi), den, out=np.full(Hi.shape, -np.inf), where=Hd > 0)
            if i0 == j0:
                R[np.tril_indices(len(R))] = -np.inf
            li, lj = divmod(int(np.argmax(R)), R.shape[1])  # R holds no NaN
            peak = float(R[li, lj])
            if peak < best or peak == -math.inf:
                continue
            cand = (i0 + li, j0 + lj)
            if peak > best and skips:
                thr = _thresholds(img.vals, pd, peak)
            if peak > best or cand < arg:
                best, arg = peak, cand
    if arg is None:
        raise ValueError("all pairs in the domain are at distance 0")
    return best, (sets[arg[0]], sets[arg[1]]), math.comb(N, 2)


def _thresholds(vals, pd, best):
    """For each domain code d, the least image code c with vals[c] / pd[d] >=
    best, by a bisection over the image codes for all d at once; len(vals)
    for none, and for code 0, the distance 0, whose pairs are not scored.
    A correctly rounded division is monotone in its numerator, so a pair
    with image code below its threshold has a ratio below best."""
    n = len(vals)
    thr = np.full(len(pd), n, np.min_scalar_type(n))
    p = pd[1:]
    lo = np.zeros(len(p), np.intp)
    hi = np.full(len(p), n)
    # every c below lo fails and every c from hi on passes
    for _ in range(n.bit_length()):
        mid = np.minimum((lo + hi) // 2, n - 1)
        ok = vals[mid] / p >= best
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid + 1)
    thr[1:] = lo
    return thr


def _line_array(values):
    """A list of line positions as float64 when each is a float exactly (floats,
    ints up to 2**53, dyadic Fractions), else as objects, in Python's exact
    arithmetic on ints and Fractions.  Either way a gap of two floats or two
    exact values is rounded once, and as rounding is monotone, a least or
    greatest rounded gap is the exact one rounded.  Floats alone go straight
    to float64, and a Fraction whose denominator is no power of two, which
    no float is, straight to objects, neither converted twice."""
    kinds = set(map(type, values))
    if kinds <= {float, np.float64}:
        return np.array(values, dtype=float)
    if Fraction in kinds and any(type(v) is Fraction and v.denominator & (v.denominator - 1)
                                 for v in values):
        return np.array(values, dtype=object)
    try:
        floats = np.array(values, dtype=float)
    except OverflowError:  # an int or a Fraction past the float range
        return np.array(values, dtype=object)
    return floats if floats.tolist() == values else np.array(values, dtype=object)


def _row_hausdorff(A, B, dist=None):
    """Hausdorff distance of each pair of rows of A and B, a row being a set
    padded by repeating one of its points: line positions, at |a - b|, or,
    given ``dist``, indices into that exactly symmetric matrix.  Each is the
    value ``hausdorff`` gives, as a float on float rows: the least gap from
    a point to the other set is the one the merge pass finds.  Each least
    and greatest gap is a fold over one point axis, in index order, as
    numpy's reductions along it go, but on whole (rows, points) slices: on
    rows of a few points, a reduction's inner loop per row costs more."""
    if dist is None:
        gaps = np.abs(A[:, :, None] - B[:, None, :])
    else:
        gaps = dist[A[:, :, None], B[:, None, :]]
    to_b = functools.reduce(np.minimum, gaps.transpose(2, 0, 1))  # (rows, A's points)
    to_a = functools.reduce(np.minimum, gaps.transpose(1, 0, 2))  # (rows, B's points)
    return np.maximum(functools.reduce(np.maximum, to_b.T), functools.reduce(np.maximum, to_a.T))


def _padded(rows, width, array):
    """The entries of ragged rows as a (rows, width) array, each row padded
    by repeating its first entry; ``array`` makes the flat array of all
    entries from a list."""
    lens = np.fromiter(map(len, rows), np.intp, len(rows))
    flat = array(list(itertools.chain.from_iterable(rows)))
    cols = np.arange(width)
    pos = np.where(cols < lens[:, None], cols, 0)
    pos += (np.cumsum(lens) - lens)[:, None]
    return np.take(flat, pos)


class _Draws:
    """The draws of ``random.Random(seed)``, read straight off its
    ``getrandbits`` by CPython's own algorithms (the same from 3.10 to 3.13)
    without their argument checks: ``below(m)`` is ``randrange(m)``, so
    ``randint(1, m)`` is ``1 + below(m)`` and ``choice(s)`` is
    ``s[below(len(s))]``, and ``sample(N, k)`` is ``sample(range(N), k)``.
    ``random`` is the generator's own."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.random, self._bits = rng.random, rng.getrandbits

    def below(self, m):
        k = m.bit_length()
        r = self._bits(k)
        while r >= m:
            r = self._bits(k)
        return r

    def sample(self, N, k):
        setsize = 21
        if k > 5:
            setsize += 4 ** math.ceil(math.log(k * 3, 4))
        out = []
        if N <= setsize:
            # the pool branch: a swap moves each pick out of the pool's live part
            pool = list(range(N))
            for i in range(k):
                j = self.below(N - i)
                out.append(pool[j])
                pool[j] = pool[N - i - 1]
            return out
        # the rejection branch redraws a pick past N or already taken alike
        bits, width = self._bits, N.bit_length()
        for _ in range(k):
            j = bits(width)
            while j >= N or j in out:
                j = bits(width)
            out.append(j)
        return out


class _SampledSets:
    """The sets of a sampled search, each the sorted tuple of its indices
    into ``pts``, whose pairs are scored a batch at a time.

    A set's coordinates are its indices padded to n by repeating the first,
    read as line positions or as indices into the space's matrix.  Two
    distinct sets are at positive distance, so every pair recorded is
    scored, and ``map_pair`` calls f on each set once, at its first recorded
    pair, as a pair-by-pair search does.  ``images`` keeps each image as the
    plain tuple of its coordinates, points on the line, else indices into
    the matrix, which the collector stops tracking.
    """

    def __init__(self, space, n, f):
        try:
            self.pts, self._build = sorted(space.points), FSet._from_sorted
        except TypeError:
            self.pts, self._build = list(space.points), FSet
        self.space, self.n, self.f = space, n, f
        if isinstance(space, FiniteMetricSpace):
            self.dist = space.dist
            self.coords = np.array([space.index(p) for p in self.pts], dtype=np.intp)
        else:
            self.dist = None
            self.coords = _line_array(self.pts)
        self.images = {}

    def fset(self, a):
        return self._build(tuple(map(self.pts.__getitem__, a)))

    def map_pair(self, a, b):
        """Map each set of a new pair that has no image yet, a first.  An
        image empty or off the space raises ``_universe``'s ValueError once
        both sets are mapped, as a pair-by-pair search maps both first."""
        for s in (a, b):
            if s not in self.images:
                B = self.f(self.fset(s))
                try:
                    row = tuple(B) if self.dist is None else tuple(map(self.space.index, B))
                    if not row:
                        raise ValueError("Hausdorff distance needs nonempty sets")
                except ValueError:
                    if s == a and b not in self.images:
                        self.f(self.fset(b))
                    raise
                self.images[s] = row

    def ratios(self, pairs, beta):
        """Δ(f(A), f(B)) / Δ(A, B)^β of each mapped pair as a float array,
        in chunks of about _BLOCK_CELLS point pairs."""
        step = max(1, _BLOCK_CELLS // self.n ** 2)
        return np.concatenate([self._ratios(pairs[i:i + step], beta)
                               for i in range(0, len(pairs), step)])

    def _ratios(self, pairs, beta):
        X, Y = (self.coords[_padded(side, self.n, np.array)] for side in zip(*pairs))
        rows = list(map(self.images.__getitem__, itertools.chain.from_iterable(pairs)))
        img = _padded(rows, max(map(len, rows)), _line_array if self.dist is None else np.array)
        hi = _row_hausdorff(img[0::2], img[1::2], self.dist).astype(float)
        return hi / _power(_row_hausdorff(X, Y, self.dist).astype(float), beta)


def _sampled_search(space, n, beta, seed, budget, f):
    # a set is the sorted tuple of its indices into pts, which orders exactly
    # as its elements do, so that a known pair is skipped before any FSet.
    # Drawing and climbing only record new pairs; each batch of them is then
    # scored at once, which changes no draw, as the draws read no score
    draw = _Draws(seed)
    below = draw.below
    sets = _SampledSets(space, n, f)
    N = len(sets.pts)
    most = min(n, N)
    scored = {}  # every pair recorded, in order, with its ratio once scored
    new = []  # the pairs recorded since the last batch, in order
    top = []  # the six largest (ratio, pair) scored so far, largest first

    def record(a, b):
        key = (a, b) if a <= b else (b, a)
        if a != b and key not in scored:
            scored[key] = None
            new.append(key)
            sets.map_pair(a, b)

    def score_new():
        nonlocal top
        ratios = sets.ratios(new, beta)
        values = ratios.tolist()
        scored.update(zip(new, values))
        best = range(len(new))
        if len(new) > 6:
            best = np.flatnonzero(ratios >= np.partition(ratios, -6)[-6]).tolist()
        top = heapq.nlargest(6, top + [(values[i], new[i]) for i in best])
        new.clear()

    # each draw is the one random.Random(seed) would make: randint(1, most),
    # sample(range(N), k), choice and randrange, as _Draws reads them
    def random_subset():
        k = 1 + below(most)
        return tuple(sorted(draw.sample(N, k)))

    def mutate(a):
        roll = draw.random()
        if roll < 0.4 and len(a) > 1:
            drop = a[below(len(a))]
            return tuple(i for i in a if i != drop)
        if roll < 0.75:
            i = a[below(len(a))]
            for _ in range(4):
                j = min(N - 1, max(0, i + (-3, -2, -1, 1, 2, 3)[below(6)]))
                if j not in a:
                    return tuple(sorted(j if q == i else q for q in a))
            return random_subset()
        if len(a) < n:
            anchor = a[below(len(a))]
            lo, hi = max(0, anchor - 4), min(N, anchor + 5)
            j = lo + below(hi - lo) if draw.random() < 0.5 else below(N)
            if j not in a:
                return tuple(sorted(a + (j,)))
        return random_subset()

    def neighbors(a, b):
        for s, other, flipped in ((a, b, False), (b, a, True)):
            for slot, i in enumerate(s):
                for off in (-2, -1, 1, 2):
                    j = i + off
                    if 0 <= j < N and j not in s:
                        moved = tuple(sorted(s[:slot] + (j,) + s[slot + 1:]))
                        yield (other, moved) if flipped else (moved, other)
        for s, flipped in ((a, False), (b, True)):
            if len(s) > 1:
                for i in s:
                    dropped = tuple(q for q in s if q != i)
                    yield (dropped, s) if flipped else (s, dropped)

    # the domain has more than budget // 2 distinct pairs, so this loop ends
    while len(scored) < budget // 2:
        a = random_subset()
        b = mutate(a) if draw.random() < 0.7 else random_subset()
        record(a, b)
    score_new()
    # the climb draws nothing, so a pair it has expanded has every neighbour
    # recorded: each top pair is expanded once, and a sweep that records no
    # pair leaves top, and so every later sweep, as it was
    expanded = set()

    def sweep():
        for _, pair in top:
            if pair not in expanded:
                expanded.add(pair)
                yield from neighbors(*pair)

    while len(scored) < budget:
        for a, b in sweep():
            record(a, b)
            if len(scored) >= budget:
                break
        if not new:
            break
        score_new()
    peak = max(scored.values())
    # the kernel's tie rule: the least pair in enumerate_fsets order, earlier set first
    (_, a), (_, b) = min(sorted((len(t), t) for t in k) for k, r in scored.items() if r == peak)
    stop = "budget" if len(scored) >= budget else "stale"
    return peak, (sets.fset(a), sets.fset(b)), len(scored), stop


def estimate_constant(f, domain, hoelder_exponent=1.0, space=None, seed=0,
                      pair_budget=_PAIR_BUDGET):
    """Estimate the best constant C with Δ(f(A), f(B)) ≤ C Δ(A, B)^β.

    ``domain`` is either a SubsetDomain or an explicit sequence of FSets
    (searched exhaustively; pass the ambient ``space`` unless it is a subset
    of the real line).  Exhaustive mode reports a true maximum with a
    deterministic witness; sampled mode reports a lower bound found by
    seeded random pairs plus hill climbing on the best witnesses, and is
    deterministic under a fixed seed; a budget that covers every pair gives
    it the exhaustive search.  An image empty or off the space raises ValueError.
    """
    beta = float(hoelder_exponent)
    if not 0.0 < beta <= 1.0:
        raise ValueError("Hoelder exponent must lie in (0, 1]")
    kind = "lipschitz" if beta == 1.0 else "hoelder"
    mode = stop = "exhaustive"
    if isinstance(domain, SubsetDomain):
        space, sets = domain.space, domain.sets
        if sets is None:
            count = _subset_count(len(space.points), domain.n)
            if count < 2:
                raise ValueError("domain must contain at least two subsets")
            if pair_budget < 2:
                raise ValueError("pair budget must be at least 2, got %d" % pair_budget)
            if math.comb(count, 2) > pair_budget // 2:
                c, w, p, stop = _sampled_search(space, domain.n, beta, seed, pair_budget, f)
                return ConstantReport(kind, beta, c, w, p, "sampled", stop)
            # a covered budget would score every pair, then find no new one
            sets, mode, stop = enumerate_fsets(space, domain.n), "sampled", "stale"
    else:
        sets = tuple(domain)
    if len(sets) < 2:
        raise ValueError("domain must contain at least two subsets")
    images = [f(A) for A in sets]
    c, w, p = _exhaustive_search(sets, images, space, beta)
    return ConstantReport(kind, beta, c, w, p, mode, stop)


@dataclass(frozen=True)
class DisplacementReport:
    """Worst ratio of Δ(f(A), A) against factor * δ_n(A) over a domain."""

    ok: bool
    factor: float
    max_ratio: float
    worst: FSet | None
    worst_displacement: float


def check_displacement(f, domain, L, n, space=None, factor=None):
    """Verify the displacement bound Δ(f(A), A) ≤ (L + 1) δ_n(A) on a domain.

    Sets with fewer than n points have zero separation, so the bound forces
    f to fix them; that, and the bound itself, is checked within
    ``get_tolerance()``.  Pass ``factor`` to test a different multiple of
    δ_n, e.g. n − 1 for the line retraction.
    """
    tol = get_tolerance()
    if isinstance(domain, SubsetDomain):
        if not domain.exhaustive:
            raise ValueError("displacement check needs an enumerated domain")
        space, sets = domain.space, domain.sets
    else:
        sets = tuple(domain)
    c = float(L) + 1.0 if factor is None else float(factor)
    ok = True
    ratio = 0.0
    worst = None
    worst_disp = 0.0
    for A in sets:
        disp = hausdorff(f(A), A, space)
        sep = min_separation(A, n, space)
        if sep == 0:
            bad = disp > tol
            r = math.inf if bad else 0.0
        else:
            r = disp / (c * sep)
            bad = r > 1.0 + tol
        if r > ratio:
            ratio, worst, worst_disp = r, A, disp
        if bad:
            ok = False
    return DisplacementReport(ok, c, ratio, worst, worst_disp)


def _set_diameter(A, space):
    d = _distance_fn(space)
    pts = tuple(A)
    if len(pts) < 2:
        return 0.0
    return max(d(p, q) for p, q in itertools.combinations(pts, 2))


@dataclass(frozen=True, eq=False)
class SampledPath:
    """A map from a finite parameter grid into a subset space.

    ``lipschitz`` is the best constant on consecutive samples, a lower bound
    for the constant of any underlying continuous path.
    """

    grid: tuple
    values: tuple
    lipschitz: float

    def __post_init__(self):
        if len(self.grid) != len(self.values) or not self.grid:
            raise ValueError("grid and values must be nonempty and aligned")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")

    @classmethod
    def from_samples(cls, grid, values, space=None):
        grid = tuple(float(t) for t in grid)
        values = tuple(map(FSet, values))
        L = 0.0
        for (t0, A), (t1, B) in zip(zip(grid, values), zip(grid[1:], values[1:])):
            L = max(L, hausdorff(A, B, space) / (t1 - t0))
        return cls(grid, values, L)

    def span(self):
        return self.grid[-1] - self.grid[0]

    def cardinalities(self):
        return {len(v) for v in self.values}


def split_gh(f, z0, E, L=None, space=None):
    """Split a wide path f into two disjoint sub-paths g and h.

    E is a maximal well-separated subset of f(z0): its diameter is at most
    3LD(|E| - 1) and adding any other point of f(z0) pushes the diameter past
    3LD|E|.  Given diam f(z0) > 3(n-1)LD, the points within LD of E form
    g(z), the rest h(z); both halves are nonempty everywhere and inherit the
    Lipschitz constant.  Every bound is checked within ``get_tolerance()``.
    """
    tol = get_tolerance()
    L = f.lipschitz if L is None else float(L)
    D = f.span()
    d = _distance_fn(space)
    try:
        i0 = f.grid.index(z0)
    except ValueError:
        raise ValueError("z0 must be one of the grid parameters") from None
    base = f.values[i0]
    E = FSet(E)
    if any(e not in base for e in E):
        raise ValueError("E must be a subset of f(z0)")
    n = max(len(v) for v in f.values)
    if not _set_diameter(base, space) > 3 * (n - 1) * L * D:
        raise ValueError("diam f(z0) must exceed 3(n-1)LD")
    if _set_diameter(E, space) > 3 * L * D * (len(E) - 1) + tol:
        raise ValueError("E is too spread out: diam E must be at most 3LD(|E|-1)")
    for x in base:
        if x in E:
            continue
        if _set_diameter(FSet(E + (x,)), space) <= 3 * L * D * len(E) + tol:
            raise ValueError("E is not maximal: %r can be added" % (x,))
    g_vals, h_vals = [], []
    for z, val in zip(f.grid, f.values):
        near = [x for x in val if min(d(x, e) for e in E) <= L * D + tol]
        far = [x for x in val if x not in near]
        if not near or not far:
            raise ArithmeticError("split degenerates at parameter %r" % (z,))
        g_vals.append(FSet(near))
        h_vals.append(FSet(far))
    g = SampledPath.from_samples(f.grid, g_vals, space)
    h = SampledPath.from_samples(f.grid, h_vals, space)
    for part, name in ((g, "g"), (h, "h")):
        if part.lipschitz > L + tol:
            raise ArithmeticError("%s is not %g-Lipschitz on the sample" % (name, L))
    return g, h


def decompose_path(f, space=None):
    """Split a constant-cardinality path into individually Lipschitz branches.

    Requires every sample to have exactly n points and every grid step to be
    shorter than δ_min / (3 L (n - 1)), which keeps consecutive samples close
    enough for nearest-neighbor matching to be a bijection.  Returns n paths
    with singleton values whose union recovers f exactly.
    """
    cards = f.cardinalities()
    if len(cards) != 1:
        raise ValueError("cardinality drop detected: sizes %s" % sorted(cards))
    n = cards.pop()
    if n == 1:
        return (f,)
    L = f.lipschitz
    delta_min = min(min_separation(v, n, space) for v in f.values)
    limit = delta_min / (3.0 * L * (n - 1)) if L > 0 else math.inf
    step = max(b - a for a, b in zip(f.grid, f.grid[1:]))
    if step >= limit:
        raise ValueError("step too coarse: %g, need below %g" % (step, limit))
    rows = [[p] for p in f.values[0]]
    current = [p for p in f.values[0]]
    for A, B in zip(f.values, f.values[1:]):
        link = dict(match_bijection(A, B, space))
        current = [link[p] for p in current]
        for row, p in zip(rows, current):
            row.append(p)
    return tuple(SampledPath.from_samples(f.grid, [FSet((p,)) for p in row], space)
                 for row in rows)


@dataclass(frozen=True)
class MergedCurve:
    """A sampled curve joining the two initial points of a collapsing pair
    path, with its length and the path length it is bounded against."""

    points: tuple
    length: float
    gamma_length: float


def merge_curve(gamma, space=None):
    """Join the two points of Γ(t_0) by a curve of length at most 2ℓ.

    ℓ is the sampled length of Γ up to its first singleton value.  The two
    trajectories are tracked with the pairing of smaller maximal displacement
    at each step and concatenated back to back through the collapse point.
    """
    d = _distance_fn(space)
    sizes = [len(v) for v in gamma.values]
    if any(s > 2 for s in sizes):
        raise ValueError("merge_curve expects values with at most two points")
    try:
        stop = sizes.index(1)
    except ValueError:
        raise ValueError("no singleton reached along the path") from None
    first = tuple(gamma.values[0])
    if stop == 0:
        return MergedCurve((first[0],), 0.0, 0.0)
    length_gamma = sum(hausdorff(a, b, space)
                       for a, b in zip(gamma.values[:stop], gamma.values[1:stop + 1]))
    u, v = first
    path_u, path_v = [u], [v]
    for val in gamma.values[1:stop + 1]:
        pts = tuple(val)
        a, b = pts if len(pts) == 2 else (pts[0], pts[0])
        straight = max(d(u, a), d(v, b))
        crossed = max(d(u, b), d(v, a))
        if crossed < straight:
            a, b = b, a
        path_u.append(a)
        path_v.append(b)
        u, v = a, b
    curve = path_u + path_v[::-1][1:]
    cleaned = [curve[0]]
    for p in curve[1:]:
        if p != cleaned[-1]:
            cleaned.append(p)
    length = sum(d(a, b) for a, b in zip(cleaned, cleaned[1:]))
    return MergedCurve(tuple(cleaned), length, length_gamma)


@dataclass(frozen=True)
class QcBounds:
    """Radius and constant pair for the quasiconvexity obstruction: no
    L-Lipschitz retraction exists once short curves are forced to be longer
    than M times the distance at scale r."""

    L: float
    r: float
    M: float


def qc_bounds(L):
    if L < 1:
        raise ValueError("L must be at least 1")
    return QcBounds(float(L), 1.0 / (48 * (L + 1) ** 5),
                    float(4 * L * L * (L + 1) ** 2))


@dataclass(frozen=True)
class QuasiconvexityReport:
    """Worst ratio of shortest ε-graph path length to distance."""

    constant: float
    witness: tuple | None
    connected: bool
    eps: float


def quasiconvexity_constant(space, eps):
    """Discrete quasiconvexity constant at neighbor radius eps.

    Builds the graph joining samples at distance at most eps, weights edges
    by distance, and returns the largest ratio of graph distance to metric
    distance.  A disconnected graph yields an infinite constant and the
    closest disconnected pair as witness.
    """
    # imported here: scipy.sparse would be two thirds of `import finset`
    from scipy.sparse.csgraph import dijkstra

    space = as_finite_space(space)
    N = len(space.points)
    if N == 0:
        raise ValueError("space is empty")
    if N == 1:
        return QuasiconvexityReport(1.0, None, True, float(eps))
    D = space.dist
    # D is exactly symmetric, so is the graph: a directed search needs no
    # transpose of it, and dijkstra, unlike shortest_path, no checked copy
    lengths = dijkstra(_eps_graph(D, eps))
    cut = np.isinf(lengths)
    if cut.any():
        # the closest pair with no path between them
        lengths.fill(np.inf)
        np.copyto(lengths, D, where=cut)
        i, j = divmod(int(np.argmin(lengths)), N)
        return QuasiconvexityReport(math.inf,
                                    (space.points[i], space.points[j]),
                                    False, float(eps))
    with np.errstate(invalid="ignore"):  # 0 / 0 on the diagonal, zeroed next
        ratios = np.divide(lengths, D, out=lengths)
    np.fill_diagonal(ratios, 0.0)
    i, j = divmod(int(np.argmax(ratios)), N)
    return QuasiconvexityReport(float(ratios[i, j]),
                                (space.points[i], space.points[j]),
                                True, float(eps))


@dataclass(frozen=True)
class ChainWitness:
    """Exact rational certificate that no L-Lipschitz map can delete the
    minimum on the harmonic set.

    The sets A = {0, y, z} and B = {0, x, y, z} are joined by a chain whose
    Hausdorff steps never exceed x², yet any L-Lipschitz deletion map would
    have to move mass by more than the displacement bound allows.
    """

    L: Fraction
    k: int
    x: Fraction
    y: Fraction
    z: Fraction
    A: FSet
    B: FSet
    chain: tuple
    max_step: Fraction


def _witness_parameters(L):
    k = 2
    while True:
        x = Fraction(1, k ** 3)
        y = Fraction(1, k ** 2 + 1)
        z = Fraction(1, k ** 2)
        if 2 * x < y and 2 * L * x * x < y * y and 2 * (L + 1) * (z - y) < x:
            return k, x, y, z
        k += 1


def lipschitz_obstruction_witness(L):
    """Chain witness against an L-Lipschitz minimum-deleting retraction.

    Picks the least k making x = 1/k³, y = 1/(k²+1), z = 1/k² satisfy
    2x < y, 2Lx² < y², and 2(L+1)(z−y) < x, then walks a fourth point from 0
    up to x through set elements in maximal steps of at most x².  All
    arithmetic is exact.
    """
    L = Fraction(L)
    if L < 1:
        raise ValueError("L must be at least 1")
    k, x, y, z = _witness_parameters(L)
    zero = Fraction(0)
    k3, k6 = k ** 3, k ** 6
    # the fourth point w = 1/m steps to the largest unit fraction within x² of
    # it, 1/⌈1/(w + x²)⌉ = 1/⌈m k⁶/(m + k⁶)⌉, stopping at x = 1/k³; from w = 0
    # that is 1/k⁶.  Each set 0 < w ≤ x < y < z is built in order.
    A = FSet._from_sorted((zero, y, z))
    chain = [A]
    m = k6
    top = (1, k6)  # the largest step as (numerator, denominator), first 1/k⁶
    while True:
        chain.append(FSet._from_sorted((zero, Fraction(1, m), y, z)))
        if m == k3:
            break
        prev, m = m, max(k3, -(-m * k6 // (m + k6)))
        # only w moves, from 1/prev to 1/m ≤ x < y/2, which lies nearer 1/prev
        # than y: the step is 1/m − 1/prev = (prev − m)/(prev m)
        num, den = prev - m, prev * m
        if num * top[1] > top[0] * den:
            top = num, den
    B = chain[-1]
    return ChainWitness(L, k, x, y, z, A, B, tuple(chain), Fraction(*top))


def validate_obstruction_witness(w):
    """Independent exact check of every invariant of a ChainWitness.

    Verifies the three defining inequalities, the displacement contradiction
    (L+1)(z−y) < x/2, the chain endpoints, membership of every chain element
    in {0} ∪ {1/m}, and the step bound Δ ≤ x² on consecutive sets.  Raises
    ValueError naming the first failure; returns True otherwise.
    """
    L, x, y, z = w.L, w.x, w.y, w.z
    if not (isinstance(x, Fraction) and isinstance(y, Fraction)
            and isinstance(z, Fraction)):
        raise ValueError("witness parameters must be exact rationals")
    if not 0 < 2 * x < y < z:
        raise ValueError("ordering 0 < 2x < y < z fails")
    if not 2 * L * x * x < y * y:
        raise ValueError("inequality 2Lx^2 < y^2 fails")
    if not (L + 1) * (z - y) < x / 2:
        raise ValueError("inequality (L+1)(z-y) < x/2 fails")
    if w.chain[0] != FSet((Fraction(0), y, z)) or w.A != w.chain[0]:
        raise ValueError("chain must start at {0, y, z}")
    if w.chain[-1] != FSet((Fraction(0), x, y, z)) or w.B != w.chain[-1]:
        raise ValueError("chain must end at {0, x, y, z}")
    xx = x * x
    worst = Fraction(0)
    for S in w.chain:
        if len(S) > 4:
            raise ValueError("chain set %r has more than 4 points" % (S,))
        for e in S:
            if not isinstance(e, Fraction):
                e = Fraction(e)
            if e != 0 and e.numerator != 1:
                raise ValueError("element %r is not 0 or a unit fraction" % (e,))
    for a, b in zip(w.chain, w.chain[1:]):
        step = hausdorff(a, b)
        if step > xx:
            raise ValueError("chain step %r exceeds x^2" % (step,))
        worst = max(worst, step)
    if worst != w.max_step:
        raise ValueError("recorded max step %r disagrees with %r" % (w.max_step, worst))
    return True
