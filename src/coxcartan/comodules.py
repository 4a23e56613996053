"""Finite-dimensional comodules as representations over the rationals, and
the socle -> envelope -> cokernel engine of injective copresentations and
resolutions.

A Comodule assigns a Q-vector space to each vertex of a presentation and a
matrix to each arc inside its support; arcs leaving the support are the zero
map.  As in module `linalg`, an integral entry is an int and a Fraction
appears only where a denominator does.  Over an incidence presentation the
arcs are the covers, so a comodule is a representation of the Hasse quiver
with commutativity relations.

The engine repeats one step on a finite convex window: take the socle, embed
into its injective envelope, pass to the cokernel.  The socle at a vertex
whose space is a line is read off its out-maps, with no elimination.  One
engine serves every presentation, on the labels of the injectives.

Hom(M, E(a)) is M(a)*, and E(a) at v has a basis of the paths v -> a, all
of them one on a poset (Simson, Colloq. Math. 90, 2001); their number is
`path_count`.  A finite sum of injectives is the list of its summands'
labels (FormalInjective), and a coordinate at v is a pair (summand s, index
i of a path v -> a_s), kept as the int key s + n*i for n summands.  Path
counts give the index: the paths v -> a that start with an arrow follow
those that start with the arrows before it, in `arrows_from` order, and
among them a path is placed as its rest is among the paths from the
arrow's head.  So the key of a path is its rest's key plus a shift for its
first arrow (`FormalInjective.shifts`).  `enumerate_paths` lists the paths
in that order; it is the reference the index is tested against, and no
query calls it.  Where at most one path joins v to each label (every
poset, and the tree families a-infinity, z-a-infinity and d-infinity) every
index and every shift is 0 (`FormalInjective.flat`).  An arrow v -> w of
E(a) sends the coordinate of each path it starts to that of the path's
rest and kills the others, so a functional at w pulls back to v by
shifting its keys.

A cokernel is kept by its dual: at each v a basis of functionals, sparse
rows over the keys at v.  `label_envelope` embeds a comodule, pulling each
socle functional back to the paths into its label arrow by arrow;
`label_socle` reads the envelope of a cokernel off the top of its dual, and
`label_annihilators` passes to the next cokernel.  A morphism between sums
of injectives (InjectiveMorphism) is one functional for each target
summand, on the source at that summand's label; its matrix at v is pulled
back arrow by arrow from the labels, and its dual between the
opposite-side injectives has the same coefficients on reversed paths.  The
symbolic form is what makes that duality exact, and windows only enter when
a morphism is read at a vertex.  `materialized_kernel` is the kernel of
such a morphism as a comodule, and MaterializedInjective realises a sum of
injectives on a window.  Module `resolutions` resolves a poset's simples
this way, and module `artranslate` copresents comodules over path
presentations.
"""

import os
from itertools import chain

from . import linalg
from .errors import IntervalFinitenessViolated, PresentationError
from .lazymatrix import DimensionVector

DEFAULT_NODE_BUDGET = 200_000


def node_budget():
    raw = os.environ.get("COX_NODE_BUDGET")
    return int(raw) if raw else DEFAULT_NODE_BUDGET


# ---------------------------------------------------------------------------
# arrows and paths

def arrows_from(pres, u):
    """Concrete arrow ids (u, w, k) with k below the multiplicity."""
    out = []
    for w, mult in pres.out_arcs(u):
        for k in range(mult):
            out.append((u, w, k))
    return out


def reverse_arrow(arrow):
    u, w, k = arrow
    return (w, u, k)


def enumerate_paths(pres, u, v):
    """All directed paths u -> v as tuples of arrows, in the order of their
    index (see the module docstring), memoized on the presentation
    (`pres.memo("paths")`)."""
    memo = pres.memo("paths")
    key = (u, v)
    if key in memo:
        return memo[key]
    if not pres.could_reach(u, v):
        memo[key] = []
        return []
    # depth-first post-order walk on an explicit stack, in the order of a
    # recursive walk: a vertex costs one unit of budget when it is first
    # expanded, and its path list is memoized once its last successor returns
    budget = node_budget()
    spent = 0
    stack = [[u, None]]     # vertex, arrows left
    while stack:
        frame = stack[-1]
        x, arrows = frame
        if arrows is None:
            spent += 1
            if spent > budget:
                raise IntervalFinitenessViolated(
                    f"path enumeration {pres.display(u)} -> {pres.display(v)} exceeded budget"
                )
            arrows = frame[1] = iter(arrows_from(pres, x))
        for arrow in arrows:
            if (arrow[1], v) not in memo and pres.could_reach(arrow[1], v):
                stack.append([arrow[1], None])
                break
        else:
            # a successor that cannot reach v has no memo entry, or []
            found = [()] if x == v else []
            for arrow in arrows_from(pres, x):
                found.extend((arrow,) + tail for tail in memo.get((arrow[1], v), ()))
            memo[x, v] = found
            stack.pop()
    return memo[key]


# ---------------------------------------------------------------------------
# comodules

class Comodule:
    """dims: vertex -> dimension; maps: arrow id -> matrix (target x source).

    Missing map entries are zero maps; vertices absent from dims carry the
    zero space.
    """

    def __init__(self, pres, dims, maps=None):
        self.pres = pres
        self.dims = {v: int(d) for v, d in dims.items() if d}
        self.maps = {}
        for arrow, mat in (maps or {}).items():
            u, w, _ = arrow
            if self.dim(u) and self.dim(w):
                assert linalg.shape(mat) == (self.dim(w), self.dim(u)), arrow
                self.maps[arrow] = mat

    def dim(self, v):
        return self.dims.get(v, 0)

    @property
    def support(self):
        return sorted(self.dims, key=self.pres.sort_key)

    def is_zero(self):
        return not self.dims

    def arrow_map(self, arrow):
        u, w, _ = arrow
        return self.maps.get(arrow, linalg.zeros(self.dim(w), self.dim(u)))

    def dim_vector(self):
        return DimensionVector(self.dims)

    def socle(self):
        """(dimension vector, per-vertex column bases) of the largest
        semisimple subcomodule: at v, the intersection of the kernels of all
        arrow maps out of v.  On a line that is the whole line when every map
        out of v is zero and nothing otherwise, read with no elimination."""
        bases, maps = {}, self.maps
        for v in self.support:
            out = arrows_from(self.pres, v)
            if self.dims[v] == 1:
                if not any(x for a in out for (x,) in maps.get(a, ())):
                    bases[v] = [[1]]
                continue
            mats = [self.arrow_map(a) for a in out if self.dim(a[1])]
            basis = linalg.intersect_kernels(mats, self.dim(v))
            if basis:
                bases[v] = basis
        return DimensionVector({v: len(b) for v, b in bases.items()}), bases

    def dual(self):
        """The dual comodule over the opposite presentation."""
        maps = {reverse_arrow(arrow): linalg.transpose(mat) for arrow, mat in self.maps.items()}
        return Comodule(self.pres.opposite(), dict(self.dims), maps)

    def __repr__(self):
        return "Comodule(%s)" % self.dim_vector().sparse_str(self.pres)


def zero_comodule(pres):
    return Comodule(pres, {})


def interval_comodule(pres, lo, hi):
    """The thin interval module on consecutive integer vertices lo..hi with
    identity arrow maps (linear quiver families)."""
    if lo > hi:
        return zero_comodule(pres)
    dims = {}
    maps = {}
    for v in range(lo, hi + 1):
        if not pres.has_vertex(v):
            raise PresentationError(f"interval vertex {v} not in presentation")
        dims[v] = 1
    for v in range(lo, hi):
        arrows = [a for a in arrows_from(pres, v) if a[1] == v + 1]
        if len(arrows) != 1:
            raise PresentationError("interval modules need a single arrow per step")
        maps[arrows[0]] = [[1]]
    return Comodule(pres, dims, maps)


def direct_sum(mods):
    mods = [m for m in mods if not m.is_zero()]
    if not mods:
        raise ValueError("empty direct sum; use zero_comodule")
    dims, offsets = {}, []
    for m in mods:
        offsets.append({v: dims.get(v, 0) for v in m.dims})
        for v, d in m.dims.items():
            dims[v] = dims.get(v, 0) + d
    maps = {}
    for m, off in zip(mods, offsets):
        for arrow, mat in m.maps.items():
            u, w, _ = arrow
            big = maps.setdefault(arrow, linalg.zeros(dims[w], dims[u]))
            for r in range(m.dim(w)):
                for c in range(m.dim(u)):
                    big[off[w] + r][off[u] + c] = mat[r][c]
    return Comodule(mods[0].pres, dims, maps)


def hom_basis(x, y):
    """Basis of the space of comodule morphisms x -> y (same presentation),
    each a dict vertex -> matrix.  Each entry of psi_w x_a = y_a psi_u is one
    sparse row of at most dim x(w) + dim y(u) terms for `linalg.kernel_basis`."""
    assert x.pres == y.pres
    verts = sorted(set(x.dims) | set(y.dims), key=x.pres.sort_key)
    var_offset, nvars = {}, 0
    for v in verts:
        var_offset[v] = nvars
        nvars += x.dim(v) * y.dim(v)
    rows = []
    for u in verts:
        for arrow in arrows_from(x.pres, u):
            w = arrow[1]
            xa, ya = x.arrow_map(arrow), y.arrow_map(arrow)
            # psi_w . x_arrow = y_arrow . psi_u, one row per entry (w != u: acyclic)
            for r in range(y.dim(w)):
                for c in range(x.dim(u)):
                    row = {var_offset[w] + r * x.dim(w) + t: xa[t][c] for t in range(x.dim(w))}
                    for t in range(y.dim(u)):
                        row[var_offset[u] + t * x.dim(u) + c] = -ya[r][t]
                    rows.append(row)
    kernel = linalg.kernel_basis(rows, nvars)
    shared = [v for v in verts if x.dim(v) and y.dim(v)]
    return [
        {
            v: [[vec[var_offset[v] + r * x.dim(v) + c] for c in range(x.dim(v))]
                for r in range(y.dim(v))]
            for v in shared
        }
        for vec in kernel
    ]


def find_isomorphism(x, y):
    """An isomorphism x -> y as per-vertex matrices, or None.

    Tries the hom basis and small integer combinations of it; complete for
    hom spaces of dimension <= 1 (enough for the interval modules used here),
    raises when larger spaces stay inconclusive.
    """
    if x.dim_vector() != y.dim_vector():
        return None
    if x.is_zero():
        return {}
    basis = hom_basis(x, y)

    def invertible(comp):
        return all(v in comp and linalg.rank(comp[v]) == d for v, d in x.dims.items())

    candidates = list(basis)
    if len(basis) > 1:
        summed = {}
        for comp in basis:
            for v, mat in comp.items():
                acc = summed.setdefault(v, linalg.zeros(len(mat), len(mat[0])))
                summed[v] = linalg.mat_add(acc, mat)
        candidates.append(summed)
    for comp in candidates:
        if invertible(comp):
            return comp
    if len(basis) <= 1:
        return None
    raise PresentationError("isomorphism test inconclusive for hom space dim > 1")


# ---------------------------------------------------------------------------
# injectives on labels, with coordinates by path index

def bfs_layers(start, neighbours):
    """Breadth-first layers: the vertices of `start`, then at each step the
    vertices first reached along `neighbours`."""
    seen, layer = set(), list(dict.fromkeys(start))
    while layer:
        seen.update(layer)
        yield layer
        layer = [w for w in dict.fromkeys(w for v in layer for w in neighbours(v)) if w not in seen]


def _sinks_first(pres, verts):
    """`verts`, each after every one of them that it has an arc to (Kahn's
    algorithm on the reversed arcs)."""
    inside = set(verts)
    left = {v: len([w for w, _ in pres.out_arcs(v) if w in inside]) for v in inside}
    order = [v for v, k in left.items() if not k]
    for w in order:
        for u, _ in pres.in_arcs(w):
            if u in left:
                left[u] -= 1
                if not left[u]:
                    order.append(u)
    return order


def _pull(row, shift, n):
    """The sparse row `row` pulled back along an arrow whose shifts are
    `shift` (None when they are all 0), n being the number of summands."""
    return {k + shift[k % n]: x for k, x in row.items()} if shift else row


class FormalInjective:
    """A finite direct sum of indecomposable injectives, by socle vertex (its
    label).  At each vertex it reads once the numbers of paths to the labels
    and keeps them with their keys and shifts."""

    def __init__(self, pres, summands):
        self.pres = pres
        # flat list of socle vertices, one per copy
        self.summands = [v for v, mult in summands for _ in range(mult)]
        self._at = {}               # v -> [counts, flat, keys, shifts]

    def multiplicities(self):
        out = {}
        for v in self.summands:
            out[v] = out.get(v, 0) + 1
        return out

    def is_zero(self):
        return not self.summands

    def nabla(self):
        """The corresponding sum of opposite-side injectives (same labels)."""
        return FormalInjective(self.pres.opposite(), [(v, 1) for v in self.summands])

    def _line(self, v):
        """[counts, flat, keys, shifts] at v, the last two filled in when
        first asked for."""
        got = self._at.get(v)
        if got is None:
            counts = self.pres.counts_from(v, self.summands)
            got = self._at[v] = [counts, not counts or max(counts) < 2, None, None]
        return got

    def counts(self, v):
        """The number of paths from v to each label: each summand's
        dimension at v."""
        return self._line(v)[0]

    def flat(self, v):
        """True when at most one path joins v to each label: then the keys at
        v are the summands holding v, and so they are at every vertex that v
        reaches, which has no more paths to a label than v has."""
        return self._line(v)[1]

    def keys(self, v):
        """The keys of the coordinates at v, in order: the basis there."""
        line = self._line(v)
        if line[2] is None:
            counts, n = line[0], len(self.summands)
            line[2] = [
                s + n * i for i in range(max(counts, default=0)) for s, c in enumerate(counts) if c > i
            ]
        return line[2]

    def shifts(self, v):
        """{arrow out of v: for each label, n times the number of paths from v
        to it that start with an arrow before this one}: a path's key is its
        rest's key at the arrow's head plus the arrow's shift.  {} when
        `flat(v)`, where every shift that meets a key is 0."""
        line = self._line(v)
        if line[3] is None:
            line[3] = {}
            if not line[1]:
                n, run = len(self.summands), [0] * len(self.summands)
                for arrow in arrows_from(self.pres, v):
                    line[3][arrow] = [n * r for r in run]
                    run = [r + c for r, c in zip(run, self.counts(arrow[1]))]
        return line[3]

    def __repr__(self):
        mult = self.multiplicities()
        parts = [
            f"E({self.pres.display(v)})^{m}" if m > 1 else f"E({self.pres.display(v)})"
            for v, m in sorted(mult.items(), key=lambda p: self.pres.sort_key(p[0]))
        ]
        return " + ".join(parts) if parts else "0"


class MaterializedInjective:
    """A formal injective realised on a window as a Comodule: at v its basis
    is its keys there, and an arrow v -> w sends the coordinate of each path
    that it starts to that of the path's rest, killing the others.  Its
    dimension vector is the sum of the Cartan rows of its labels."""

    def __init__(self, formal, window):
        self.formal = formal
        n = len(formal.summands)
        keys = {v: formal.keys(v) for v in window}
        self.keys = {v: k for v, k in keys.items() if k}
        maps = {}
        for v, kv in self.keys.items():
            pos = {k: c for c, k in enumerate(kv)}
            shifts = formal.shifts(v)
            for arrow in arrows_from(formal.pres, v):
                kw = self.keys.get(arrow[1])
                if kw:
                    shift, mat = shifts.get(arrow), linalg.zeros(len(kw), len(kv))
                    for r, k in enumerate(kw):
                        mat[r][pos[k + shift[k % n] if shift else k]] = 1
                    maps[arrow] = mat
        self.comodule = Comodule(formal.pres, {v: len(k) for v, k in self.keys.items()}, maps)


def _reversed_order(pres, b, a):
    """[for each path b -> a, by index, the index of its reverse among the
    paths a -> b of the opposite presentation].  There the paths from b into
    a vertex y are placed first by their last arrow, in `in_arcs` order, and
    then as their start is among the paths into the arrow's tail.  So the
    list, in that order, of the index of each path b -> y once extended to
    a by the path y -> a of index 0 is, arrow by arrow into y, the list of
    the arrow's tail plus the arrow's shift toward a; at b it is [0]."""
    ahead = FormalInjective(pres, [(a, 1)])
    span = chain.from_iterable(bfs_layers([b], lambda v: [
        w for w, _ in pres.out_arcs(v) if pres.could_reach(w, a)
    ]))
    into = {}
    for y in _sinks_first(pres.opposite(), list(span)):
        into[y] = [0] if y == b else [
            f + ahead.shifts(z).get((z, y, k), (0,))[0]
            for z, mult in pres.in_arcs(y) if z in into
            for k in range(mult) for f in into[z]
        ]
    order = [0] * len(into[a])
    for back, front in enumerate(into[a]):
        order[front] = back
    return order


class InjectiveMorphism:
    """Morphism source -> target between formal injectives.  Hom(M, E(b)) is
    M(b)*, so it is one functional rows[t] for each target summand t with
    label b: a sparse row over the source's keys at b.  At v the row of the
    target coordinate of a path p: v -> b is rows[t] pulled back along p."""

    def __init__(self, source, target, rows):
        self.source, self.target, self.rows = source, target, rows
        self._at = {}

    def nabla(self):
        """The dual morphism between the opposite-side injectives: the same
        coefficients on reversed paths, source and target exchanged.  The
        coefficient of rows[t] at the path b -> a of index i goes to the
        opposite functional of a's summand, at the index of the reversed
        path (`_reversed_order`), which is 0 when one path joins b to a."""
        src, tgt = self.source, self.target
        n0, n1, orders = len(src.summands), len(tgt.summands), {}
        rows = [{} for _ in src.summands]
        for t, (b, row) in enumerate(zip(tgt.summands, self.rows)):
            counts = src.counts(b)
            for key, x in row.items():
                s, i = key % n0, key // n0
                if counts[s] > 1:
                    pair = (b, src.summands[s])
                    if pair not in orders:
                        orders[pair] = _reversed_order(src.pres, *pair)
                    i = orders[pair][i]
                rows[s][t + n1 * i] = x
        return InjectiveMorphism(tgt.nabla(), src.nabla(), rows)

    def flat(self, v):
        """True when both ends are flat at v: then the matrix at v is rows[t]
        for the labels that v reaches, and depends only on their counts."""
        return self.source.flat(v) and self.target.flat(v)

    def materialize(self, v):
        """The matrix at v, {target key at v: its row, a sparse row over the
        source keys at v}, kept per vertex: rows[t] for a label t at v and
        the rows of each out-neighbour pulled back along each arrow, target
        and source keys shifted by the arrow's shifts; the out-neighbours that
        reach a label come first, walked on an explicit stack."""
        memo, src, tgt = self._at, self.source, self.target
        got = memo.get(v)
        if got is not None:
            return got
        n0, n1 = len(src.summands), len(tgt.summands)
        stack = [v]
        while stack:
            x = stack[-1]
            if x in memo:
                stack.pop()
            else:
                arrows = arrows_from(src.pres, x)
                todo = [a[1] for a in arrows if a[1] not in memo and any(tgt.counts(a[1]))]
                if todo:
                    stack.extend(todo)
                    continue
                rows = {t: self.rows[t] for t, b in enumerate(tgt.summands) if b == x}
                src_shifts, tgt_shifts = src.shifts(x), tgt.shifts(x)
                for arrow in arrows:
                    shift = tgt_shifts.get(arrow)
                    for key, row in memo.get(arrow[1], {}).items():
                        rows[key + shift[key % n1] if shift else key] = _pull(
                            row, src_shifts.get(arrow), n0
                        )
                memo[x] = rows
                stack.pop()
        return memo[v]


def materialized_kernel(formal, bases):
    """The subcomodule of a formal injective spanned at each v by bases[v],
    {pivot key: sparse column}, a basis in reduced echelon form: each column
    is 1 at its own pivot and 0 at the others (`linalg.sparse_kernel`).  An
    arrow v -> w sends a column to its image y, the coordinates that the
    arrow keeps (as in MaterializedInjective).  y's values at the pivots of
    bases[w] are its coordinates in that basis, and the rest of y must
    vanish, or the span is not arrow-stable: no solve is needed."""
    pres, n, maps = formal.pres, len(formal.summands), {}
    for v, basis in bases.items():
        shifts = formal.shifts(v)
        for arrow in arrows_from(pres, v):
            target = bases.get(arrow[1])
            if target is None:
                continue
            shift = shifts.get(arrow)
            kept = {k + shift[k % n] if shift else k: k for k in formal.keys(arrow[1])}
            row_of = {p: r for r, p in enumerate(target)}
            mat = linalg.zeros(len(target), len(basis))
            for c, col in enumerate(basis.values()):
                image = {kept[k]: x for k, x in col.items() if k in kept}
                rest = dict(image)
                for p, x in image.items():
                    if p in row_of:
                        mat[row_of[p]][c] = x
                        for k, z in target[p].items():
                            rest[k] = rest.get(k, 0) - x * z
                if any(rest.values()):
                    raise AssertionError("kernel not arrow-stable")
            maps[arrow] = mat
    return Comodule(pres, {v: len(b) for v, b in bases.items()}, maps)


def label_envelope(mod, window, socle=None):
    """The envelope M -> E0 of a finite comodule, on labels: (E0, the dual of
    E0/M on `window` as `label_socle` reads it).

    Each socle basis vector at a gives one summand E(a) and a functional phi
    on M(a) that is 1 on it and 0 on the rest of a basis extending the
    socle.  The embedding sends m in M(v) to phi(M_p m) at the coordinate of
    each path p: v -> a, so the row of that coordinate is phi pulled back
    along p.  The rows at v are those of its out-neighbours in supp M, which
    come first, pulled back along each arrow; a path that leaves supp M
    gives the zero row.  Their rank at v must be dim M(v), and equal rows
    are eliminated once.  `socle` is `mod.socle()` when the caller has it.
    """
    pres = mod.pres
    socdim, socbases = mod.socle() if socle is None else socle
    labels, pulled = [], {}
    for a in sorted(socdim.support, key=pres.sort_key):
        _, cinv = linalg.extend_to_basis(socbases[a], mod.dim(a))
        for phi in cinv[: len(socbases[a])]:
            pulled.setdefault(a, {})[len(labels)] = phi
            labels.append(a)
    e0, n = FormalInjective(pres, [(a, 1) for a in labels]), len(labels)
    for u in _sinks_first(pres, mod.dims):
        rows, shifts, cols = pulled.setdefault(u, {}), e0.shifts(u), range(mod.dims[u])
        for arrow in arrows_from(pres, u):
            if pulled.get(arrow[1]):
                mat, shift = mod.arrow_map(arrow), shifts.get(arrow)
                for key, after in pulled[arrow[1]].items():
                    row = [sum(x * mat[r][c] for r, x in enumerate(after)) for c in cols]
                    if any(row):
                        rows[key + shift[key % n] if shift else key] = row
    ann, found = {}, {}
    for v in window:
        keys, rows = e0.keys(v), pulled.get(v)
        vals = tuple(tuple(rows.get(k, ())) for k in keys) if rows else ((),) * len(keys)
        if vals not in found:
            found[vals] = linalg.left_kernel([dict(enumerate(row)) for row in vals])
        rank, kernel = found[vals]
        if rank != mod.dim(v):
            raise AssertionError(f"envelope embedding not injective at {pres.display(v)}")
        if kernel:
            ann[v] = [{keys[t]: x for t, x in row.items()} for row in kernel]
    return e0, ann


def label_socle(inj, region, ann):
    """[(label, functional)] of the envelope of the cokernel whose dual at v
    is spanned by ann[v], rows over the keys of `inj`, in region order: a row
    of ann[v] outside the span of the rows of its out-neighbours, pulled
    back along each arrow, and of the rows before it gives one summand E(v),
    and is the map into it."""
    pres, n = inj.pres, len(inj.summands)
    socle = []
    for v in region:
        rows = ann.get(v)
        if rows:
            shifts = inj.shifts(v)
            above = [
                _pull(row, shifts.get(arrow), n)
                for arrow in arrows_from(pres, v) for row in ann.get(arrow[1], ())
            ]
            socle.extend((v, row) for row in linalg.independent_rows(above, rows))
    return socle


def label_annihilators(g, region, ann):
    """The next ann, for the morphism g from the injective whose cokernel
    ann[u] is dual to into that cokernel's envelope: at u, the left kernel
    of the rows of g at u, keyed by target key.  Their rank must equal
    len(ann[u]), or the envelope does not embed the cokernel.  Where g is
    flat its rows are those of the labels that u reaches, so each set of
    them is eliminated once."""
    src, tgt = g.source, g.target
    found, out = {}, {}
    for u in region:
        if g.flat(u):
            counts = tgt.counts(u)
            got = found.get(tuple(counts))
            if got is None:
                keys = tuple(t for t, c in enumerate(counts) if c)
                got = found[tuple(counts)] = _keyed_left_kernel(keys, [g.rows[t] for t in keys])
        else:
            rows = g.materialize(u)
            got = _keyed_left_kernel(tuple(rows), list(rows.values()))
        if got[0] != len(ann.get(u, ())):
            raise AssertionError(f"envelope embedding not injective at {src.pres.display(u)}")
        if got[1]:
            out[u] = got[1]
    return out


def _keyed_left_kernel(keys, rows):
    """`linalg.left_kernel` of rows, with each kernel row keyed by `keys`."""
    rank, kernel = linalg.left_kernel(rows)
    return rank, [{keys[t]: x for t, x in row.items()} for row in kernel]
