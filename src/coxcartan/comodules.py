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
whose space is a line is read off its out-maps, with no elimination.  The
engine has two models, and each presentation runs one of them
(`Presentation.thin`).

On a thin presentation (every poset, and the tree families a-infinity,
z-a-infinity and d-infinity) at most one path joins two vertices, so the
injective E(a) is 1 at each v that reaches a and 0 elsewhere, every map 1,
and Hom(M, E(a)) is M(a)*.  A sum of injectives is then the list of its
summands' labels, and a cokernel is kept by its dual: at each v a basis of
functionals, sparse rows over the summands holding v.  `label_envelope`
embeds a comodule, pulling each socle functional back along the one path to
its label; `label_socle` reads the envelope of a cokernel off the top of its
dual, and `label_annihilators` passes to the next cokernel.  A morphism
between sums of injectives is one sparse scalar matrix (LabelMorphism),
whose matrix at v is the submatrix of the summands holding v.  Module
`resolutions` resolves a poset's simples this way, and module `artranslate`
copresents comodules of the tree families.

Finite quivers keep path-basis injectives: the injective at a
(MaterializedInjective) has basis, at vertex v, the directed paths v -> a;
an arrow strips itself off the front of a path and kills everything else.
Its dimension vector is the Cartan row at a and its socle the simple at a.
`envelope` and `cokernel` materialise each step on the window, and a
morphism between sums of injectives is carried symbolically
(InjectiveMorphism): the hom space from the injective at j to the one at a
has as basis the paths a -> j, a path acting by chopping itself off the
end.  In both models the symbolic form is what makes the duality into the
opposite quiver exact (same coefficients, reversed paths), while windows
only enter when a morphism is read at a vertex.
"""

import os

from . import linalg
from .errors import IntervalFinitenessViolated, PresentationError, WindowInsufficient
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


def reverse_path(path):
    return tuple(reverse_arrow(a) for a in reversed(path))


def enumerate_paths(pres, u, v):
    """All directed paths u -> v as tuples of arrows (deterministic order),
    memoized on the presentation (`pres.memo("paths")`)."""
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
            found.sort(key=lambda p: (len(p), [pres.sort_key(a[0]) for a in p], [a[2] for a in p]))
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
# formal injectives and symbolic morphisms between them

class FormalInjective:
    """A finite direct sum of indecomposable injectives, by socle vertex."""

    def __init__(self, pres, summands):
        self.pres = pres
        self.summands = []          # flat list of socle vertices, one per copy
        for v, mult in summands:
            self.summands.extend([v] * mult)

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

    def holding(self, v):
        """The indices of the summands whose support holds v: on a thin
        presentation, its basis at v."""
        return [i for i, a in enumerate(self.summands) if self.pres.could_reach(v, a)]

    def __repr__(self):
        mult = self.multiplicities()
        parts = [
            f"E({self.pres.display(v)})^{m}" if m > 1 else f"E({self.pres.display(v)})"
            for v, m in sorted(mult.items(), key=lambda p: self.pres.sort_key(p[0]))
        ]
        return " + ".join(parts) if parts else "0"


def path_basis(formal, v):
    """Basis at v of a formal injective of a path presentation: the pairs
    (summand index, path v -> socle vertex of the summand)."""
    return [
        (si, p) for si, a in enumerate(formal.summands) for p in enumerate_paths(formal.pres, v, a)
    ]


class MaterializedInjective:
    """A formal injective of a path presentation realised on a window.

    basis[v] lists (summand index, route) pairs, a route being one of the
    paths from v to the socle vertex of the summand; an arrow strips itself
    off the front of a route and kills every route it does not start.  A
    thin presentation keeps its injectives as labels instead.
    """

    def __init__(self, formal, window):
        pres = formal.pres
        self.formal = formal
        self.window = sorted(window, key=pres.sort_key)
        self.basis = {}
        for v in self.window:
            items = path_basis(formal, v)
            if items:
                self.basis[v] = items
        self.offset = {
            v: {key: i for i, key in enumerate(items)} for v, items in self.basis.items()
        }
        dims = {v: len(items) for v, items in self.basis.items()}
        maps = {}
        for v in self.basis:
            for arrow in arrows_from(pres, v):
                w = arrow[1]
                if w not in self.basis:
                    continue
                mat = linalg.zeros(dims[w], dims[v])
                for col, (si, p) in enumerate(self.basis[v]):
                    if p and p[0] == arrow:
                        mat[self.offset[w][si, p[1:]]][col] = 1
                maps[arrow] = mat
        self.comodule = Comodule(pres, dims, maps)


def envelope(mod, window, socle=None):
    """Minimal injective envelope of `mod`, materialised on `window`.

    Returns (formal injective, materialisation, per-vertex embedding rows).
    Each socle basis vector at a gives one summand E(a) and a functional on
    the space at a that is 1 on it and 0 on the rest of a basis extending the
    socle; the embedding row of a basis element is that functional pulled
    back along its route.  `socle` is `mod.socle()` when the caller has it.
    """
    pres = mod.pres
    wset = set(window)
    for v in mod.support:
        if v not in wset:
            raise WindowInsufficient(f"support vertex {pres.display(v)} outside window")
    socdim, socbases = mod.socle() if socle is None else socle
    socles, functionals = [], []
    for a in sorted(socdim.support, key=pres.sort_key):
        basis = socbases[a]
        _, cinv = linalg.extend_to_basis(basis, mod.dim(a))
        socles.extend([a] * len(basis))
        functionals.extend(cinv[: len(basis)])
    formal = FormalInjective(pres, [(a, 1) for a in socles])
    inj = MaterializedInjective(formal, window)
    pulled = {}

    def pullback(si, route):
        # functional si composed with the maps of `mod` along `route`, from
        # the longest memoized tail of the route back to its start; a zero
        # space on the way gives the zero row
        k = 0
        while (si, route[k:]) not in pulled:
            if k == len(route):
                pulled[si, ()] = functionals[si]
                break
            k += 1
        for i in range(k - 1, -1, -1):
            after = pulled[si, route[i + 1:]]
            if any(x != 0 for x in after):
                row = linalg.mat_mul([after], mod.arrow_map(route[i]))[0]
            else:
                row = [0] * mod.dim(route[i][0])
            pulled[si, route[i:]] = row
        return pulled[si, route]

    embed = {v: [pullback(si, p) for si, p in inj.basis.get(v, [])] for v in inj.window}
    for v in mod.support:
        if linalg.nullspace(embed[v]):
            raise AssertionError("envelope embedding not injective")
    return formal, inj, embed


def cokernel(mod, image, window):
    """mod / (pointwise column span of image[v]) on `window`, and the
    per-vertex projections onto it."""
    projs, sections, dims = {}, {}, {}
    for v in window:
        d = mod.dim(v)
        if not d:
            projs[v] = []
            continue
        cols = [c for c in linalg.matrix_columns(image.get(v, [])) if any(x != 0 for x in c)]
        projs[v], sections[v] = linalg.complement_projection(cols, d)
        if projs[v]:
            dims[v] = len(projs[v])
    maps = {}
    for v in dims:
        for arrow in arrows_from(mod.pres, v):
            w = arrow[1]
            if w in dims:
                maps[arrow] = linalg.mat_mul(
                    projs[w], linalg.mat_mul(mod.arrow_map(arrow), sections[v])
                )
    return Comodule(mod.pres, dims, maps), projs


class InjectiveMorphism:
    """Symbolic morphism source -> target between formal injectives.

    blocks[(ti, si)] maps a path pi from target summand ti's socle vertex to
    source summand si's socle vertex to its coefficient; pi acts on a path p
    ending with pi by cutting it off.
    """

    def __init__(self, source, target, blocks):
        self.source = source
        self.target = target
        self.blocks = {
            key: {p: c for p, c in blk.items() if c != 0}
            for key, blk in blocks.items()
            if any(c != 0 for c in blk.values())
        }

    def nabla(self):
        """The dual morphism between the opposite-side injectives: same
        coefficients on reversed paths, source and target exchanged."""
        blocks = {}
        for (ti, si), blk in self.blocks.items():
            blocks[(si, ti)] = {reverse_path(p): c for p, c in blk.items()}
        return InjectiveMorphism(self.target.nabla(), self.source.nabla(), blocks)

    def materialize(self, src_mat, tgt_mat):
        """Per-vertex matrices of the morphism on already-materialised ends."""
        return {
            v: self.matrix(src_mat.basis.get(v, []), tgt_mat.offset.get(v, {}))
            for v in src_mat.window
        }

    def at(self, v):
        """(source basis at v, the matrix at v)."""
        cols = path_basis(self.source, v)
        rows = path_basis(self.target, v)
        return cols, self.matrix(cols, {item: r for r, item in enumerate(rows)})

    def matrix(self, cols, row_of):
        """The matrix at one vertex, from the source basis `cols` there to the
        target basis indexed by `row_of` (basis item -> row)."""
        mat = linalg.zeros(len(row_of), len(cols))
        for c, (si, p) in enumerate(cols):
            for (ti, si2), blk in self.blocks.items():
                if si2 == si:
                    for pi, coeff in blk.items():
                        cut = len(p) - len(pi)
                        if cut >= 0 and p[cut:] == pi and (ti, p[:cut]) in row_of:
                            mat[row_of[ti, p[:cut]]][c] += coeff
        return mat


def materialized_kernel(mod, bases):
    """The subcomodule of `mod` spanned at each vertex v by the columns
    bases[v], which must be stable under the arrow maps (a kernel)."""
    dims = {v: len(b) for v, b in bases.items()}
    maps = {}
    for v in list(bases):
        for arrow in arrows_from(mod.pres, v):
            w = arrow[1]
            if w not in bases:
                continue
            amap = mod.arrow_map(arrow)
            img = linalg.mat_mul(amap, linalg.columns_matrix(bases[v], mod.dim(v)))
            sol = linalg.solve_matrix(
                linalg.columns_matrix(bases[w], mod.dim(w)), img
            )
            assert sol is not None, "kernel not arrow-stable"
            maps[arrow] = sol
    return Comodule(mod.pres, dims, maps)


# ---------------------------------------------------------------------------
# thin injectives on labels

def label_envelope(mod, window, socle=None):
    """The envelope M -> E0 of a finite comodule over a thin presentation, on
    labels: (the socle vertices of the summands of E0, the dual of E0/M on
    `window` as `label_socle` reads it).

    Each socle basis vector at a gives one summand E(a) and a functional phi
    on M(a) that is 1 on it and 0 on the rest of a basis extending the socle,
    as `envelope` chooses them.  The embedding at v reads phi along the one
    path v -> a, so phi is pulled back once, walking back along in-arcs from
    a inside supp M; its rank at v must be dim M(v).  Equal embeddings are
    eliminated once.  `socle` is `mod.socle()` when the caller has it.
    """
    pres = mod.pres
    socdim, socbases = mod.socle() if socle is None else socle
    labels, pulled = [], []
    for a in sorted(socdim.support, key=pres.sort_key):
        _, cinv = linalg.extend_to_basis(socbases[a], mod.dim(a))
        for phi in cinv[: len(socbases[a])]:
            labels.append(a)
            back, todo = {a: phi}, [a]
            while todo:
                w = todo.pop()
                for u, _ in pres.in_arcs(w):
                    if mod.dim(u):
                        mat = mod.arrow_map((u, w, 0))
                        back[u] = [
                            sum(x * mat[r][c] for r, x in enumerate(back[w]))
                            for c in range(mod.dim(u))
                        ]
                        todo.append(u)
            pulled.append(back)
    ann, found = {}, {}
    for v in window:
        above = [i for i, a in enumerate(labels) if pres.could_reach(v, a)]
        rows = tuple(tuple(pulled[i].get(v, ())) for i in above)
        if rows not in found:
            found[rows] = linalg.left_kernel([dict(enumerate(row)) for row in rows])
        rank, kernel = found[rows]
        if rank != mod.dim(v):
            raise AssertionError(f"envelope embedding not injective at {pres.display(v)}")
        if kernel:
            ann[v] = [{above[t]: x for t, x in row.items()} for row in kernel]
    return labels, ann


def label_socle(pres, region, ann):
    """[(label, functional)] of the envelope of the cokernel whose dual at v
    is spanned by ann[v], in region order: a row of ann[v] outside the span
    of the rows of its out-neighbours (read at v with the same coefficients)
    and of the rows before it gives one summand E(v), and is the map into
    it."""
    socle = []
    for v in region:
        rows = ann.get(v)
        if rows:
            above = [a for w, _ in pres.out_arcs(v) for a in ann.get(w, ())]
            socle.extend((v, a) for a in linalg.independent_rows(above, rows))
    return socle


def label_annihilators(pres, region, socle, ann):
    """The next ann: at u, the left kernel of the functionals of the
    `socle` summands whose support holds u, keyed by summand.  Their rank
    must equal len(ann[u]), or the envelope does not embed the cokernel.
    Both depend only on the set of those summands, so each set is
    eliminated once."""
    found, out = {}, {}
    for u in region:
        above = tuple(k for k, (b, _) in enumerate(socle) if pres.could_reach(u, b))
        if above not in found:
            rank, kernel = linalg.left_kernel([socle[k][1] for k in above])
            found[above] = (rank, [{above[t]: x for t, x in row.items()} for row in kernel])
        rank, rows = found[above]
        if rank != len(ann.get(u, ())):
            raise AssertionError(f"envelope embedding not injective at {pres.display(u)}")
        if rows:
            out[u] = rows
    return out


class LabelMorphism:
    """Morphism source -> target between formal injectives of a thin
    presentation.  Hom(E(a), E(b)) is the scalars when b reaches a and zero
    otherwise, so the morphism is one sparse matrix: coeffs[ti, si] is the
    scalar from source summand si to target summand ti.  At v it is the
    submatrix of the summands whose support holds v."""

    def __init__(self, source, target, coeffs):
        self.source = source
        self.target = target
        self.coeffs = {key: c for key, c in coeffs.items() if c}

    def nabla(self):
        """The dual morphism between the opposite-side injectives: same
        coefficients, source and target exchanged."""
        coeffs = {(si, ti): c for (ti, si), c in self.coeffs.items()}
        return LabelMorphism(self.target.nabla(), self.source.nabla(), coeffs)

    def at(self, v):
        """(source basis at v, the matrix at v), as `InjectiveMorphism.at`."""
        cols = self.source.holding(v)
        coeffs = self.coeffs
        return cols, [[coeffs.get((ti, si), 0) for si in cols] for ti in self.target.holding(v)]


def label_kernel(formal, bases):
    """The subcomodule of a formal injective of a thin presentation spanned
    at each v by the columns bases[v] over formal.holding(v), which must be
    stable under the arrow maps (a kernel).  An arrow v -> w keeps the
    coordinates of the summands holding w, so its image is a restriction.
    A system is solved once per pair of basis lists and kept coordinates:
    vertices with equal matrices share one basis list."""
    pres, maps, solved = formal.pres, {}, {}
    held = {v: formal.holding(v) for v in bases}
    for v, basis in bases.items():
        pos = {si: i for i, si in enumerate(held[v])}
        for arrow in arrows_from(pres, v):
            w = arrow[1]
            if w in bases:
                kept = [pos[si] for si in held[w]]
                key = (id(basis), id(bases[w]), *kept)
                if key not in solved:
                    img = [[x[i] for x in basis] for i in kept]
                    a = linalg.columns_matrix(bases[w], len(kept))
                    solved[key] = linalg.solve_matrix(a, img)
                    assert solved[key] is not None, "kernel not arrow-stable"
                maps[arrow] = solved[key]
    return Comodule(pres, {v: len(b) for v, b in bases.items()}, maps)
