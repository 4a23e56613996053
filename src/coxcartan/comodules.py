"""Finite-dimensional comodules as representations over the rationals, and
the socle -> envelope -> cokernel engine of path presentations.

A Comodule assigns a Q-vector space to each vertex of a presentation and a
matrix to each arc inside its support; arcs leaving the support are the zero
map.  Over an incidence presentation the arcs are the covers, so a comodule
is a representation of the Hasse quiver with commutativity relations.

Minimal injective copresentations (module `artranslate`) repeat one step on
a finite window of a path presentation: take the socle, embed into its
injective envelope (`envelope`), pass to the cokernel (`cokernel`).  The
injective at a (MaterializedInjective) has basis, at vertex v, the directed
paths v -> a; an arrow strips itself off the front of a path and kills
everything else.  Its dimension vector is the Cartan row at a and its socle
the simple at a.  A poset's injectives are thin, so module `resolutions`
resolves its simples on the labels of their summands and never builds a
Comodule.

Morphisms between finite direct sums of injectives of path presentations are
carried around symbolically: the hom space from the injective at j to the one
at a has as basis the paths a -> j, a path acting by chopping itself off the
end.  The symbolic form is what makes the duality into the opposite quiver
exact (it just reverses paths), while windows only enter when a morphism is
materialised into matrices.
"""

import os
from fractions import Fraction

from . import linalg
from .errors import IntervalFinitenessViolated, PresentationError, WindowInsufficient
from .lazymatrix import DimensionVector

F0 = Fraction(0)
F1 = Fraction(1)

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
        arrow maps out of v."""
        bases = {}
        for v in self.support:
            mats = [self.arrow_map(a) for a in arrows_from(self.pres, v) if self.dim(a[1])]
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


def simple_comodule(pres, v):
    return Comodule(pres, {v: 1})


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
        maps[arrows[0]] = [[F1]]
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
    poset's injectives are thin, and module `resolutions` keeps them as
    labels instead.
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
                        mat[self.offset[w][si, p[1:]]][col] = F1
                maps[arrow] = mat
        self.comodule = Comodule(pres, dims, maps)


def envelope(mod, window):
    """Minimal injective envelope of `mod`, materialised on `window`.

    Returns (formal injective, materialisation, per-vertex embedding rows).
    Each socle basis vector at a gives one summand E(a) and a functional on
    the space at a that is 1 on it and 0 on the rest of a basis extending the
    socle; the embedding row of a basis element is that functional pulled
    back along its route.
    """
    pres = mod.pres
    wset = set(window)
    for v in mod.support:
        if v not in wset:
            raise WindowInsufficient(f"support vertex {pres.display(v)} outside window")
    socdim, socbases = mod.socle()
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
                row = [F0] * mod.dim(route[i][0])
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
            key: {p: Fraction(c) for p, c in blk.items() if c != 0}
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
