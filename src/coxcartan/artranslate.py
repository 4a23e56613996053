"""Injective copresentations, the transpose, translates, meshes and knitting.

Everything here works for hereditary path presentations.  The pipeline for a
translate is the classical one: take a minimal injective copresentation
0 -> M -> E0 -> E1, flip it through the duality into the opposite-side
injectives (symbolically: same coefficients, reversed paths), and take the
kernel there.  The copresentation is two steps of the socle -> envelope ->
cokernel engine of module `comodules`, on the labels of the summands with
coordinates by path index, and its map E0 -> E1 is one functional per
summand of E1 (InjectiveMorphism).  Windows enter only when a morphism is
read at a vertex, and each window is exact, never a guess.
The copresentation works on the convex closure of T = supp M plus its
in-neighbours (every vertex on a path between two of T).  soc(E0/M) lies in T: a socle class at
v outside supp M is some x != 0 in E0(v) outside soc E0 = soc M, so an
arrow v -> w maps it into M.  No arrow leaves the window for a u with
E0(u) != 0, since such a u reaches soc M; so the socle of the cokernel on
the window and every route of the envelopes are exact.  The transpose
kernel K, a subcomodule of the flipped E1, is walked in layers by arrow
distance to the socle vertices of the flipped E1.  A nonzero element of K
has a chain of nonzero arrow images down to layer 0, one layer at most per
arrow, so K vanishes beyond the first layer where it is zero.  Its basis at
a vertex is in reduced echelon form, so its arrow maps are read off the
pivots (`materialized_kernel`).  A vertex walked costs one unit of
COX_NODE_BUDGET.  A flipped E1 that is infinite-dimensional over a finite
flipped E0 makes K infinite-dimensional; InfiniteDimensional says so.

The formula dim tau N = Phi(dim N) needs Hom(C, DN) = 0, which
`certify_no_inj_hom` decides exactly at the socle: path coalgebras are
hereditary, so the image of a nonzero map from an injective into a finite M
is a finite injective, and it contains some E(k) with k a socle vertex of M.
Hom(C, M) = 0 thus holds exactly when no such E(k) embeds in M.  A
candidate E(k) fits only when ancestors(k) lies in supp M, which a walk up
the in-arcs from k decides without listing ancestors(k); it is then built
whole on them (MaterializedInjective), never on a window.

Knitting builds a translation-quiver fragment mesh by mesh.  The translate's
dimension vector tau is obtained from mesh additivity (sum of the middle minus
the end) and is checked against the Coxeter transformation at every step, so
an unsound seed section fails loudly rather than producing a wrong picture.
The check is `CoxeterOperator.sends`, the identity tau.c^-1 = -(end.c^-tr),
which holds exactly when Phi(end) = tau on every vertex; both sides are one
spread of a node's own dimension vector over the rows or the columns of
c^-1, so the cost of a mesh is that of its output, and nothing of earlier
meshes is reused.  Only a failed mesh reads Phi(end), through
`CoxeterOperator.apply`, to name the first vertex on the supports grown by
one arc where the two differ.  `verify_translate_formula` compares the
translate of a module with Phi of its dimension vector through the same
identity.  Nodes are indexed by id, and a node enters a ready queue, ordered
by creation, once its last out-neighbour is meshed; the next mesh ends at
the oldest ready node, so the cost of a knitting is linear in its output.  A
failed mesh at a seed injective E(j) with a quiver arc leaving the seed
section is reported as the edge of the section rather than as a disagreement.
"""

from bisect import insort
from itertools import chain, islice

from . import linalg
from .cartan import cartan_pair, path_count
from .comodules import (
    FormalInjective,
    InjectiveMorphism,
    MaterializedInjective,
    arrows_from,
    bfs_layers,
    hom_basis,
    interval_comodule,
    label_annihilators,
    label_envelope,
    label_socle,
    materialized_kernel,
    node_budget,
    zero_comodule,
)
from .coxeter import CoxeterOperator
from .errors import (
    HomCNotZero,
    HypothesisViolated,
    InfiniteDimensional,
    IntervalFinitenessViolated,
    KnittingStuck,
    NotInKnittedRegion,
    PresentationError,
    UnknownVertex,
)
from .lazymatrix import DimensionVector, LazyVector


def grow_window(pres, verts, steps):
    """`verts` and every vertex within `steps` arcs of them, either way."""
    layers = bfs_layers(verts, lambda v: [w for w, _ in pres.out_arcs(v) + pres.in_arcs(v)])
    return sorted(chain.from_iterable(islice(layers, steps + 1)), key=pres.sort_key)


class InjCopresentation:
    """0 -> M -> e0 -> e1 with `map` the symbolic E0 -> E1 (an
    InjectiveMorphism); `exact_at_e1` says that E0/M -> E1 is onto on the
    window."""

    def __init__(self, e0, e1, map, exact_at_e1):
        self.e0, self.e1, self.map, self.exact_at_e1 = e0, e1, map, exact_at_e1


def min_inj_copresentation(module, socle=None):
    """Minimal injective copresentation 0 -> M -> E0 -> E1 of a finite
    comodule over a hereditary path presentation.

    E0 is the injective envelope of soc M, E1 the envelope of soc(E0/M),
    both on labels: the dual of E0/M from `label_envelope`, one label socle
    step for E1, whose functionals are the map E0 -> E1, and the next
    annihilators, empty exactly when E0/M -> E1 is onto on the window.  All
    of it is computed on one exact window (see the module docstring).
    `socle` is `module.socle()` when the caller has it already.
    """
    pres = module.pres
    if pres.kind != "quiver":
        raise PresentationError("copresentations need a path presentation")
    heads = set(module.dims).union(w for v in module.dims for w, _ in pres.in_arcs(v))

    def onward(v):
        return [
            w for w, _ in pres.out_arcs(v)
            if w in heads or any(pres.could_reach(w, h) for h in heads)
        ]

    # the convex closure of heads: forward from them, through the vertices
    # that can still reach one of them
    window = sorted(chain.from_iterable(bfs_layers(heads, onward)), key=pres.sort_key)
    e0, ann = label_envelope(module, window, socle)
    step = label_socle(e0, window, ann)
    e1 = FormalInjective(pres, [(b, 1) for b, _ in step])
    g = InjectiveMorphism(e0, e1, [row for _, row in step])
    return InjCopresentation(e0, e1, g, not label_annihilators(g, window, ann))


def _ancestors_inside(pres, k, dims):
    """ancestors(k), walked up the in-arcs from k, when all of them lie in
    `dims`; None as soon as one does not."""
    found, todo = {k}, [k]
    while todo:
        for u, _ in pres.in_arcs(todo.pop()):
            if u not in dims:
                return None
            if u not in found:
                found.add(u)
                todo.append(u)
    return found


def certify_no_inj_hom(module, socle=None):
    """True when no injective maps nonzero into the finite comodule `module`
    over a path presentation (exact; see the module docstring).  Only the
    E(k), k in its socle, that fit inside it are tested: finite, with support
    ancestors(k) in supp M and dimensions at most those of M.  `socle` is
    `module.socle()` when the caller has it already."""
    pres = module.pres
    socdim, _ = module.socle() if socle is None else socle
    for k in socdim.support:
        sup = _ancestors_inside(pres, k, module.dims)
        if sup is None:
            continue
        inj = FormalInjective(pres, [(k, 1)])
        if all(inj.counts(v)[0] <= module.dim(v) for v in sup):
            if hom_basis(MaterializedInjective(inj, sup).comodule, module):
                return False
    return True


def transpose_tr(module):
    """The transpose of a finite comodule: the kernel of the flipped minimal
    copresentation, over the opposite presentation.

    Returns (dimension vector as a LazyVector over the opposite presentation,
    kernel comodule).  The vector is dim of flipped E1 minus dim of flipped
    E0 when no injective maps into the module, the kernel's dims otherwise.
    """
    socle = module.socle()
    _, lazy, kernel = _transpose_attempt(module, certify_no_inj_hom(module, socle), socle)
    return lazy, kernel


def _flipped_kernel(nabla_g):
    """ker(nabla E1 -> nabla E0), walked in layers by arrow distance to the
    socle vertices of nabla E1 and stopped at the first layer where it is
    zero (see the module docstring).  Where the map is flat its matrix at v
    depends only on the labels that v reaches, so each set of them is
    eliminated once."""
    src, dst = nabla_g.source, nabla_g.target
    op = src.pres
    # with every Cartan row finite every injective is finite: no ancestor
    # set is built
    infinite = [] if op.cartan_finiteness[0] else [
        a for a in src.summands if op.ancestors(a) is None
    ]
    if infinite and all(op.ancestors(j) is not None for j in dst.summands):
        raise InfiniteDimensional(
            f"transpose kernel is infinite-dimensional: the flipped E1 = {src!r} "
            f"is infinite at {op.display(infinite[0])} and the flipped E0 = {dst!r} finite"
        )
    budget, walked, bases, kernels = node_budget(), 0, {}, {}
    for layer in bfs_layers(src.summands, lambda v: [w for w, _ in op.in_arcs(v)]):
        walked += len(layer)
        if walked > budget:
            raise IntervalFinitenessViolated(
                f"transpose kernel walk exceeded COX_NODE_BUDGET {budget}"
            )
        found = {}
        for v in layer:
            key = (tuple(src.counts(v)), tuple(dst.counts(v))) if nabla_g.flat(v) else (v,)
            if key not in kernels:
                kernels[key] = linalg.sparse_kernel(nabla_g.materialize(v).values(), src.keys(v))
            if kernels[key]:
                found[v] = kernels[key]
        if not found:
            break
        bases.update(found)
    return materialized_kernel(src, bases)


def _transpose_attempt(module, certified, socle):
    """(copresentation, lazy dims, kernel) of the transpose of `module`;
    `certified` says that no injective maps into it, and `socle` is
    `module.socle()`."""
    pres = module.pres
    copres = min_inj_copresentation(module, socle)
    if copres.e1.is_zero():
        return copres, LazyVector(lambda v: 0, support=frozenset()), zero_comodule(pres.opposite())
    kernel = _flipped_kernel(copres.map.nabla())   # over op: nabla E1 -> nabla E0
    if not certified:
        return copres, LazyVector(kernel.dim, support=frozenset(kernel.dims)), kernel

    def tr_dim(v):
        high = sum(path_count(pres, a, v) for a in copres.e1.summands)
        low = sum(path_count(pres, j, v) for j in copres.e0.summands)
        return high - low

    lazy = LazyVector(tr_dim)
    for v in kernel.support:
        if lazy.entry(v) != kernel.dim(v):
            raise AssertionError("transpose dimension bookkeeping mismatch")
    return copres, lazy, kernel


def tau(module, direction="tau-minus"):
    """Auslander-Reiten translate at comodule level (hereditary presentations).

    "tau-minus" of an injective and "tau" of a projective are zero; otherwise
    the result is an honest comodule over the same presentation.
    """
    d = direction.lower().replace("_", "-")
    if d == "tau-minus":
        return transpose_tr(module)[1].dual()
    if d == "tau":
        return transpose_tr(module.dual())[1]
    raise ValueError("direction must be 'tau' or 'tau-minus'")


class MeshSequence:
    """0 -> left -> sum of middle -> right -> 0."""

    def __init__(self, left, middle, right):
        self.left, self.middle, self.right = left, middle, right

    def additivity_holds(self):
        total = self.left.dim_vector() + self.right.dim_vector()
        mid = DimensionVector()
        for m in self.middle:
            mid = mid + m.dim_vector()
        return total == mid


def _interval_span(dim):
    """(lo, hi) when the dimension vector is 1 on the consecutive integers
    lo..hi and 0 elsewhere, else None."""
    items = dim.items()
    supp = [v for v, c in items if c == 1 and isinstance(v, int)]
    if not supp or len(supp) != len(items):
        return None
    lo, hi = min(supp), max(supp)
    return (lo, hi) if hi - lo + 1 == len(supp) else None


def interval_bounds(module):
    """(lo, hi) when the comodule is a thin interval on consecutive integers
    with nonzero consecutive maps, else None."""
    bounds = _interval_span(module.dim_vector())
    if bounds is None:
        return None
    lo, hi = bounds
    for v in range(lo, hi):
        arrows = [a for a in arrows_from(module.pres, v) if a[1] == v + 1]
        if len(arrows) != 1 or module.arrow_map(arrows[0])[0][0] == 0:
            return None
    return lo, hi


def almost_split_mesh(module, direction="ending-at"):
    """The almost split sequence ending at (or starting from) an interval
    module over a linear family, with degenerate summands dropped."""
    pres = module.pres
    if not pres.linear:
        raise NotInKnittedRegion(
            "closed-form meshes exist for interval modules over linear "
            "families; knit the component instead"
        )
    bounds = interval_bounds(module)
    if bounds is None:
        raise NotInKnittedRegion("not an interval module")
    lo, hi = bounds
    d = direction.lower().replace("_", "-")

    def iv(a, b):
        if a > b or not pres.has_vertex(a):
            return None
        return interval_comodule(pres, a, b)

    if d == "ending-at":
        left = iv(lo + 1, hi + 1)
        mids = [iv(lo, hi + 1), iv(lo + 1, hi)]
        right = module
        if left is None:
            raise HypothesisViolated("interval is projective; no mesh ends at it")
    elif d == "starting-from":
        if not pres.has_vertex(lo - 1):
            raise HypothesisViolated("interval is injective; no mesh starts from it")
        left = module
        mids = [iv(lo - 1, hi), iv(lo, hi - 1)]
        right = iv(lo - 1, hi - 1)
    else:
        raise ValueError("direction must be 'ending-at' or 'starting-from'")
    mesh = MeshSequence(left, [m for m in mids if m is not None], right)
    assert mesh.additivity_holds()
    return mesh


# ---------------------------------------------------------------------------
# knitting


class KnitNode:
    def __init__(self, node_id, dim, label=None):
        self.node_id, self.dim, self.label = node_id, dim, label


class KnitFragment:
    def __init__(self, presentation):
        self.presentation = presentation
        self.nodes = []
        self.arrows = []        # (src_id, dst_id, mult)
        self.tau_links = []     # (end_id, translate_id)
        self.meshes = []        # (end_id, [middle ids], translate_id)
        self.by_id = {}

    def add_node(self, dim, label):
        node = KnitNode(f"n{len(self.nodes)}", dim, label)
        self.nodes.append(node)
        self.by_id[node.node_id] = node
        return node.node_id

    def node(self, node_id):
        return self.by_id[node_id]

    def to_text(self):
        pres = self.presentation
        lines = []
        for n in self.nodes:
            lines.append(f"node {n.node_id} dim={n.dim.sparse_str(pres)}")
        for s, t, mult in self.arrows:
            for _ in range(mult):
                lines.append(f"arrow {s} {t}")
        for s, t in self.tau_links:
            lines.append(f"tau {s} {t}")
        return "\n".join(lines) + "\n"

    def to_dot(self):
        pres = self.presentation
        lines = ["digraph ar_fragment {", "  rankdir=RL;"]
        for n in self.nodes:
            dim = n.dim.sparse_str(pres)
            label = f"{n.label}\\n{dim}" if n.label else dim
            lines.append(f'  {n.node_id} [label="{label}"];')
        for s, t, mult in self.arrows:
            for _ in range(mult):
                lines.append(f"  {s} -> {t};")
        for s, t in self.tau_links:
            lines.append(f"  {s} -> {t} [style=dashed, dir=none];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def injective_section_seed(pres, window):
    """Seed nodes E(j) for j in the window, dim E(j) being the Cartan row
    `paths_into(j)`, with the arrows induced by the quiver: an arrow k -> j
    induces an irreducible map E(j) -> E(k)."""
    nodes = []
    for j in window:
        row = pres.paths_into(j)
        if row is None:
            raise KnittingStuck(
                f"injective at {pres.display(j)} is infinite-dimensional; "
                "seed the knitting explicitly"
            )
        nodes.append((f"E({pres.display(j)})", DimensionVector(row)))
    arrows = []
    wset = {j: idx for idx, j in enumerate(window)}
    for j in window:
        for k, mult in pres.in_arcs(j):
            if k in wset:
                arrows.append((wset[j], wset[k], mult))
    return nodes, arrows


def interval_column_seed(pres, lo, hi_list):
    """Seed a linear-family knitting with the column of intervals
    [lo, m] for m in hi_list (consecutive, increasing)."""
    for v in range(lo, max(hi_list, default=lo - 1) + 1):
        if not pres.has_vertex(v):
            raise UnknownVertex(f"seed column vertex {v} not in presentation")
    nodes = []
    for m in hi_list:
        dim = DimensionVector({v: 1 for v in range(lo, m + 1)})
        nodes.append((f"I[{lo},{m}]", dim))
    arrows = []
    for idx in range(len(hi_list) - 1):
        if hi_list[idx + 1] == hi_list[idx] + 1:
            arrows.append((idx + 1, idx, 1))
    return nodes, arrows


def _section_edge(pres, window):
    """{index in window: a quiver arc between that vertex and one outside}"""
    inside = set(window)
    edge = {}
    for idx, j in enumerate(window):
        arcs = [(j, w) for w, _ in pres.out_arcs(j)] + [(w, j) for w, _ in pres.in_arcs(j)]
        leaving = [arc for arc in arcs if not inside.issuperset(arc)]
        if leaving:
            edge[idx] = leaving[0]
    return edge


def _disagreement(pres, coxeter_op, end, tdim):
    """The message for a mesh whose translate `tdim` is not Phi(end): the
    first vertex, on the supports of both grown by one arc, where they
    differ, read through `CoxeterOperator.apply`."""
    phi = coxeter_op.apply(end.dim, "forward")
    for v in grow_window(pres, tdim.support | end.dim.support, 1):
        if phi.entry(v) != tdim[v]:
            return (
                f"mesh at {end.node_id}: additivity and Coxeter disagree "
                f"at {pres.display(v)} ({tdim[v]} vs {phi.entry(v)})"
            )
    return (
        f"mesh at {end.node_id}: additivity and Coxeter disagree beyond the "
        "supports of its end and translate grown by one arc"
    )


def knit_component(pres, seed, steps, section_flag="--section"):
    """Knit `steps` meshes starting from a seed section.

    seed: either ("injectives", window) or ("explicit", nodes, arrows) with
    nodes a list of (label, DimensionVector) and arrows index pairs into it.
    A node is ready once every out-neighbour inside the fragment has been
    meshed, and the oldest ready node is meshed next; its translate gets the
    additivity value (middle minus end), which must be the Coxeter image of
    the end, checked exactly by `CoxeterOperator.sends`, or the knitting
    aborts with KnittingStuck.  Its message names the first vertex on the
    supports grown by one arc where the two differ, "additivity and Coxeter
    disagree at v (tau vs Phi)"; when none of them does, it says that they
    disagree "beyond the supports of its end and translate grown by one
    arc".  At a seed injective with an arc leaving the section either
    message gives way to the edge of the section, which asks to widen the
    option `section_flag` names.
    """
    if pres.kind != "quiver":
        raise PresentationError("knitting needs a path presentation")
    coxeter_op = CoxeterOperator(cartan_pair(pres))
    frag = KnitFragment(pres)
    in_of = {}
    pending = {}        # node id -> out-arrows to nodes not yet meshed
    order = {}          # node id -> creation index
    ready = []          # sorted (creation index, node id) of ready nodes

    def add_node(dim, label):
        nid = frag.add_node(dim, label)
        in_of[nid] = []
        pending[nid] = 0
        order[nid] = len(order)
        return nid

    def add_arrow(src, dst, mult=1):
        # dst is never meshed here: seed arrows come first, and a translate
        # points at the middle of a mesh whose end is not yet meshed
        frag.arrows.append((src, dst, mult))
        in_of[dst].append((src, mult))
        pending[src] += 1

    kind = seed[0]
    edge = {}           # seed index -> an arc leaving the seed section
    if kind == "injectives":
        nodes, arrows = injective_section_seed(pres, seed[1])
        edge = _section_edge(pres, seed[1])
    elif kind == "explicit":
        nodes, arrows = seed[1], seed[2]
    else:
        raise ValueError("seed must be ('injectives', window) or ('explicit', nodes, arrows)")
    ids = [add_node(dim, label) for label, dim in nodes]
    for s, t, mult in arrows:
        add_arrow(ids[s], ids[t], mult)
    for nid in ids:
        if not pending[nid]:
            insort(ready, (order[nid], nid))

    def stuck(nid, message):
        # seed nodes come first, so a seed index is a creation index
        if order[nid] in edge:
            a, b = edge[order[nid]]
            message = (
                f"mesh at {nid}: knitting reached the edge of its seed section "
                f"at {frag.node(nid).label}, whose arc {pres.display(a)} -> "
                f"{pres.display(b)} leaves it; widen {section_flag}"
            )
        return KnittingStuck(message)

    for _ in range(steps):
        if not ready:
            raise KnittingStuck("no node has all out-neighbours meshed")
        end = frag.node(ready.pop(0)[1])
        acc = {v: -c for v, c in end.dim.items()}
        mids = []
        for src, mult in in_of[end.node_id]:
            for v, c in frag.node(src).dim.items():
                acc[v] = acc.get(v, 0) + mult * c
            mids.extend([src] * mult)
        tdim = DimensionVector(acc)       # middle minus end
        if tdim.is_zero() or any(c < 0 for _, c in tdim.items()):
            raise stuck(
                end.node_id, f"mesh at {end.node_id} has no valid translate (projective end?)"
            )
        if not coxeter_op.sends(end.dim, tdim):
            raise stuck(end.node_id, _disagreement(pres, coxeter_op, end, tdim))
        span = _interval_span(tdim) if pres.linear else None
        tid = add_node(tdim, f"I[{span[0]},{span[1]}]" if span else None)
        for src, mult in in_of[end.node_id]:
            add_arrow(tid, src, mult)
        frag.tau_links.append((end.node_id, tid))
        frag.meshes.append((end.node_id, mids, tid))
        for src, _ in in_of[end.node_id]:
            pending[src] -= 1
            if not pending[src]:
                insort(ready, (order[src], src))
    return frag


# ---------------------------------------------------------------------------
# the translate / Coxeter comparison


def verify_translate_formula(module, coxeter_op=None):
    """Compare dim of the translate (comodule route) with the Coxeter image of
    dim N (matrix route), computed by independent code paths.

    Hypotheses are certified, never assumed: the dual module must admit no
    maps from injectives and its copresentation must stop after one step.
    The two sides are compared exactly, on every vertex, through
    `CoxeterOperator.sends`, which reads only lines of c^-1.  Returns
    {"holds": bool, "lhs": dim of the translate}.
    """
    pres = module.pres
    if pres.kind != "quiver":
        raise HypothesisViolated("comodule-level translate needs a path presentation")
    if coxeter_op is None:
        coxeter_op = CoxeterOperator(cartan_pair(pres))
    dual = module.dual()
    socle = dual.socle()
    if not certify_no_inj_hom(dual, socle):
        raise HomCNotZero("dual module receives an injective map")
    copres, _, translate = _transpose_attempt(dual, True, socle)
    if copres.e1.is_zero():
        raise HypothesisViolated("module is projective; translate vanishes")
    if not copres.exact_at_e1:
        raise HypothesisViolated("injective dimension of the dual exceeds one")
    lhs = translate.dim_vector()
    return {"holds": coxeter_op.sends(module.dim_vector(), lhs), "lhs": lhs}
