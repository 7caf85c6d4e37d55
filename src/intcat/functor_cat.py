"""Functor categories between category objects.

The mapping space of two category objects is the functor category's
objects-object, not a second class. It is computed stage by stage: an
element at stage c is a pair ``(phi0, phi1)`` of stage families, the
generalized-element format that ``ambient`` owns (keyed by an arrow
``u : c' -> c`` of the base and an element at c'), giving an object
assignment and an arrow assignment subject to the functor laws.
Natural-transformation elements are triples ``(F, G, alpha)``. Object
families are enumerated by the engine's one solver, set up once per stage
and per pair of carriers by ``ambient.family_solver``; constraint
propagation prunes candidates early, so the raw function spaces of the
underlying carriers are never materialized. The functor category is
assembled from its arrow triples by ``core.category_from_tables``.

Arrow parts and transformations are families into the target's arrows,
found by ``core.arrow_families``, the latter when the arrows are first
read. Over a thin target it reads them off the endpoint index: arrows with
the same ends are equal, and both sides of each functor law, restriction
law and naturality square have the same ends, so each key takes the one
arrow with the right ends, if it has one. Otherwise the solver searches
them and composition and naturality are checked. The diagonal is read off
its target, not curried from a projection out of a product.
"""

from __future__ import annotations

from dataclasses import dataclass

from .labels import fam_dict
from .ambient import (
    Presheaf, PresheafMap, PreconditionError, elements_category,
    family_at_identity, family_solver, point_of, shift_family, stage_family,
)
from .core import (
    InternalCategory, InternalFunctor, InternalNatTrans, arrow_families,
    arrows_by_ends, category_from_tables, identity_functor, product_cat,
    restrict_cat,
)


def _arrow_parts(a: InternalCategory, b: InternalCategory, c, phi0_table: dict,
                 by_ends: dict, ids: dict, solve) -> list:
    """All arrow families completing the object family ``phi0`` at stage c.

    Identity arrows are forced, endpoints filter the candidates, the base
    restriction law propagates, and composition preservation is the final
    check.
    """
    base = a.base

    def allowed(u, f):
        c2 = base.src[u]
        stage_ids = ids[c2]
        if f in stage_ids:
            return (b.id_at(c2, phi0_table[(u, stage_ids[f])]),)
        ends = (phi0_table[(u, a.s_at(c2, f))], phi0_table[(u, a.t_at(c2, f))])
        return by_ends[c2].get(ends, ())

    def check(table):
        for u in base.arrows_into(c):
            c2 = base.src[u]
            for (g, f) in a.composable_pairs(c2):
                if table[(u, a.comp_at(c2, g, f))] != \
                   b.comp_at(c2, table[(u, g)], table[(u, f)]):
                    return False
        return True

    return solve(allowed, check)


@dataclass(eq=True)
class ExponentialCategory:
    """The functor category of two category objects, as a category object.

    Its objects-object is the mapping space: an element at stage c is a pair
    ``(phi0, phi1)``, where ``phi0`` maps each (arrow into c, object element)
    to an object element of the target, ``phi1`` does the same for arrow
    elements, and together they satisfy the functor laws. Arrows are triples
    ``(F, G, alpha)`` with ``alpha`` a natural family between the two.
    """

    dom: InternalCategory
    cod: InternalCategory
    cat: InternalCategory

    def _check_endpoints(self, *fns: InternalFunctor) -> None:
        if any(fn.source_cat != self.dom or fn.target_cat != self.cod for fn in fns):
            raise PreconditionError("functor endpoints do not match the mapping space")

    def stage_element(self, c, fn: InternalFunctor):
        """The element of stage c induced by a whole functor."""
        base = self.dom.base
        return (stage_family(base, c, self.dom.obj,
                             lambda u, x: fn.f0.components[base.src[u]][x]),
                stage_family(base, c, self.dom.arr,
                             lambda u, h: fn.f1.components[base.src[u]][h]))

    def encode_functor(self, fn: InternalFunctor) -> PresheafMap:
        """The global point of the objects-object naming ``fn``."""
        self._check_endpoints(fn)
        return point_of(self.cat.obj, {c: self.stage_element(c, fn)
                                       for c in self.dom.base.objects})

    def decode_point(self, p: PresheafMap) -> InternalFunctor:
        """The functor named by a global point of the objects-object."""
        base = self.dom.base
        f0 = {c: family_at_identity(base, c, p.components[c]["*"][0], self.dom.obj)
              for c in base.objects}
        f1 = {c: family_at_identity(base, c, p.components[c]["*"][1], self.dom.arr)
              for c in base.objects}
        return InternalFunctor(self.dom, self.cod,
                               PresheafMap(self.dom.obj, self.cod.obj, f0),
                               PresheafMap(self.dom.arr, self.cod.arr, f1))

    def encode_nat(self, nt: InternalNatTrans) -> PresheafMap:
        """The global point of the arrows-object naming a transformation."""
        self._check_endpoints(nt.source, nt.target)
        base = self.dom.base
        return point_of(self.cat.arr, {
            c: (self.stage_element(c, nt.source),
                self.stage_element(c, nt.target),
                stage_family(base, c, self.dom.obj,
                             lambda u, x: nt.component.components[base.src[u]][x]))
            for c in base.objects})

    def decode_arrow(self, p: PresheafMap) -> InternalNatTrans:
        """The transformation named by a global point of the arrows-object."""
        base = self.dom.base
        comps = {c: family_at_identity(base, c, p.components[c]["*"][2], self.dom.obj)
                 for c in base.objects}
        return InternalNatTrans(self.decode_point(p.then(self.cat.source)),
                                self.decode_point(p.then(self.cat.target)),
                                PresheafMap(self.dom.obj, self.cod.arr, comps))


def exponential_cat(a: InternalCategory, b: InternalCategory) -> ExponentialCategory:
    """The functor category of ``a`` into ``b`` as a category object; its
    transformations are searched when its arrows are first read."""
    if a.base != b.base:
        raise PreconditionError("mapping space factors live over different bases")
    base = a.base
    by_ends = arrows_by_ends(b)
    ids = {c: a.identity_elements(c) for c in base.objects}
    obj_carrier = {}
    for c in base.objects:
        solve = arrow_families(b, c, a.arr)
        obj_carrier[c] = tuple(
            (phi0, phi1) for phi0 in family_solver(base, c, a.obj, b.obj)()
            for phi1 in _arrow_parts(a, b, c, fam_dict(phi0), by_ends, ids, solve))
    space = Presheaf(base, obj_carrier, {
        w: {(phi0, phi1): (shift_family(base, w, a.obj, phi0),
                           shift_family(base, w, a.arr, phi1))
            for (phi0, phi1) in obj_carrier[base.tgt[w]]}
        for w in base.arrows})

    def arr_carrier():
        out = {}
        for c in base.objects:
            solve = arrow_families(b, c, a.obj)
            tables = [(el, fam_dict(el[0]), fam_dict(el[1])) for el in space.at(c)]
            triples = []
            for f_el, t0f, t1f in tables:
                for g_el, t0g, t1g in tables:

                    def allowed(u, x, t0f=t0f, t0g=t0g):
                        return by_ends[base.src[u]].get((t0f[(u, x)], t0g[(u, x)]), ())

                    def check(table, t1f=t1f, t1g=t1g, c=c):
                        for u in base.arrows_into(c):
                            c2 = base.src[u]
                            for h in a.arr.at(c2):
                                lhs = b.comp_at(c2, t1g[(u, h)],
                                                table[(u, a.s_at(c2, h))])
                                rhs = b.comp_at(c2, table[(u, a.t_at(c2, h))],
                                                t1f[(u, h)])
                                if lhs != rhs:
                                    return False
                        return True

                    for alpha in solve(allowed, check):
                        triples.append((f_el, g_el, alpha))
            out[c] = tuple(triples)
        return out

    def identity_parts(c, el):
        t0 = fam_dict(el[0])
        return (stage_family(base, c, a.obj,
                             lambda u, x: b.id_at(base.src[u], t0[(u, x)])),)

    def compose_parts(c, g, f):
        tg, tf = fam_dict(g[2]), fam_dict(f[2])
        return (stage_family(
            base, c, a.obj,
            lambda u, x: b.comp_at(base.src[u], tg[(u, x)], tf[(u, x)])),)

    cat = category_from_tables(
        space, arr_carrier,
        lambda w, t: (shift_family(base, w, a.obj, t[2]),),
        identity_parts, compose_parts)
    return ExponentialCategory(a, b, cat)


def evaluation_functor(e: ExponentialCategory) -> InternalFunctor:
    """Evaluation (functor category) x dom -> cod: the uncurrying of the
    identity functor. On arrows it takes the diagonal of the naturality
    square."""
    return uncurry_functor(identity_functor(e.cat), e)


def curry_functor(fn: InternalFunctor, left: InternalCategory,
                  e: ExponentialCategory) -> InternalFunctor:
    """Transpose ``fn : left x right -> b`` to ``left -> (b ^ right)``, where
    ``e`` is the functor category of ``right`` into ``b``."""
    if fn.source_cat != product_cat(left, e.dom):
        raise PreconditionError("functor to transpose does not start at the product")
    if fn.target_cat != e.cod:
        raise PreconditionError("functor to transpose does not land in the exponent's target")
    right, base = e.dom, left.base

    def stage0(c, x):
        return (stage_family(base, c, right.obj,
                             lambda u, d: fn.f0.components[base.src[u]][
                                 (left.obj.action[u][x], d)]),
                stage_family(base, c, right.arr,
                             lambda u, h: fn.f1.components[base.src[u]][
                                 (left.id_at(base.src[u], left.obj.action[u][x]), h)]))

    f0 = {c: {x: stage0(c, x) for x in left.obj.at(c)} for c in base.objects}

    def stage1(c, k):
        alpha = stage_family(base, c, right.obj,
                             lambda u, d: fn.f1.components[base.src[u]][
                                 (left.arr.action[u][k], right.id_at(base.src[u], d))])
        return (f0[c][left.s_at(c, k)], f0[c][left.t_at(c, k)], alpha)

    f1 = {c: {k: stage1(c, k) for k in left.arr.at(c)} for c in base.objects}
    return InternalFunctor(left, e.cat,
                           PresheafMap(left.obj, e.cat.obj, f0),
                           PresheafMap(left.arr, e.cat.arr, f1))


def uncurry_functor(g: InternalFunctor, e: ExponentialCategory) -> InternalFunctor:
    """Transpose ``g : left -> (b ^ right)`` back to ``left x right -> b``."""
    if g.target_cat != e.cat:
        raise PreconditionError("functor to transpose does not land in the functor category")
    left, right, b = g.source_cat, e.dom, e.cod
    base = left.base
    prod = product_cat(left, right)
    f0, f1 = {}, {}
    for c in base.objects:
        obj_at = {x: family_at_identity(base, c, el[0], right.obj)
                  for x, el in g.f0.components[c].items()}
        arr_at = {k: family_at_identity(base, c, t[0][1], right.arr)
                  for k, t in g.f1.components[c].items()}
        nat_at = {k: family_at_identity(base, c, t[2], right.obj)
                  for k, t in g.f1.components[c].items()}
        f0[c] = {(x, d): obj_at[x][d] for (x, d) in prod.obj.at(c)}
        f1[c] = {(k, h): b.comp_at(c, nat_at[k][right.t_at(c, h)], arr_at[k][h])
                 for (k, h) in prod.arr.at(c)}
    return InternalFunctor(prod, b, PresheafMap(prod.obj, b.obj, f0),
                           PresheafMap(prod.arr, b.arr, f1))


def diagonal_functor(e: ExponentialCategory) -> InternalFunctor:
    """The constant-diagram functor ``a -> (a ^ shape)`` into the functor
    category ``e`` of ``shape`` into ``a``: at stage c, ``x`` goes to the
    functor with ``x.u`` at each key ``(u, d)`` and ``id(x.u)`` at each key
    ``(u, h)``, and an arrow ``k`` to the transformation with ``k.u`` at
    each key ``(u, d)``. These are the labels the currying of the
    projection ``a x shape -> a`` gives, read off ``a``."""
    a, shape = e.cod, e.dom
    base, act = a.base, a.obj.action

    def stage0(c, x):
        return (stage_family(base, c, shape.obj, lambda u, d: act[u][x]),
                stage_family(base, c, shape.arr,
                             lambda u, h: a.id_at(base.src[u], act[u][x])))

    f0 = {c: {x: stage0(c, x) for x in a.obj.at(c)} for c in base.objects}
    f1 = {c: {k: (f0[c][a.s_at(c, k)], f0[c][a.t_at(c, k)],
                  stage_family(base, c, shape.obj, lambda u, d: a.arr.action[u][k]))
              for k in a.arr.at(c)}
          for c in base.objects}
    return InternalFunctor(a, e.cat, PresheafMap(a.obj, e.cat.obj, f0),
                           PresheafMap(a.arr, e.cat.arr, f1))


def reindex_exponential_iso(i: Presheaf, e: ExponentialCategory) -> InternalFunctor:
    """Reindexing the functor category ``e`` over the elements of ``i``
    agrees with the functor category of the reindexed factors.

    Returns the comparison functor from the reindexed functor category to
    the functor category of reindexed factors; both of its parts are
    stage-by-stage bijections.
    """
    site, proj = elements_category(i)
    lhs = restrict_cat(proj, e.cat)
    rhs = exponential_cat(restrict_cat(proj, e.dom), restrict_cat(proj, e.cod))

    def rekey(so, dom, label):
        table = fam_dict(label)
        return stage_family(site, so, dom, lambda w, x: table[(w[0], x)])

    f0comps, f1comps = {}, {}
    for so in site.objects:
        stage0 = {el: (rekey(so, rhs.dom.obj, el[0]), rekey(so, rhs.dom.arr, el[1]))
                  for el in lhs.obj.at(so)}
        f0comps[so] = stage0
        f1comps[so] = {t: (stage0[t[0]], stage0[t[1]], rekey(so, rhs.dom.obj, t[2]))
                       for t in lhs.arr.at(so)}
    return InternalFunctor(lhs, rhs.cat,
                           PresheafMap(lhs.obj, rhs.cat.obj, f0comps),
                           PresheafMap(lhs.arr, rhs.cat.arr, f1comps))
