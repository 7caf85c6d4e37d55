"""Cones, comma categories, certified universal cones, and the limit functor.

A cone over a diagram is a vertex point plus an uncurried leg map (one arrow
element per shape-object element). Its stage-c object in the cone category
is a pair ``(v, gamma)`` with ``gamma`` a leg family over every arrow into c
at once, and ``ConesCategory`` is the one owner of that format: ``cone_at``
builds an object, ``vertex_of``, ``legs_of`` and ``legs_at_identity`` read
one, ``encode`` and ``decode_point`` carry a whole ``Cone`` to a global
point and back, and no other module takes the pair apart. The cone category
is built directly, the same data as the comma category of the
constant-diagram functor against the diagram's name without the full functor
category; the two constructions are cross-checked in the tests.

A thin target has at most one arrow per pair of ends at every stage
(``core.is_thin``), so any two of its arrows with the same ends are equal.
Its laws give its restrictions and composites the right ends, so a vertex
has a cone exactly when each leg key has an arrow with the right ends, and
that one cone, read off the endpoint index, is natural and satisfies the
cone condition. Otherwise leg families are enumerated by the engine's one
solver, set up once per stage by ``ambient.family_solver``, searched once
per vertex and checked against the cone condition. Comma squares are
composed and compared, over any target, when a comma's arrows are read.
The cone and comma categories each choose only their carriers and the
arithmetic of their arrow data; ``core.category_from_tables`` assembles
the rest. The category of parallel arrows is the comma of the pair
diagonal against itself, and its doubled identities are the functor the
comma's universal property induces. A diagram is an internal functor from
its shape to its target.

Cones form a discrete fibration over the diagram's target: each arrow into
a cone's vertex lifts to exactly one arrow into the cone, so a cone
category reads the arrows into a cone from its legs, and builds its arrows
object, and its projection ``to_base``, only when read. Over a thin target
the lift of an arrow from ``x`` is the one cone at ``x``, so it is read by
vertex, with no composite. A comma category
likewise builds its arrows, and the arrow parts of its projections, only
when read.

Colimits are limits in opposites, which cost nothing until read. A cocone
under ``D`` is a cone over ``D^op -> A^op`` with the same legs, so the
cocone category is the opposite of that cone category (its arrow from
``o1`` to ``o2`` is ``(o2, o1, p)``), an initial object is terminal in the
opposite, and a universal cocone is a universal cone over ``D^op``.

Universality is decided internally: a candidate is terminal when the
object of arrows into it projects isomorphically onto the objects-object.
It holds exactly when each fiber is a singleton at every stage, which the
one test reads through ``core.arrows_at``: from the legs of a cone
category, from the endpoint index otherwise. That single condition is
stable under every change of stage, so certified limits transport along
reindexings; ``transport_certificate`` builds the cone category over the
new base, which reads each vertex's one cone off the endpoint index over a
thin target and searches leg families with the solver otherwise, and
decides the moved cone again from scratch.
``mediated_functor`` reads a functor off one limit certified over the
elements of its source's objects (vertices, and mediators of the cones
its arrows induce, so nothing is transported); over a thin target each
such cone is the one cone at its vertex, so its mediator is read by
vertex and no leg family is built. Every adjunction goes
through ``certified_adjunction``, which certifies the component tables of
the unit and counit (their ends, their naturality and both triangle
identities) before it builds them as transformations. Failures are
returned as ``Refusal`` values naming the stage and element that obstruct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

from .labels import fam_dict, fam_in_order
from .ambient import (
    IndexCategory, IndexFunctor, Presheaf, PresheafMap, PreconditionError,
    elements_category, family_at_identity, family_keys, family_solver,
    first_map, inverse, point_of, restrict_map, shift_family, stage_family,
    terminal,
)
from .core import (
    InternalCategory, InternalFunctor, InternalNatTrans, adjunction_check,
    arrows_at, arrows_by_ends, category_from_tables, compose_functors,
    from_finite_category, identity_functor, identity_nat, initial_cat,
    is_thin, nat_is_iso, opposite, opposite_functor, product_cat, restrict_cat,
    restrict_functor, unique_to_terminal_cat,
)
from .functor_cat import ExponentialCategory, diagonal_functor, exponential_cat


@dataclass(eq=True)
class Refusal:
    """A first-class negative answer with the evidence that produced it."""

    kind: str
    details: dict = field(default_factory=dict)


class RefusalError(Exception):
    """Raised when a refusal occurs inside a construction that cannot
    return it as a value; carries the refusal."""

    def __init__(self, refusal: Refusal):
        super().__init__(refusal.kind)
        self.refusal = refusal


class CertificateError(Exception):
    """A certifying check failed: the engine built a result it cannot back.

    Unlike ``assert``, the checks that raise it run under ``python -O``.
    """


@dataclass(eq=True)
class _Legs:
    """A vertex and one leg per shape-object element, uncurried."""

    diagram: InternalFunctor
    vertex: PresheafMap          # terminal -> target.obj
    legs: PresheafMap            # shape.obj -> target.arr

    def _cone_faults(self, dg: InternalFunctor, kind: str, ends: tuple) -> list[str]:
        """The faults of these legs as a cone over ``dg``; messages name the
        ``kind`` and the leg ``ends`` at the vertex and at the diagram."""
        errs = self.vertex.validate() + self.legs.validate()
        if errs:
            return errs
        a, d = dg.target_cat, dg.source_cat
        for c in a.base.objects:
            v = self.vertex.components[c]["*"]
            legs = self.legs.components[c]
            misplaced = set()
            for x in d.obj.at(c):
                if a.s_at(c, legs[x]) != v:
                    errs.append(f"leg {ends[0]} at {c!r}:{x!r}")
                    misplaced.add(x)
                if a.t_at(c, legs[x]) != dg.on_obj(c, x):
                    errs.append(f"leg {ends[1]} at {c!r}:{x!r}")
                    misplaced.add(x)
            for f in d.arr.at(c):
                sx, tx = d.s_at(c, f), d.t_at(c, f)
                if sx in misplaced or tx in misplaced:
                    continue    # the cone condition would not compose
                if a.comp_at(c, dg.on_arr(c, f), legs[sx]) != legs[tx]:
                    errs.append(f"{kind} condition at {c!r}:{f!r}")
        return errs


class Cone(_Legs):
    """A vertex with one leg per shape-object element, uncurried."""

    def validate(self) -> list[str]:
        return self._cone_faults(self.diagram, "cone", ("source", "target"))


class Cocone(_Legs):
    """A vertex receiving one leg per shape-object element: a cone over the
    opposite diagram with the same legs."""

    def validate(self) -> list[str]:
        return self._cone_faults(opposite_functor(self.diagram), "cocone",
                                 ("target", "source"))


# ---------------------------------------------------------------------------
# cone and cocone categories (direct construction)


@dataclass(eq=True, repr=False)
class ConesCategory:
    """The category object of cones (or cocones) over a diagram.

    Stage-c objects are pairs ``(v, gamma)``: a vertex element and a leg
    family keyed by (arrow into c, shape-object element), built and read
    only by the methods below. Stage-c arrows are triples ``(o1, o2, p)``
    where ``p`` is a vertex arrow making every leg triangle commute; a
    cocone arrow from ``o1`` to ``o2`` is ``(o2, o1, p)``, the cone arrow it
    is in the opposite. ``to_base`` projects onto the diagram's target; it
    and the arrows part of ``cat`` are built on first read.

    ``cone_of`` is kept for cones over a thin target only: per stage, the
    one cone at each vertex that has one (``None`` otherwise, and ignored
    by ``==``).
    """

    kind: str                   # "cones" or "cocones"
    diagram: InternalFunctor
    cat: InternalCategory
    cone_of: Optional[dict] = field(default=None, compare=False)

    @cached_property
    def to_base(self) -> InternalFunctor:
        a, cat = self.diagram.target_cat, self.cat
        return InternalFunctor(cat, a, PresheafMap.entry(cat.obj, a.obj, 0),
                               PresheafMap.entry(cat.arr, a.arr, 2))

    def __repr__(self):
        return (f"{type(self).__qualname__}(kind={self.kind!r}, "
                f"diagram={self.diagram!r}, cat={self.cat!r}, "
                f"to_base={self.to_base!r})")

    def cone_at(self, c, vertex, leg):
        """The stage-``c`` object with this vertex and ``leg(u, x)`` at each
        arrow ``u`` into c and shape element ``x``."""
        dg = self.diagram
        return (vertex, stage_family(dg.target_cat.base, c, dg.source_cat.obj, leg))

    def vertex_of(self, o):
        """The vertex of the object ``o``."""
        return o[0]

    def legs_of(self, o) -> dict:
        """The legs of the object ``o``, keyed ``(u, x)``."""
        return fam_dict(o[1])

    def legs_at_identity(self, c, o) -> dict:
        """The legs of the stage-``c`` object ``o`` at the identity of c."""
        dg = self.diagram
        return family_at_identity(dg.target_cat.base, c, o[1], dg.source_cat.obj)

    def decode_point(self, p: PresheafMap) -> Union[Cone, Cocone]:
        """Read a global point of the objects-object back as a cone."""
        dg, a = self.diagram, self.diagram.target_cat
        stage = {c: p.components[c]["*"] for c in a.base.objects}
        cls = Cone if self.kind == "cones" else Cocone
        return cls(dg, point_of(a.obj, {c: self.vertex_of(o) for c, o in stage.items()}),
                   PresheafMap(dg.source_cat.obj, a.arr,
                               {c: self.legs_at_identity(c, o) for c, o in stage.items()}))

    def encode(self, cone: Union[Cone, Cocone]) -> PresheafMap:
        """The global point of the objects-object naming a cone."""
        expected = Cone if self.kind == "cones" else Cocone
        if not isinstance(cone, expected):
            raise PreconditionError(f"expected a {expected.__name__}")
        src = self.diagram.target_cat.base.src
        legs = cone.legs.components
        return point_of(self.cat.obj, {
            c: self.cone_at(c, v["*"], lambda u, x: legs[src[u]][x])
            for c, v in cone.vertex.components.items()})

    def certify(self, p: PresheafMap):
        """The limit (for cocones, colimit) certificate of the point ``p``,
        or the refusal of its terminality (initiality) test."""
        decide = is_internal_terminal if self.kind == "cones" else is_internal_initial
        res = decide(self.cat, p)
        return res if isinstance(res, Refusal) else self._of_universal(res)

    def _of_universal(self, res: "UniversalCertificate") -> "UniversalCertificate":
        """The limit (colimit) certificate wrapping a terminality
        (initiality) certificate of a point of this category."""
        cones = self.kind == "cones"
        if res.kind != ("terminal" if cones else "initial") or res.subject is not self.cat:
            raise CertificateError(
                f"a {res.kind} certificate does not certify a point of these {self.kind}")
        return UniversalCertificate("limit" if cones else "colimit", self.cat,
                                    res.point, res.unique_table, self)


def _thin_cones(dg: InternalFunctor, c) -> tuple:
    """The cones over ``dg`` at stage ``c``, by vertex in carrier order, when
    its target is thin: a vertex ``v`` has one when every key ``(u, x)`` has
    an arrow ``v·u -> dg(x)``, and those arrows are its legs.

    Each vertex's legs are the family ``core.arrow_families`` would read,
    but the per-key lookups are made once per stage, outside the loop over
    vertices: most vertices fail at their first key, and a call per vertex
    and per key costs more than the whole loop."""
    a, d = dg.target_cat, dg.source_cat
    base, by_ends, act = a.base, arrows_by_ends(a), a.obj.action
    keys = []
    for u, x in family_keys(base, c, d.obj):
        c2 = base.src[u]
        keys.append(((u, x), by_ends[c2], act[u], dg.on_obj(c2, x)))
    elems = []
    for v in a.obj.at(c):
        legs = []
        for k, ends, moved, end in keys:
            leg = ends.get((moved[v], end))
            if leg is None:
                break
            legs.append((k, leg[0]))
        else:
            elems.append((v, fam_in_order(legs)))
    return tuple(elems)


def _cone_category(dg: InternalFunctor) -> ConesCategory:
    """The cone category over ``dg``. Its stage-c objects ``(v, gamma)``
    are by vertex in carrier order, the leg families of one vertex in
    ``sort_key`` order.

    When the target ``a`` is thin (``core.is_thin``), ``_thin_cones`` reads
    them off the endpoint index. Each key of a vertex then has at most one
    candidate leg, so the vertex has at most one cone, and it is natural and
    satisfies the cone condition: each restriction of a leg and each
    composite of a leg with a shape arrow has the ends of the leg it must
    equal, as the laws of ``a`` guarantee, and arrows of ``a`` with the same
    ends are equal. Otherwise the solver searches the families of each
    vertex and checks the cone condition on every complete one.

    The arrows into a cone lift those into its vertex. Over a thin target
    the lift of ``p : x -> v`` is the one cone at ``x``, whose legs have
    the ends of the composites ``gamma p``; otherwise each lift is composed
    leg by leg and looked up among the cones."""
    a, d = dg.target_cat, dg.source_cat
    base = a.base
    by_ends = arrows_by_ends(a)
    comp = a.comp_at
    thin = is_thin(a)

    obj_carrier = {}
    for c in base.objects:
        if thin:
            obj_carrier[c] = _thin_cones(dg, c)
            continue
        solve = family_solver(base, c, d.obj, a.arr)

        def check(table, c=c):
            for u in base.arrows_into(c):
                c2 = base.src[u]
                for f in d.arr.at(c2):
                    sx, tx = d.s_at(c2, f), d.t_at(c2, f)
                    if table[(u, tx)] != comp(c2, dg.on_arr(c2, f), table[(u, sx)]):
                        return False
            return True

        elems = []
        for v in a.obj.at(c):

            def allowed(u, x, v=v):
                c2 = base.src[u]
                return by_ends[c2].get((a.obj.action[u][v], dg.on_obj(c2, x)), ())

            for gamma in solve(allowed, check):
                elems.append((v, gamma))
        obj_carrier[c] = tuple(elems)

    # Cones form a discrete fibration over ``a``: an arrow p : v1 -> v of
    # ``a`` lifts to exactly one arrow into the cone (v, gamma), from the
    # cone (v1, gamma p). So the arrows into a cone are read from its legs,
    # without building the others: over a thin target (v1, gamma p) is the
    # one cone at v1, otherwise it is composed leg by leg and looked up.
    position = {c: {o: i for i, o in enumerate(obj_carrier[c])}
                for c in base.objects}
    act, src = a.arr.action, base.src
    fibres = {}
    cone_of = ({c: {o[0]: o for o in obj_carrier[c]} for c in base.objects}
               if thin else None)

    def fibre(c, o):
        got = fibres.get((c, o))
        if got is not None:
            return got
        v, gamma = o
        if thin:
            cones, ends, got = cone_of[c], by_ends[c], {}
            for x in a.obj.at(c):
                p = ends.get((x, v))
                if p is not None:
                    far = cones.get(x)
                    if far is None:
                        raise CertificateError(f"lift of {p[0]!r} at {c!r} is not among the cones")
                    got[far] = ((far, o, p[0]),)
            fibres[(c, o)] = got
            return got
        legs = gamma[1]
        here = position[c]
        groups = {}
        for x in a.obj.at(c):
            for p in by_ends[c].get((x, v), ()):
                moved = tuple((k, comp(src[k[0]], w, act[k[0]][p])) for k, w in legs)
                far = (x, ("fam", moved))
                if far not in here:
                    raise CertificateError(f"lift of {p!r} at {c!r} is not among the cones")
                groups.setdefault(far, []).append((far, o, p))
        got = fibres[(c, o)] = {x: tuple(groups[x]) for x in sorted(groups, key=here.get)}
        return got

    def arr_carrier():
        """The stage-c arrows ``(o1, o2, p)`` from the fibres, ordered by
        the positions of o1, then o2, then p."""
        out = {}
        for c in base.objects:
            here = position[c]
            arrows = [h for o in obj_carrier[c] for hs in fibre(c, o).values() for h in hs]
            out[c] = tuple(sorted(arrows, key=lambda h: (here[h[0]], here[h[1]])))
        return out

    obj_action = {w: {(v, gamma): (a.obj.action[w][v], shift_family(base, w, d.obj, gamma))
                      for v, gamma in obj_carrier[base.tgt[w]]}
                  for w in base.arrows}
    cat = category_from_tables(
        Presheaf(base, obj_carrier, obj_action), arr_carrier,
        lambda w, t: (a.arr.action[w][t[2]],),
        lambda c, o: (a.id_at(c, o[0]),),
        lambda c, g, f: (a.comp_at(c, g[2], f[2]),),
        fibres=fibre)
    return ConesCategory("cones", dg, cat, cone_of)


def cones_category(dg: InternalFunctor) -> ConesCategory:
    """The category object of cones over a diagram."""
    return _cone_category(dg)


def cocones_category(dg: InternalFunctor) -> ConesCategory:
    """The category object of cocones under a diagram: the opposite of the
    cones over the opposite diagram."""
    return ConesCategory("cocones", dg, opposite(_cone_category(opposite_functor(dg)).cat))


# ---------------------------------------------------------------------------
# generic comma categories


@dataclass(eq=True)
class CommaCategory:
    """Objects are triples (x, y, h : F x -> G y); arrows are commuting
    squares (o1, o2, p, q). Projections and the canonical transformation
    from one composite to the other are bundled."""

    left: InternalFunctor        # F : X -> Z
    right: InternalFunctor       # G : Y -> Z
    cat: InternalCategory
    proj_left: InternalFunctor
    proj_right: InternalFunctor
    square: InternalNatTrans     # F proj_left -> G proj_right

    def mediate(self, s: InternalFunctor, t: InternalFunctor,
                tau: InternalNatTrans) -> InternalFunctor:
        """The unique functor into the comma induced by a lax square."""
        if tau.source != compose_functors(self.left, s) or \
           tau.target != compose_functors(self.right, t):
            raise PreconditionError("transformation does not connect the composites")
        w = s.source_cat
        base = w.base
        f0 = {c: {x: (s.on_obj(c, x), t.on_obj(c, x), tau.at(c, x))
                  for x in w.obj.at(c)} for c in base.objects}
        f1 = {}
        for c in base.objects:
            f1[c] = {k: (f0[c][w.s_at(c, k)], f0[c][w.t_at(c, k)],
                         s.on_arr(c, k), t.on_arr(c, k))
                     for k in w.arr.at(c)}
        return InternalFunctor(w, self.cat,
                               PresheafMap(w.obj, self.cat.obj, f0),
                               PresheafMap(w.arr, self.cat.arr, f1))

    def mediate_2(self, m_one: InternalFunctor, m_two: InternalFunctor,
                  xi: InternalNatTrans, upsilon: InternalNatTrans) -> InternalNatTrans:
        """The unique 2-cell between two mediating functors induced by a
        compatible pair of transformations into the legs."""
        w = m_one.source_cat
        base = w.base
        comps = {}
        for c in base.objects:
            stage = {}
            members = set(self.cat.arr.at(c))
            for x in w.obj.at(c):
                cell = (m_one.on_obj(c, x), m_two.on_obj(c, x),
                        xi.at(c, x), upsilon.at(c, x))
                if cell not in members:
                    raise PreconditionError(
                        f"two-cell data does not commute at {c!r}:{x!r}")
                stage[x] = cell
            comps[c] = stage
        return InternalNatTrans(m_one, m_two,
                                PresheafMap(w.obj, self.cat.arr, comps))


def comma_category(f: InternalFunctor, g: InternalFunctor) -> CommaCategory:
    """The comma category of two functors sharing a target.

    Its objects are built at once. Its arrows, and the arrow parts of its
    projections and of the composites its square joins, are built on first
    read: over a thin target the cone categories of the AFT fiber read only
    object parts. When read, a square is kept only if it commutes."""
    if f.target_cat != g.target_cat:
        raise PreconditionError("comma factors do not share a target")
    x, y, z = f.source_cat, g.source_cat, f.target_cat
    base = z.base

    ends_z = arrows_by_ends(z)
    obj_carrier = {c: tuple((xo, yo, h)
                            for xo in x.obj.at(c) for yo in y.obj.at(c)
                            for h in ends_z[c].get((f.on_obj(c, xo),
                                                    g.on_obj(c, yo)), ()))
                   for c in base.objects}

    def arr_carrier():
        ends_x, ends_y = arrows_by_ends(x), arrows_by_ends(y)
        out = {}
        for c in base.objects:
            quads = []
            for o1 in obj_carrier[c]:
                for o2 in obj_carrier[c]:
                    qs = ends_y[c].get((o1[1], o2[1]), ())
                    for p in ends_x[c].get((o1[0], o2[0]), ()):
                        lhs = z.comp_at(c, o2[2], f.on_arr(c, p))
                        for q in qs:
                            if lhs == z.comp_at(c, g.on_arr(c, q), o1[2]):
                                quads.append((o1, o2, p, q))
            out[c] = tuple(quads)
        return out

    def shift_obj(w, o):
        return (x.obj.action[w][o[0]], y.obj.action[w][o[1]],
                z.arr.action[w][o[2]])

    obj_action = {w: {o: shift_obj(w, o) for o in obj_carrier[base.tgt[w]]}
                  for w in base.arrows}
    cat = category_from_tables(
        Presheaf(base, obj_carrier, obj_action), arr_carrier,
        lambda w, t: (x.arr.action[w][t[2]], y.arr.action[w][t[3]]),
        lambda c, o: (x.id_at(c, o[0]), y.id_at(c, o[1])),
        lambda c, g, f: (x.comp_at(c, g[2], f[2]), y.comp_at(c, g[3], f[3])))

    proj_left = InternalFunctor(cat, x, PresheafMap.entry(cat.obj, x.obj, 0),
                                lambda: PresheafMap.entry(cat.arr, x.arr, 2))
    proj_right = InternalFunctor(cat, y, PresheafMap.entry(cat.obj, y.obj, 1),
                                 lambda: PresheafMap.entry(cat.arr, y.arr, 3))
    square = InternalNatTrans(
        compose_functors(f, proj_left), compose_functors(g, proj_right),
        PresheafMap.entry(cat.obj, z.arr, 2))
    return CommaCategory(f, g, cat, proj_left, proj_right, square)


# ---------------------------------------------------------------------------
# internal terminality and universal cones


@dataclass(eq=True, repr=False)
class UniversalCertificate:
    """A certified universal object: the point, the unique-arrow witness,
    and (for limits of diagrams) the cone category it lives in.

    ``unique_table`` gives, per stage, the one arrow from each object to
    the point (from the point, when initial); the map ``unique_arrow`` of
    the arrows object is built from it on first read. Inside a cone
    category, ``diagram`` is its diagram and ``candidate`` the point decoded
    as a Cone or Cocone, on first read; both are None otherwise.
    ``mediator_at`` reads the mediator of a cone object, and
    ``mediator_from`` that of the cone with a vertex and legs, by vertex
    over a thin target.
    """

    kind: str                    # "terminal" | "initial" | "limit" | "colimit"
    subject: InternalCategory
    point: PresheafMap           # terminal -> subject.obj
    unique_table: dict           # stage -> {object element: arrow element}
    cones: Optional[ConesCategory] = None

    @property
    def diagram(self) -> Optional[InternalFunctor]:
        return None if self.cones is None else self.cones.diagram

    @cached_property
    def candidate(self) -> Union[Cone, Cocone, None]:
        return None if self.cones is None else self.cones.decode_point(self.point)

    @cached_property
    def unique_arrow(self) -> PresheafMap:
        """The unique-arrow map, subject.obj -> subject.arr."""
        return PresheafMap(self.subject.obj, self.subject.arr, self.unique_table)

    def object_at(self, c):
        """The certified object at stage ``c``: for a cone category, the
        ``(vertex, legs)`` object its readers take apart."""
        return self.point.components[c]["*"]

    def mediator_at(self, c, o):
        """The vertex arrow of the one arrow at stage ``c`` from the cone
        ``o`` to the certified point of a cone category (to ``o`` from the
        point, for cocones). A cone that is no object of the certified
        category at ``c`` is refused."""
        arrow = self.unique_table.get(c, {}).get(o)
        if arrow is None:
            raise CertificateError(
                f"{o!r} is not an object of the certified category at stage {c!r}")
        return arrow[2]

    def mediator_from(self, c, vertex, legs):
        """``mediator_at`` the cone at stage ``c`` with this vertex and the
        leg function ``legs()``, whose legs must have the ends of a cone.
        Over a thin target that cone is the one cone at ``vertex``, read
        by vertex without calling ``legs``; otherwise (or when the stage
        or the vertex has none) it is built with ``cone_at``. A certificate
        without a cone category is refused."""
        cones = self.cones
        if cones is None:
            raise PreconditionError("certificate does not carry a cone category")
        o = (cones.cone_of or {}).get(c, {}).get(vertex)
        return self.mediator_at(c, cones.cone_at(c, vertex, legs()) if o is None else o)

    def __repr__(self):
        fields = ("kind", "subject", "point", "unique_arrow", "candidate",
                  "diagram", "cones")
        body = ", ".join(f"{k}={getattr(self, k)!r}" for k in fields)
        return f"{type(self).__qualname__}({body})"


def _obstruction(objs, fibre: dict):
    """The first of ``objs`` with other than one arrow in ``fibre`` (the
    arrows into a candidate, or out of it, by their other end) and that
    count."""
    for x in objs:
        n = len(fibre.get(x, ()))
        if n != 1:
            return x, n
    return None


def is_internal_terminal(a: InternalCategory, v: PresheafMap):
    """Certify that the point ``v`` is terminal inside the category object.

    The object of arrows into ``v`` must project isomorphically onto the
    objects-object via the source map, which holds exactly when each fiber is
    a singleton at every stage. The fibers are read by ``core.arrows_at``:
    from the legs of a cone category, without its arrows object, and from
    the endpoint index otherwise. The certificate carries the induced
    unique-arrow map. Refusal names the first stage and element whose fiber
    of incoming arrows is not a singleton.
    """
    if v.source != terminal(a.base) or v.target != a.obj:
        raise PreconditionError("candidate is not a point of the objects-object")
    errs = v.validate()
    if errs:
        raise PreconditionError(f"candidate point is not natural: {errs}")
    unique = {}
    for c in a.base.objects:
        fibre = arrows_at(a, c, v.components[c]["*"])
        bad = _obstruction(a.obj.at(c), fibre)
        if bad is not None:
            return Refusal("not_terminal", {"stage": c, "element": bad[0], "count": bad[1]})
        unique[c] = {x: hs[0] for x, hs in fibre.items()}
    return UniversalCertificate("terminal", a, v, unique)


def is_internal_initial(a: InternalCategory, v: PresheafMap):
    """Certify that the point ``v`` is initial: terminal in the opposite,
    relabelled; ``unique_arrow`` sends each object to the arrow from ``v``."""
    res = is_internal_terminal(opposite(a), v)
    if isinstance(res, Refusal):
        return Refusal("not_initial", res.details)
    return UniversalCertificate("initial", a, res.point, res.unique_table)


def _stage_universal(cns: ConesCategory, c):
    """The objects of a cone category at stage ``c`` with exactly one arrow
    from every object, in carrier order, and, when there are objects but
    none of these, the obstruction of every object.

    The arrows into a cone lift those into its vertex one to one, so only a
    candidate whose vertex has as many as there are objects is counted
    object by object, unless the stage is blocked.
    """
    cat = cns.cat
    objs = cat.obj.at(c)
    degree = {}
    for (_, t), hs in arrows_by_ends(cns.diagram.target_cat)[c].items():
        degree[t] = degree.get(t, 0) + len(hs)
    bad = {o: _obstruction(objs, arrows_at(cat, c, o))
           for o in objs if degree.get(cns.vertex_of(o), 0) == len(objs)}
    good = tuple(o for o, why in bad.items() if why is None)
    if good or not objs:
        return good, []
    obstructions = []
    for o in objs:
        x, n = bad.get(o) or _obstruction(objs, arrows_at(cat, c, o))
        obstructions.append({"candidate": o, "element": x, "count": n})
    return good, obstructions


def universal_cone(dg: InternalFunctor, cns: Optional[ConesCategory] = None):
    """Search the cone category for an internally terminal cone; ``cns``,
    when given, must be the cone category of ``dg``."""
    if cns is None:
        cns = cones_category(dg)
    elif cns.kind != "cones" or (cns.diagram is not dg and cns.diagram != dg):
        raise PreconditionError("the category given is not that of the cones "
                                "over this diagram")
    cat = cns.cat
    base = cat.base

    # An internally terminal point is stagewise terminal, so prefilter each
    # stage down to its stage-terminal elements before enumerating
    # candidate points. Without this the candidate space is a product over
    # stages.
    empty_stages, blocked_stages, stage_good = [], [], {}
    for c in base.objects:
        stage_good[c], obstructions = _stage_universal(cns, c)
        if not cat.obj.at(c):
            empty_stages.append(c)
        elif obstructions:
            blocked_stages.append({"stage": c, "obstructions": obstructions})

    # A point through stage-terminal elements passes the internal test,
    # which reads the same fibres, so the first candidate is the answer.
    point = None if empty_stages or blocked_stages else first_map(
        terminal(base), cat.obj, allowed=lambda c, e: stage_good[c])
    if point is None:
        return Refusal("no_universal_cone",
                       {"candidates": 0, "failures": [],
                        "empty_stages": empty_stages,
                        "blocked_stages": blocked_stages})
    res = cns.certify(point)
    if isinstance(res, Refusal):
        raise CertificateError(f"stage-universal point is refused: {res}")
    return res


def universal_cocone(dg: InternalFunctor, cns: Optional[ConesCategory] = None):
    """Search the cocone category for an internally initial cocone: a
    universal cone over the opposite diagram, relabelled. ``cns``, when
    given, must be the cocone category of ``dg``."""
    if cns is None:
        cns = cocones_category(dg)
    elif cns.kind != "cocones" or (cns.diagram is not dg and cns.diagram != dg):
        raise PreconditionError("the category given is not that of the cocones "
                                "over this diagram")
    dg_op = opposite_functor(dg)
    res = universal_cone(dg_op, ConesCategory("cones", dg_op, opposite(cns.cat)))
    if isinstance(res, Refusal):
        return Refusal("no_universal_cocone", res.details)
    return cns._of_universal(UniversalCertificate("initial", cns.cat, res.point,
                                                  res.unique_table))


def connecting_iso(cert_a: UniversalCertificate,
                   cert_b: UniversalCertificate) -> PresheafMap:
    """The unique isomorphism from one certified universal point to another
    over the same subject, as a point of the arrows-object.

    Uniqueness needs no extra search: each certificate counts exactly one
    arrow from (or to) every object, so the connecting arrow below is the
    only one, and the two composites are forced to be identities.
    """
    if cert_a.subject != cert_b.subject:
        raise PreconditionError("certificates live in different categories")
    terminal_like = ("terminal", "limit")
    if (cert_a.kind in terminal_like) != (cert_b.kind in terminal_like):
        raise PreconditionError("certificates have opposite polarity")
    cat = cert_a.subject
    # the unique arrows of a terminal point end at it, of an initial one start at it
    first, second = (cert_a, cert_b) if cert_a.kind in terminal_like else (cert_b, cert_a)
    fwd = first.point.then(second.unique_arrow)
    bwd = second.point.then(first.unique_arrow)
    for c in cat.base.objects:
        f = fwd.components[c]["*"]
        b = bwd.components[c]["*"]
        oa, ob = cert_a.object_at(c), cert_b.object_at(c)
        if cat.comp_at(c, b, f) != cat.id_at(c, oa) or \
           cat.comp_at(c, f, b) != cat.id_at(c, ob):
            raise CertificateError(f"connecting arrows are not inverse at {c!r}")
    return fwd


def certified_limit(dg, during=None) -> UniversalCertificate:
    """The limit of ``dg`` by exhaustive universal-cone search. A refusal
    is raised as ``RefusalError``; when ``during`` names the step that
    asked, the refusal's details carry it unless they name one already."""
    res = universal_cone(dg)
    if isinstance(res, Refusal):
        if during is not None:
            res.details.setdefault("during", during)
        raise RefusalError(res)
    return res


def indexed_cone_factorization(family: PresheafMap,
                               cert: UniversalCertificate) -> PresheafMap:
    """Factor a whole family of cones through a certified limit at once.

    ``family`` maps an indexing presheaf into the cone category's
    objects-object; the result maps it to the arrow elements mediating
    each member into the limit cone.
    """
    if cert.cones is None or cert.kind not in ("limit", "colimit"):
        raise PreconditionError("certificate does not carry a cone category")
    if family.target != cert.subject.obj:
        raise PreconditionError("family does not land in the cone category")
    errs = family.validate()
    if errs:
        raise PreconditionError(f"family is not a natural family of cones: {errs}")
    a = cert.cones.diagram.target_cat
    comps = family.components
    mediator = PresheafMap(family.source, a.arr, {
        c: {i: cert.mediator_at(c, o) for i, o in cc.items()} for c, cc in comps.items()})
    ends = mediator.then(a.source if cert.kind == "limit" else a.target)
    vertices = PresheafMap(family.source, a.obj, {
        c: {i: cert.cones.vertex_of(o) for i, o in cc.items()} for c, cc in comps.items()})
    if ends != vertices:
        raise CertificateError("mediator does not start at the family's vertices")
    return mediator


# ---------------------------------------------------------------------------
# certificate transport


def transport_certificate(cert: UniversalCertificate, q: IndexFunctor,
                          dg2: Optional[InternalFunctor] = None):
    """Reindex a certified universal cone along an index functor and
    certify it again over the new base.

    The cone category over ``dg2``, by default the certified diagram
    restricted along ``q``, is built anew, each vertex's one cone read off
    the endpoint index over a thin target and leg families searched by the
    solver otherwise, and the transported cone is decided from scratch.
    Returns a fresh certificate, or a Refusal if the transported cone is
    not universal over the new base (which would witness an instability).
    """
    if cert.cones is None or cert.kind not in ("limit", "colimit"):
        raise PreconditionError("certificate does not carry a cone category")
    if dg2 is None:
        dg2 = restrict_functor(q, cert.diagram)
    elif dg2.source_cat.base != q.source or dg2.target_cat.base != q.source:
        raise PreconditionError(
            "the diagram given does not live over the source of the reindexing")
    cns2 = cocones_category(dg2) if cert.kind == "colimit" else cones_category(dg2)
    # By naturality the legs at stage s are the legs at q(s).
    cone = cert.candidate
    return cns2.certify(cns2.encode(
        type(cone)(dg2, restrict_map(q, cone.vertex), restrict_map(q, cone.legs))))


# ---------------------------------------------------------------------------
# adjunctions from certified universal arrows


def certified_adjunction(left: InternalFunctor, right: InternalFunctor,
                         unit: dict, counit: dict, what: str):
    """The unit ``1 => right left`` and counit ``left right => 1`` with
    these component tables, certified by ``adjunction_check`` (component
    ends, naturality and both triangle identities); a failure is a
    ``CertificateError`` prefixed by ``what``."""
    errs = adjunction_check(left, right, unit, counit)
    if errs:
        raise CertificateError(f"{what}: {errs}")
    a, b = left.source_cat, left.target_cat
    return (InternalNatTrans(identity_functor(a), compose_functors(right, left),
                             PresheafMap(a.obj, a.arr, unit)),
            InternalNatTrans(compose_functors(left, right), identity_functor(b),
                             PresheafMap(b.obj, b.arr, counit)))


def mediated_functor(cert: UniversalCertificate, idx: InternalCategory,
                     tgt: InternalCategory, legs) -> InternalFunctor:
    """The functor ``idx -> tgt`` read off a limit certified over the
    elements of ``idx.obj``: an object ``x`` at stage ``c`` goes to the
    vertex certified at ``(c, x)``, an arrow ``t`` to the mediator, at
    ``(c, target t)``, of the cone from the vertex of ``source t`` with
    the leg function ``legs(c, t)``. The mediator is read by
    ``UniversalCertificate.mediator_from``, so over a thin target it is
    read by vertex and ``legs`` is never called. A certificate other than
    a limit with its cone category is refused."""
    if cert.cones is None or cert.kind != "limit":
        raise PreconditionError("certificate is not a limit with a cone category")
    base, cns = idx.base, cert.cones
    f0 = {c: {x: cns.vertex_of(cert.object_at((c, x))) for x in idx.obj.at(c)}
          for c in base.objects}
    f1 = {c: {t: cert.mediator_from((c, idx.t_at(c, t)), f0[c][idx.s_at(c, t)],
                                    lambda: legs(c, t))
              for t in idx.arr.at(c)} for c in base.objects}
    return InternalFunctor(idx, tgt, PresheafMap(idx.obj, tgt.obj, f0),
                           PresheafMap(idx.arr, tgt.arr, f1))


# ---------------------------------------------------------------------------
# the limit functor


@dataclass
class LimitFunctorResult:
    """The right adjoint to the constant-diagram functor for one shape,
    with the verified adjunction data."""

    functor: InternalFunctor         # functor category -> target
    diagonal: InternalFunctor
    unit: InternalNatTrans
    counit: InternalNatTrans
    expo: ExponentialCategory
    unit_is_iso: bool
    certificate: UniversalCertificate


def _functor_space_diagram(e: ExponentialCategory):
    """The tautological diagram over the elements of the functor space:
    the stage (c, F) sees the functor F itself, evaluated at identities."""
    a, shape = e.cod, e.dom
    base = a.base
    site, proj = elements_category(e.cat.obj)
    sh = restrict_cat(proj, shape)
    am = restrict_cat(proj, a)
    f0 = {(c, el): family_at_identity(base, c, el[0], shape.obj)
          for (c, el) in site.objects}
    f1 = {(c, el): family_at_identity(base, c, el[1], shape.arr)
          for (c, el) in site.objects}
    eps = InternalFunctor(sh, am, PresheafMap(sh.obj, am.obj, f0),
                          PresheafMap(sh.arr, am.arr, f1))
    return site, eps


def limit_functor(a: InternalCategory, shape: InternalCategory) -> LimitFunctorResult:
    """Construct the right adjoint to the constant-diagram functor.

    The object part comes from one certified universal cone over the
    elements of the whole functor space. The arrow part and the unit are
    mediators into that same certified cone, read at the site stage of
    the functor they land in. Both triangle identities are verified
    exactly before returning.
    """
    e = exponential_cat(shape, a)
    base = a.base
    site, eps = _functor_space_diagram(e)
    cert = certified_limit(eps, "limit functor: functor-space diagram")
    cns, src = cert.cones, site.src

    # Arrow part: a transformation alpha : F -> G at stage c composes the
    # limit cone of F into a cone over G, at the site stage (c, G).
    def pushed(c, t):
        fn, _, alpha = t
        talpha, tgamma = fam_dict(alpha), cns.legs_of(cert.object_at((c, fn)))
        return lambda w, d: a.comp_at(src[w][0], talpha[(w[0], d)], tgamma[((w[0], fn), d)])

    lim_fn = mediated_functor(cert, e.cat, a, pushed)
    delta = diagonal_functor(e)

    # Unit: mediate the identity cone on each object x, a cone over the
    # constant functor on x at the site stage (c, delta x).
    def unit_at(c, x):
        return cert.mediator_from((c, delta.f0.components[c][x]), x, lambda: (
            lambda w, d: a.id_at(src[w][0], a.obj.action[w[0]][x])))

    # Counit: the universal cone itself, one transformation element per
    # functor element.
    def counit_at(c, el):
        t = cns.legs_of(cert.object_at((c, el)))
        alpha = stage_family(base, c, shape.obj, lambda u, d: t[((u, el), d)])
        return (delta.f0.components[c][lim_fn.on_obj(c, el)], el, alpha)

    unit, counit = certified_adjunction(
        delta, lim_fn, {c: {x: unit_at(c, x) for x in a.obj.at(c)} for c in base.objects},
        {c: {el: counit_at(c, el) for el in e.cat.obj.at(c)} for c in base.objects},
        "limit functor")
    return LimitFunctorResult(lim_fn, delta, unit, counit, e, nat_is_iso(unit), cert)


# ---------------------------------------------------------------------------
# special shapes and special right adjoints


def shape_two(base: IndexCategory) -> InternalCategory:
    """The discrete two-object shape."""
    return from_finite_category(base, IndexCategory.discrete(("0", "1")))


def shape_parallel_pair(base: IndexCategory) -> InternalCategory:
    """Two objects joined by two parallel non-identity arrows."""
    fin = IndexCategory(
        ("0", "1"), ("id_0", "id_1", "one", "two"),
        {"id_0": "0", "id_1": "1", "one": "0", "two": "0"},
        {"id_0": "0", "id_1": "1", "one": "1", "two": "1"},
        {"0": "id_0", "1": "id_1"},
        {("id_0", "id_0"): "id_0", ("id_1", "id_1"): "id_1",
         ("one", "id_0"): "one", ("id_1", "one"): "one",
         ("two", "id_0"): "two", ("id_1", "two"): "two"})
    return from_finite_category(base, fin)


def _pair_diagonal(a: InternalCategory) -> InternalFunctor:
    """The diagonal ``a -> a × a``, sending x to (x, x) and h to (h, h)."""
    base, aa = a.base, product_cat(a, a)
    return InternalFunctor(
        a, aa,
        PresheafMap(a.obj, aa.obj, {c: {x: (x, x) for x in a.obj.at(c)}
                                    for c in base.objects}),
        PresheafMap(a.arr, aa.arr, {c: {h: (h, h) for h in a.arr.at(c)}
                                    for c in base.objects}))


def parallel_arrows_category(a: InternalCategory):
    """The category object of parallel arrow pairs in ``a``: the comma
    category of the pair diagonal ``d : a -> a × a`` against itself.

    Objects are triples (x, y, (f, g)) with f, g : x -> y; arrows are
    endpoint pairs (h0, h1) commuting with both. Returns the category and
    the functor sending each object of ``a`` to its doubled identity pair.
    """
    d = _pair_diagonal(a)
    par = comma_category(d, d)
    return par.cat, par.mediate(identity_functor(a), identity_functor(a), identity_nat(d))


@dataclass
class SpecialAdjoint:
    """A right adjoint for one of the special limit notions, certified by
    exact triangle identities, together with the shape-reduction data."""

    kind: str
    direct_cat: InternalCategory
    to_direct: InternalFunctor
    right: InternalFunctor
    unit: InternalNatTrans
    counit: InternalNatTrans
    comparison: InternalFunctor      # direct_cat -> functor category
    via_shape: LimitFunctorResult


def _special_setup(a: InternalCategory, kind: str):
    base = a.base
    if kind == "terminal":
        return initial_cat(base), unique_to_terminal_cat(a)
    if kind == "binary_product":
        return shape_two(base), _pair_diagonal(a)
    if kind == "equalizer":
        return shape_parallel_pair(base), parallel_arrows_category(a)[1]
    raise PreconditionError(f"unknown special limit kind {kind!r}")


def _special_comparison(a: InternalCategory, kind: str,
                        direct: InternalCategory, shape: InternalCategory) -> tuple:
    """The canonical identification of the direct target with the functor
    category over ``shape``, as its object and arrow tables."""
    base = a.base

    def picks(c, o):
        """The diagram an object of the direct target names at stage c, as
        (object per shape object, arrow per shape arrow)."""
        if kind == "terminal":
            return {}, {}
        if kind == "binary_product":
            x, y = o
            return {"0": x, "1": y}, {("id", "0"): a.id_at(c, x),
                                      ("id", "1"): a.id_at(c, y)}
        x, y, (f, g) = o
        return {"0": x, "1": y}, {"id_0": a.id_at(c, x), "id_1": a.id_at(c, y),
                                  "one": f, "two": g}

    def psi0(c, o):
        objs, arrs = picks(c, o)
        return (stage_family(base, c, shape.obj, lambda u, d: a.obj.action[u][objs[d]]),
                stage_family(base, c, shape.arr, lambda u, h: a.arr.action[u][arrs[h]]))

    def psi1(c, t):
        if kind == "terminal":
            ends, legs = ("*", "*"), {}
        elif kind == "binary_product":
            p, q = t
            ends = ((a.s_at(c, p), a.s_at(c, q)), (a.t_at(c, p), a.t_at(c, q)))
            legs = {"0": p, "1": q}
        else:
            ends, legs = (t[0], t[1]), {"0": t[2], "1": t[3]}
        return (psi0(c, ends[0]), psi0(c, ends[1]),
                stage_family(base, c, shape.obj, lambda u, d: a.arr.action[u][legs[d]]))

    return ({c: {o: psi0(c, o) for o in direct.obj.at(c)} for c in base.objects},
            {c: {t: psi1(c, t) for t in direct.arr.at(c)} for c in base.objects})


def special_right_adjoint(a: InternalCategory, kind: str):
    """A right adjoint to the terminal/product/equalizer comparison functor,
    built through the limit functor over the matching shape.

    Returns a SpecialAdjoint, or a Refusal naming a witness object that
    lacks its universal arrow: the object the comparison sends to the first
    functor the limit functor found no limit of.
    """
    shape, to_direct = _special_setup(a, kind)
    direct = to_direct.target_cat
    f0, f1 = _special_comparison(a, kind, direct, shape)
    try:
        lf = limit_functor(a, shape)
    except RefusalError as err:
        details = dict(err.refusal.details)
        witness = None
        stages = details.get("empty_stages") or \
            [b["stage"] for b in details.get("blocked_stages", [])]
        if stages:
            c, el = stages[0]
            witness = {image: o for o, image in f0[c].items()}.get(el)
        return Refusal("no_right_adjoint",
                       {"kind": kind, "witness": witness,
                        "cause": err.refusal.kind, "cause_details": details})
    e = lf.expo.cat
    psi = InternalFunctor(direct, e, PresheafMap(direct.obj, e.obj, f0),
                          PresheafMap(direct.arr, e.arr, f1))
    if compose_functors(psi, to_direct) != lf.diagonal:
        raise CertificateError("comparison does not carry the direct diagonal")
    inv0, inv1 = inverse(psi.f0), inverse(psi.f1)
    if inv0 is None or inv1 is None:
        raise CertificateError("comparison must be invertible")
    right = compose_functors(lf.functor, psi)
    unit, counit = certified_adjunction(
        to_direct, right, lf.unit.component.components,
        psi.f0.then(lf.counit.component).then(inv1).components,
        "special right adjoint")
    return SpecialAdjoint(kind, direct, to_direct, right, unit, counit, psi, lf)
