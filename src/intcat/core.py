"""Category objects inside the ambient category.

An internal category is a six-arrow diagram: objects-object, arrows-object,
source, target, identity, and composition on the chosen pullback of
composable pairs. A composable pair is labeled ``(g, f)`` with the later
arrow first, i.e. ``source(g) = target(f)`` and ``compose((g, f)) = g after
f``. A category object composes one pair at a time through its
``comp_fn``, and builds the pullback of composable pairs and the
composition table from it only when they are read, since deciding
universality reads only the arrows into one object. It may also build its
arrows part on first read: cone categories do, reading the arrows into one
object from their legs, and functor categories search their
transformations then; ``arrows_at`` serves either way. The opposite is
such a view, so the arrows out of an object are the arrows into it in the
opposite, and a restriction reads its original's indexes at the image
stage. Functors and natural transformations between internal categories
are presheaf maps subject to the usual equations, checked elementwise. A
functor's arrow part may likewise come as a thunk, called on first read:
composites and the projections of comma categories take theirs so, since
over a thin target a cone category reads only its diagram's object part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from .labels import fam_in_order
from .ambient import (
    IndexCategory, IndexFunctor, Presheaf, PresheafMap, LimitCone,
    PreconditionError, enumerate_maps, family_keys, family_solver, initial,
    point_label, point_of, points, product, pullback, restrict,
    terminal, unique_to_terminal,
)


class _Fields:
    """Equality and ``repr`` read field by field over ``_FIELDS``, so a part
    not yet built is built to be compared or printed."""

    _FIELDS: tuple = ()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self._FIELDS)

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._FIELDS)
        return f"{type(self).__name__}({fields})"


class InternalCategory(_Fields):
    """A category object: six arrows of the ambient category.

    The arrows part is given, or ``arr`` is a thunk returning
    ``(arr, source, target, identity)``, called when any of them is first
    read. ``comp_fn(c, g, f)`` names g after f; ``comp_at`` composes through
    it. The pullback of composable pairs and the composition on it are built
    together from ``source``, ``target`` and ``comp_fn`` when either is
    first read. The endpoint index ``arrows_by_ends`` is also built on
    first read and kept. ``fibres(c, o)``, when given, reads the
    arrows into ``o`` at stage ``c`` without reading the arrows object;
    ``arrows_at`` serves it.
    """

    _FIELDS = ("obj", "arr", "source", "target", "identity", "pairs", "compose")
    _opposite_of = None         # the original, on a view made by ``opposite``
    _restricted_from = None     # (p.on_obj, original), on a ``restrict_cat``

    def __init__(self, obj: Presheaf, arr, source: Optional[PresheafMap],
                 target: Optional[PresheafMap], identity: Optional[PresheafMap],
                 comp_fn: Callable, fibres: Optional[Callable] = None):
        self.obj = obj
        if callable(arr):
            self._arrows = arr
        else:
            self.arr, self.source, self.target, self.identity = arr, source, target, identity
        self._comp = comp_fn
        self._fibres = fibres

    def _arrows_part(self, i: int):
        """Entry ``i`` of the arrows part; one call of the thunk sets all four."""
        part = self._arrows()
        vars(self).update(zip(("arr", "source", "target", "identity"), part))
        return part[i]

    arr = cached_property(lambda self: self._arrows_part(0))
    source = cached_property(lambda self: self._arrows_part(1))
    target = cached_property(lambda self: self._arrows_part(2))
    identity = cached_property(lambda self: self._arrows_part(3))

    @cached_property
    def _composition(self) -> tuple:
        """The pullback of composable pairs and the composition by ``comp_fn`` on it."""
        pairs = pullback(self.source, self.target)
        comps = {c: {(g, f): self._comp(c, g, f) for (g, f) in pairs.apex.at(c)}
                 for c in self.base.objects}
        return pairs, PresheafMap(pairs.apex, self.arr, comps)

    @property
    def pairs(self) -> LimitCone:
        """The pullback of source against target."""
        return self._composition[0]

    @property
    def compose(self) -> PresheafMap:
        """The composition, pairs.apex -> arr."""
        return self._composition[1]

    @cached_property
    def _ends(self) -> dict:
        """``arrows_by_ends``: an opposite view swaps its original's keys, a
        restriction reads its original's dicts at p(d)."""
        if self._opposite_of is not None:
            return {c: {(t, s): ks for (s, t), ks in groups.items()}
                    for c, groups in self._opposite_of._ends.items()}
        if self._restricted_from is not None:
            at, a = self._restricted_from
            return {d: a._ends[at[d]] for d in self.base.objects}
        out = {}
        for c in self.base.objects:
            s, t = self.source.components[c], self.target.components[c]
            groups: dict = {}
            for k in self.arr.at(c):
                groups.setdefault((s[k], t[k]), []).append(k)
            out[c] = {ends: tuple(ks) for ends, ks in groups.items()}
        return out

    @cached_property
    def _thin(self) -> dict:
        """``_thin_stages``: an opposite view shares its original's verdicts,
        a restriction reads its original's at p(d)."""
        if self._opposite_of is not None:
            return self._opposite_of._thin
        if self._restricted_from is not None:
            at, a = self._restricted_from
            return {d: a._thin[at[d]] for d in self.base.objects}
        return {c: all(len(ks) == 1 for ks in groups.values())
                for c, groups in self._ends.items()}

    @cached_property
    def _into(self) -> dict:
        """Per stage, ``arrows_at``'s index: target -> source -> arrows; a
        restriction reads its original's at p(d)."""
        if self._restricted_from is not None:
            at, a = self._restricted_from
            return {d: a._into[at[d]] for d in self.base.objects}
        out = {}
        for stage, groups in self._ends.items():
            into = out[stage] = {}
            for (s, t), ks in groups.items():
                into.setdefault(t, {})[s] = ks
        return out

    @property
    def base(self) -> IndexCategory:
        return self.obj.base

    def s_at(self, c, h):
        return self.source.components[c][h]

    def t_at(self, c, h):
        return self.target.components[c][h]

    def id_at(self, c, a):
        return self.identity.components[c][a]

    def comp_at(self, c, g, f):
        """g after f at stage c, labelled ``(g, f)``; refuses a pair that does not compose."""
        try:
            composable = self.source.components[c][g] == self.target.components[c][f]
        except KeyError:
            composable = False
        if not composable:
            raise PreconditionError(f"({g!r}, {f!r}) is not a composable pair at stage {c!r}")
        return self._comp(c, g, f)

    def identity_elements(self, c) -> dict:
        """Reverse lookup: identity arrow element -> the object it sits on."""
        return {h: a for a, h in self.identity.components[c].items()}

    def composable_pairs(self, c) -> tuple:
        return self.pairs.apex.at(c)

    def validate(self) -> list[str]:
        return validate_internal_category(self)


def make_internal_category(obj: Presheaf, arr: Presheaf, source: PresheafMap,
                           target: PresheafMap, identity: PresheafMap,
                           comp_fn: Callable) -> InternalCategory:
    """Assemble a category object; ``comp_fn(c, g, f)`` names g after f.
    The composable pairs and the composition are built on first read."""
    return InternalCategory(obj, arr, source, target, identity, comp_fn)


def category_from_tables(obj: Presheaf, arr_carrier, shift_parts: Callable,
                         identity_parts: Callable, compose_parts: Callable,
                         fibres: Optional[Callable] = None) -> InternalCategory:
    """Assemble a category object whose stage-c arrows are ``(s, t, *parts)``.

    ``arr_carrier`` is a thunk returning the arrows of each stage, called
    with the arrows part assembled on its first read, so that cone, comma
    and functor categories find their arrows only when read.
    Source and target are the first two entries and move along base arrows
    by the action of ``obj``. The callbacks return only the parts:
    ``shift_parts(w, t)`` those of arrow ``t`` moved along ``w``,
    ``identity_parts(c, o)`` those of the identity on ``o``, and
    ``compose_parts(c, g, f)`` those of g after f. ``fibres`` is as for
    ``InternalCategory``.
    """
    base = obj.base

    def arrows():
        carrier = arr_carrier()
        arr_action = {w: {t: (obj.action[w][t[0]], obj.action[w][t[1]])
                          + shift_parts(w, t)
                          for t in carrier[base.tgt[w]]}
                      for w in base.arrows}
        arr = Presheaf(base, carrier, arr_action)
        ident = PresheafMap(obj, arr, {c: {o: (o, o) + identity_parts(c, o)
                                           for o in obj.at(c)}
                                       for c in base.objects})
        return (arr, PresheafMap.entry(arr, obj, 0), PresheafMap.entry(arr, obj, 1),
                ident)

    return InternalCategory(obj, arrows, None, None, None,
                            lambda c, g, f: (f[0], g[1]) + compose_parts(c, g, f), fibres)


def validate_internal_category(a: InternalCategory) -> list[str]:
    """All seven category laws, stage by stage, ends first. At a stage whose
    identities and composites have the right ends and where each pair of
    ends holds one arrow, the unit and associativity laws hold uncomposed:
    ``f . id`` and ``id . f`` have the ends of ``f``, and ``(h . g) . f`` and
    ``h . (g . f)`` both run from ``s f`` to ``t h``. Elsewhere associativity
    visits the composable triples only, reading for each pair ``(h, g)`` the
    arrows into ``source(g)`` in carrier order, so faults follow the pairs,
    then the arrows; a unit law or triple that would compose an identity or
    composite with wrong ends is skipped."""
    out = []
    for part, name in ((a.obj, "objects"), (a.arr, "arrows"), (a.pairs.apex, "pairs")):
        out += [f"{name}: {v}" for v in part.validate()]
    for m, name in ((a.source, "source"), (a.target, "target"),
                    (a.identity, "identity"), (a.compose, "compose")):
        out += [f"{name}: {v}" for v in m.validate()]
    if out:
        return out
    for c in a.base.objects:
        s, t = a.source.components[c], a.target.components[c]
        ident, comp = a.identity.components[c], a.compose.components[c]
        pairs, arrows, n = a.composable_pairs(c), a.arr.at(c), len(out)
        for x in a.obj.at(c):
            i = ident[x]
            if s[i] != x:
                out.append(f"source of identity at {c!r}:{x!r}")
            if t[i] != x:
                out.append(f"target of identity at {c!r}:{x!r}")
        for (g, f) in pairs:
            gf = comp[(g, f)]
            if s[gf] != s[f]:
                out.append(f"source of composite at {c!r}:({g!r},{f!r})")
            if t[gf] != t[g]:
                out.append(f"target of composite at {c!r}:({g!r},{f!r})")
        if len(out) == n and _thin_stages(a)[c]:
            continue
        for f in arrows:
            i_s, i_t = ident[s[f]], ident[t[f]]
            if t[i_s] == s[f] and comp[(f, i_s)] != f:
                out.append(f"right unit at {c!r}:{f!r}")
            if s[i_t] == t[f] and comp[(i_t, f)] != f:
                out.append(f"left unit at {c!r}:{f!r}")
        into: dict = {}
        for f in arrows:
            into.setdefault(t[f], []).append(f)
        for (h, g) in pairs:
            hg, sg = comp[(h, g)], s[g]
            if s[hg] != sg:
                continue
            for f in into.get(sg, ()):
                gf = comp[(g, f)]
                if t[gf] != t[g]:
                    continue
                if comp[(hg, f)] != comp[(h, gf)]:
                    out.append(f"associativity at {c!r}:({h!r},{g!r},{f!r})")
    return out


class InternalFunctor(_Fields):
    """A functor between category objects: object part and arrow part.

    The arrow part ``f1`` is a map, or a thunk returning it, called on its
    first read, as ``compose_functors`` and the projections of a comma
    category pass it: over a thin target a cone category reads only the
    object part of its diagram. A functor whose arrow part is unread equals
    the same functor read, and has the same ``repr``.
    """

    _FIELDS = ("source_cat", "target_cat", "f0", "f1")

    def __init__(self, source_cat: InternalCategory, target_cat: InternalCategory,
                 f0: PresheafMap, f1):
        self.source_cat, self.target_cat, self.f0 = source_cat, target_cat, f0
        if callable(f1):
            self._f1 = f1
        else:
            self.f1 = f1

    @cached_property
    def f1(self) -> PresheafMap:
        return self._f1()

    def on_obj(self, c, a):
        return self.f0.components[c][a]

    def on_arr(self, c, h):
        return self.f1.components[c][h]

    def validate(self) -> list[str]:
        return validate_internal_functor(self)


def validate_internal_functor(fn: InternalFunctor) -> list[str]:
    out = []
    a, b = fn.source_cat, fn.target_cat
    if fn.f0.source != a.obj or fn.f0.target != b.obj:
        out.append("object part has wrong endpoints")
    if fn.f1.source != a.arr or fn.f1.target != b.arr:
        out.append("arrow part has wrong endpoints")
    out += [f"object part: {v}" for v in fn.f0.validate()]
    out += [f"arrow part: {v}" for v in fn.f1.validate()]
    if out:
        return out
    for c in a.base.objects:
        for h in a.arr.at(c):
            if b.s_at(c, fn.on_arr(c, h)) != fn.on_obj(c, a.s_at(c, h)):
                out.append(f"source not preserved at {c!r}:{h!r}")
            if b.t_at(c, fn.on_arr(c, h)) != fn.on_obj(c, a.t_at(c, h)):
                out.append(f"target not preserved at {c!r}:{h!r}")
        out.extend(_functor_faults(fn, c))
    return out


def _functor_faults(fn: InternalFunctor, c):
    """The identities, then the composites, that ``fn`` fails to preserve
    at stage ``c``, one message each."""
    a, b = fn.source_cat, fn.target_cat
    for x in a.obj.at(c):
        if fn.on_arr(c, a.id_at(c, x)) != b.id_at(c, fn.on_obj(c, x)):
            yield f"identity not preserved at {c!r}:{x!r}"
    for (g, f) in a.composable_pairs(c):
        if fn.on_arr(c, a.comp_at(c, g, f)) != \
           b.comp_at(c, fn.on_arr(c, g), fn.on_arr(c, f)):
            yield f"composition not preserved at {c!r}:({g!r},{f!r})"


def identity_functor(a: InternalCategory) -> InternalFunctor:
    return InternalFunctor(a, a, PresheafMap.identity(a.obj), PresheafMap.identity(a.arr))


def compose_functors(g: InternalFunctor, f: InternalFunctor) -> InternalFunctor:
    """g after f; the arrow part is composed on its first read."""
    if f.target_cat != g.source_cat:
        raise PreconditionError("functor composition endpoint mismatch")
    return InternalFunctor(f.source_cat, g.target_cat,
                           f.f0.then(g.f0), lambda: f.f1.then(g.f1))


@dataclass(eq=True)
class InternalNatTrans:
    """A natural transformation: one arrow element per object element."""

    source: InternalFunctor
    target: InternalFunctor
    component: PresheafMap      # source_cat.obj -> target_cat.arr

    def at(self, c, a):
        return self.component.components[c][a]

    def validate(self) -> list[str]:
        return validate_internal_nat(self)


def validate_internal_nat(nt: InternalNatTrans) -> list[str]:
    out = []
    f, g = nt.source, nt.target
    if f.source_cat != g.source_cat or f.target_cat != g.target_cat:
        return ["source and target functors are not parallel"]
    a, b = f.source_cat, f.target_cat
    if nt.component.source != a.obj or nt.component.target != b.arr:
        out.append("component has wrong endpoints")
    out += [f"component: {v}" for v in nt.component.validate()]
    if out:
        return out
    for c in a.base.objects:
        for x in a.obj.at(c):
            h = nt.at(c, x)
            if b.s_at(c, h) != f.on_obj(c, x):
                out.append(f"component source at {c!r}:{x!r}")
            if b.t_at(c, h) != g.on_obj(c, x):
                out.append(f"component target at {c!r}:{x!r}")
        for h in a.arr.at(c):
            x, y = a.s_at(c, h), a.t_at(c, h)
            if b.comp_at(c, g.on_arr(c, h), nt.at(c, x)) != \
               b.comp_at(c, nt.at(c, y), f.on_arr(c, h)):
                out.append(f"naturality square at {c!r}:{h!r}")
    return out


def identity_nat(f: InternalFunctor) -> InternalNatTrans:
    return InternalNatTrans(f, f, f.f0.then(f.target_cat.identity))


# ---------------------------------------------------------------------------
# constructions


def discrete(x: Presheaf) -> InternalCategory:
    """Only identity arrows: objects and arrows share the carrier."""
    one = PresheafMap.identity(x)
    return make_internal_category(x, x, one, one, one, lambda c, g, f: f)


def indiscrete(x: Presheaf) -> InternalCategory:
    """Exactly one arrow between any two objects: arrows are ordered pairs."""
    cone = product(x, x)
    apex = cone.apex
    base = x.base
    source, target = cone.legs
    diag = cone.mediate([PresheafMap.identity(x), PresheafMap.identity(x)])
    return make_internal_category(
        x, apex, source, target, diag,
        lambda c, g, f: (f[0], g[1]))


def opposite(a: InternalCategory) -> InternalCategory:
    """The opposite category object, as a view of ``a``: the same objects
    and arrows with source and target swapped, composing a pair backwards
    through ``a``. The view reads no arrows or tables of ``a`` until its
    own are read, and the opposite of the view is ``a`` itself."""
    if a._opposite_of is not None:
        return a._opposite_of
    op = InternalCategory(a.obj, lambda: (a.arr, a.target, a.source, a.identity),
                          None, None, None, lambda c, g, f: a._comp(c, f, g))
    op._opposite_of = a
    return op


def opposite_functor(fn: InternalFunctor) -> InternalFunctor:
    """The same functor between the opposites of its ends."""
    return InternalFunctor(opposite(fn.source_cat), opposite(fn.target_cat), fn.f0, fn.f1)


def product_cat(a: InternalCategory, b: InternalCategory) -> InternalCategory:
    """The pointwise product category."""
    if a.base != b.base:
        raise PreconditionError("product categories live over different bases")
    ocone = product(a.obj, b.obj)
    acone = product(a.arr, b.arr)
    source = ocone.mediate([acone.legs[0].then(a.source), acone.legs[1].then(b.source)])
    target = ocone.mediate([acone.legs[0].then(a.target), acone.legs[1].then(b.target)])
    ident = acone.mediate([ocone.legs[0].then(a.identity), ocone.legs[1].then(b.identity)])
    return make_internal_category(
        ocone.apex, acone.apex, source, target, ident,
        lambda c, g, f: (a.comp_at(c, g[0], f[0]), b.comp_at(c, g[1], f[1])))


def terminal_cat(base: IndexCategory) -> InternalCategory:
    return discrete(terminal(base))


def initial_cat(base: IndexCategory) -> InternalCategory:
    return discrete(initial(base))


def unique_to_terminal_cat(a: InternalCategory) -> InternalFunctor:
    """The unique functor from ``a`` to the one-object category."""
    return InternalFunctor(a, terminal_cat(a.base), unique_to_terminal(a.obj),
                           unique_to_terminal(a.arr))


def from_finite_category(base: IndexCategory, c: IndexCategory) -> InternalCategory:
    """Internalize a finite category as constant presheaves over ``base``."""
    def const(labels):
        labels = tuple(labels)
        return Presheaf(base, {o: labels for o in base.objects},
                        {u: {l: l for l in labels} for u in base.arrows})

    obj, arr = const(c.objects), const(c.arrows)
    source = PresheafMap(arr, obj, {o: dict(c.src) for o in base.objects})
    target = PresheafMap(arr, obj, {o: dict(c.tgt) for o in base.objects})
    ident = PresheafMap(obj, arr, {o: dict(c.identity) for o in base.objects})
    table = c.compose
    return make_internal_category(obj, arr, source, target, ident,
                                  lambda o, g, f: table[(g, f)])


def restrict_cat(p: IndexFunctor, a: InternalCategory) -> InternalCategory:
    """Reindex a category object along an index functor. Labels are
    preserved, so the arrows part at stage d is the one of ``a`` at p(d),
    and a pair composes as in ``a`` at p(d); the composable pairs and the
    composition are built from these on first read, reading no table of
    ``a``. Objects and arrows are restricted once, and source, target and
    identity built on them. The endpoint index and the arrows into each
    object at stage d are those of ``a`` at p(d), the same objects, so
    ``arrows_by_ends``, ``arrows_at`` and ``is_thin`` build nothing per
    stage."""
    comp, at = a._comp, p.on_obj
    obj, arr = restrict(p, a.obj), restrict(p, a.arr)

    def comps(m: PresheafMap) -> dict:
        return {d: m.components[at[d]] for d in p.source.objects}

    b = InternalCategory(
        obj, arr, PresheafMap(arr, obj, comps(a.source)),
        PresheafMap(arr, obj, comps(a.target)), PresheafMap(obj, arr, comps(a.identity)),
        lambda d, g, f: comp(at[d], g, f))
    b._restricted_from = (at, a)
    return b


def restrict_functor(p: IndexFunctor, fn: InternalFunctor,
                     source_cat: Optional[InternalCategory] = None,
                     target_cat: Optional[InternalCategory] = None) -> InternalFunctor:
    source_cat = restrict_cat(p, fn.source_cat) if source_cat is None else source_cat
    target_cat = restrict_cat(p, fn.target_cat) if target_cat is None else target_cat
    return InternalFunctor(
        source_cat, target_cat,
        PresheafMap(source_cat.obj, target_cat.obj,
                    {d: fn.f0.components[p.on_obj[d]] for d in p.source.objects}),
        PresheafMap(source_cat.arr, target_cat.arr,
                    {d: fn.f1.components[p.on_obj[d]] for d in p.source.objects}))


# ---------------------------------------------------------------------------
# externalization and enumeration


def points_of_cat(a: InternalCategory) -> IndexCategory:
    """The external category of global points: objects are points of the
    objects-object, arrows are points of the arrows-object."""
    obj_pts = points(a.obj)
    arr_pts = points(a.arr)
    obj_labels = [point_label(p) for p in obj_pts]
    arr_labels = [point_label(p) for p in arr_pts]
    arr_by_label = dict(zip(arr_labels, arr_pts))
    src = {l: point_label(p.then(a.source)) for l, p in zip(arr_labels, arr_pts)}
    tgt = {l: point_label(p.then(a.target)) for l, p in zip(arr_labels, arr_pts)}
    identity = {point_label(p): point_label(p.then(a.identity)) for p in obj_pts}
    compose = {}
    base = a.base
    for gl in arr_labels:
        for fl in arr_labels:
            if src[gl] != tgt[fl]:
                continue
            g, f = arr_by_label[gl], arr_by_label[fl]
            composite = point_of(a.arr, {
                c: a.comp_at(c, g.components[c]["*"], f.components[c]["*"])
                for c in base.objects})
            compose[(gl, fl)] = point_label(composite)
    return IndexCategory(tuple(obj_labels), tuple(arr_labels), src, tgt, identity, compose)


def arrows_by_ends(b: InternalCategory) -> dict:
    """Per stage, the arrow elements of ``b`` grouped by (source, target),
    each group in carrier order; built once per object, shared, not to be
    mutated. An opposite view reads its original's index, keys swapped, and
    a restricted category its original's at p(d), the same dicts."""
    return b._ends


def _thin_stages(b: InternalCategory) -> dict:
    """Per stage, whether each pair of ends holds at most one arrow of ``b``,
    read off ``arrows_by_ends`` once per object; an opposite view reads its
    original's verdicts, a restricted category its original's at p(d)."""
    return b._thin


def is_thin(b: InternalCategory) -> bool:
    """Whether ``b`` has at most one arrow per pair of ends at every stage."""
    return all(_thin_stages(b).values())


def arrow_families(b: InternalCategory, c, dom: Presheaf) -> Callable:
    """``family_solver`` for the natural families from ``dom`` into the
    arrows of ``b`` at stage ``c``: ``solve(allowed, check)``. Over a thin
    ``b`` each key's candidates share their ends, so ``solve`` reads the one
    family, the first candidate at each key, or none if a key has none, and
    does not run ``check``: the laws it checks equate arrows with the same
    ends."""
    if not is_thin(b):
        return family_solver(b.base, c, dom, b.arr)
    keys = family_keys(b.base, c, dom)

    def solve(allowed, check):
        entries = []
        for k in keys:
            got = allowed(*k)
            if not got:
                return []
            entries.append((k, got[0]))
        return [fam_in_order(entries)]
    return solve


def arrows_at(b: InternalCategory, c, o) -> dict:
    """The arrow elements of ``b`` at stage ``c`` into ``o``, grouped by
    their source: each group in carrier order, the groups in the carrier
    order of their first arrows. The arrows out of ``o`` are those into it
    in ``opposite(b)``.

    Read from the category's own fibre reader when it has one, which needs
    no arrows part, and otherwise from an index built once from
    ``arrows_by_ends``, or read off the original's at p(c) by a restricted
    category; shared, not to be mutated.
    """
    if b._fibres is not None:
        return b._fibres(c, o)
    return b._into[c].get(o, {})


def _forced_map(x: Presheaf, y: Presheaf, allowed: Callable) -> Optional[PresheafMap]:
    """The map x -> y taking each element ``e`` at stage c to the one
    candidate of ``allowed(c, e)``, or None when an element has none. Used
    when ``y`` is the arrows of a thin category and the candidates are the
    arrows with the ends of a natural map, so the map is natural too."""
    comps = {}
    for c in x.base.objects:
        comp = comps[c] = {}
        for e in x.at(c):
            got = allowed(c, e)
            if not got:
                return None
            comp[e] = got[0]
    return PresheafMap(x, y, comps)


def enumerate_functors(a: InternalCategory, b: InternalCategory) -> list:
    """All internal functors a -> b, in a deterministic order.

    Over a thin ``b`` the object part forces the arrow part: each arrow goes
    to the one arrow with its ends, and both sides of each functor law have
    the same ends, so the laws hold. Otherwise the arrow parts are searched
    and the laws checked on each."""
    by_ends = arrows_by_ends(b)
    thin = is_thin(b)
    out = []
    for f0 in enumerate_maps(a.obj, b.obj):
        def allowed(c, h, f0=f0):
            ends = (f0.components[c][a.s_at(c, h)], f0.components[c][a.t_at(c, h)])
            return by_ends[c].get(ends, ())
        if thin:
            f1 = _forced_map(a.arr, b.arr, allowed)
            if f1 is not None:
                out.append(InternalFunctor(a, b, f0, f1))
            continue
        for f1 in enumerate_maps(a.arr, b.arr, allowed=allowed):
            fn = InternalFunctor(a, b, f0, f1)
            if not any(next(_functor_faults(fn, c), None) for c in a.base.objects):
                out.append(fn)
    return out


def nat_inverse(nt: InternalNatTrans) -> Optional[InternalNatTrans]:
    """The inverse transformation, when every component is an invertible
    arrow of the target category; None otherwise."""
    a = nt.source.target_cat
    by_ends = arrows_by_ends(a)
    comps = {}
    for c in a.base.objects:
        stage = {}
        for x, h in nt.component.components[c].items():
            s, t = a.s_at(c, h), a.t_at(c, h)
            inv = next((k for k in by_ends[c].get((t, s), ())
                        if a.comp_at(c, k, h) == a.id_at(c, s)
                        and a.comp_at(c, h, k) == a.id_at(c, t)), None)
            if inv is None:
                return None
            stage[x] = inv
        comps[c] = stage
    return InternalNatTrans(nt.target, nt.source,
                            PresheafMap(nt.component.source, a.arr, comps))


def nat_is_iso(nt: InternalNatTrans) -> bool:
    """Whether a transformation is a natural isomorphism componentwise."""
    return nat_inverse(nt) is not None


# ---------------------------------------------------------------------------
# adjunction checks


def adjunction_check(l: InternalFunctor, r: InternalFunctor,
                     unit: InternalNatTrans, counit: InternalNatTrans) -> list[str]:
    """Both triangle identities, component by component: at every stage c,
    ``counit(l x) . l(unit x) = id(l x)`` for each object ``x`` of the
    source of ``l``, and ``r(counit y) . unit(r y) = id(r y)`` for each
    object ``y`` of the source of ``r``.

    These are the components of ``(counit l) . (l unit) = 1_l`` and
    ``(r counit) . (unit r) = 1_r``. Once the functor endpoints are right,
    the whiskered composites have the right ends by associativity, so they
    are not built; components whose presheaves do not meet, and a pair that
    does not compose, raise ``PreconditionError`` as building them would."""
    out = []
    a, b = l.source_cat, l.target_cat
    if r.source_cat != b or r.target_cat != a:
        return ["functors are not opposed"]
    if unit.source != identity_functor(a) or unit.target != compose_functors(r, l):
        out.append("unit endpoints are wrong")
    if counit.source != compose_functors(l, r) or counit.target != identity_functor(b):
        out.append("counit endpoints are wrong")
    if out:
        return out
    if counit.component.source != l.f0.target or unit.component.target != l.f1.source:
        raise PreconditionError("composition endpoint mismatch")
    first = unit.component.source == l.f0.source
    for c in b.base.objects:
        units = unit.component.components[c]
        first &= len(units) == len(l.f0.components[c])
        for x, h in units.items():
            lx = l.on_obj(c, x)
            first &= b.comp_at(c, counit.at(c, lx), l.on_arr(c, h)) == b.id_at(c, lx)
    if not first:
        out.append("first triangle identity fails")
    if counit.component.target != r.f1.source or unit.component.source != r.f0.target:
        raise PreconditionError("composition endpoint mismatch")
    second = True
    for c in a.base.objects:
        for y, ry in r.f0.components[c].items():
            second &= a.comp_at(c, r.on_arr(c, counit.at(c, y)), unit.at(c, ry)) == a.id_at(c, ry)
    if not second:
        out.append("second triangle identity fails")
    return out


def dis_u_ind_adjunctions(x: Presheaf, a: InternalCategory) -> dict:
    """Hom-set evidence that discrete is left adjoint and indiscrete right
    adjoint to the objects-object functor; returns the counted bijections."""
    dis_x = discrete(x)
    ind_x = indiscrete(x)
    functors_from_dis = enumerate_functors(dis_x, a)
    maps_from_x = enumerate_maps(x, a.obj)
    functors_to_ind = enumerate_functors(a, ind_x)
    maps_to_x = enumerate_maps(a.obj, x)
    # In both directions the object part is the whole functor: the object
    # carriers of discrete(x) and indiscrete(x) are x itself.
    left_ok = (sorted((fn.f0.components for fn in functors_from_dis), key=repr) ==
               sorted((m.components for m in maps_from_x), key=repr))
    right_ok = (sorted((fn.f0.components for fn in functors_to_ind), key=repr) ==
                sorted((m.components for m in maps_to_x), key=repr))
    return {
        "left": {"functors": len(functors_from_dis), "maps": len(maps_from_x),
                 "bijection": left_ok},
        "right": {"functors": len(functors_to_ind), "maps": len(maps_to_x),
                  "bijection": right_ok},
    }
