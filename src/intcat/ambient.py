"""The ambient category: finite presheaves over a finite index category.

Everything is an explicit finite table. Objects are presheaves (a carrier
tuple per index object, a contravariant action per index arrow), arrows are
natural families of functions, and each finite-limit construction returns a
chosen cone whose apex elements are named by their leg values, so that one
mediator serves them all. Setting the index category to the one-object,
one-arrow base recovers finite sets.

Conventions
-----------
* An index arrow ``u`` with ``src[u] = a`` and ``tgt[u] = b`` acts on a
  presheaf ``X`` by ``X.action[u] : X(b) -> X(a)``.
* Composition tables are keyed ``(g, f)`` where ``f`` is applied first:
  ``compose[(g, f)] = g after f`` and needs ``src[g] == tgt[f]``.
* A generalized element at stage ``c`` is a family label keyed ``(u, x)``
  for every arrow ``u`` into c and element ``x`` at ``src u``. This module
  owns the format: ``family_keys`` orders its keys, ``stage_family``
  builds one, ``family_solver`` searches for them, ``shift_family`` moves
  one along a base arrow, ``family_at_identity`` reads it back, and
  ``point_of`` assembles global elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from .labels import fam_dict, fam_in_order, sort_key


class PreconditionError(ValueError):
    """An operation was applied to data it is not defined on."""


# ---------------------------------------------------------------------------
# index categories


@dataclass(eq=True)
class IndexCategory:
    """A finite category presented by total tables.

    ``objects`` and ``arrows`` fix the canonical enumeration order used by
    every construction built over this base.
    """

    objects: tuple
    arrows: tuple
    src: dict
    tgt: dict
    identity: dict          # object -> identity arrow
    compose: dict           # (g, f) with src g = tgt f -> g after f

    @cached_property
    def _into(self) -> dict:
        groups: dict = {}
        for u in self.arrows:
            groups.setdefault(self.tgt.get(u), []).append(u)
        return {o: tuple(us) for o, us in groups.items()}

    def arrows_into(self, c) -> tuple:
        """The arrows with target ``c``, in arrow order; the whole by-target
        index is built in one pass on first call and kept. An arrow without
        a target is filed under ``None``, so ``validate`` can read the index
        of a malformed table."""
        return self._into.get(c, ())

    def comp(self, g, f):
        return self.compose[(g, f)]

    def is_identity(self, u) -> bool:
        return self.identity.get(self.src[u]) == u

    def validate(self) -> list[str]:
        """Exhaustively check the category laws; violations name the data.

        The composable pairs ``(g, f)`` are visited through ``arrows_into``,
        by ``g`` then ``f`` in arrow order; a composite given for a pair of
        listed arrows that do not compose is named after them, in the order
        of the ``compose`` keys.
        """
        out = []
        for o in self.objects:
            i = self.identity.get(o)
            if i is None:
                out.append(f"object {o!r} has no identity arrow")
                continue
            if i not in self.arrows:
                out.append(f"identity of {o!r} is not a listed arrow")
            elif i not in self.src or i not in self.tgt:
                out.append(f"identity of {o!r} lacks endpoints")
            elif not (self.src[i] == o and self.tgt[i] == o):
                out.append(f"identity of {o!r} has endpoints {self.src[i]!r}->{self.tgt[i]!r}")
        for u in self.arrows:
            if u not in self.src or u not in self.tgt:
                out.append(f"arrow {u!r} lacks endpoints")
            elif self.src[u] not in self.objects or self.tgt[u] not in self.objects:
                out.append(f"arrow {u!r} has endpoints outside the object list")
        for g in self.arrows:
            for f in self.arrows_into(self.src.get(g)):
                gf = self.compose.get((g, f))
                if gf is None:
                    out.append(f"missing composite for ({g!r},{f!r})")
                    continue
                if gf not in self.arrows:
                    out.append(f"composite of ({g!r},{f!r}) is not a listed arrow")
                elif not (self.src.get(gf) == self.src.get(f)
                          and self.tgt.get(gf) == self.tgt.get(g)):
                    out.append(f"composite of ({g!r},{f!r}) has wrong endpoints")
        listed = set(self.arrows)
        for g, f in self.compose:
            if g in listed and f in listed and self.src.get(g) != self.tgt.get(f):
                out.append(f"composite defined for non-composable pair ({g!r},{f!r})")
        for u in self.arrows:
            if u not in self.src or u not in self.tgt:
                continue
            i_s, i_t = self.identity.get(self.src[u]), self.identity.get(self.tgt[u])
            if i_s is not None and self.compose.get((u, i_s)) != u:
                out.append(f"right unit law fails at {u!r}")
            if i_t is not None and self.compose.get((i_t, u)) != u:
                out.append(f"left unit law fails at {u!r}")
        for h in self.arrows:
            for g in self.arrows_into(self.src.get(h)):
                hg = self.compose.get((h, g))
                for f in self.arrows_into(self.src.get(g)):
                    left = self.compose.get((hg, f))
                    right = self.compose.get((h, self.compose.get((g, f))))
                    if left != right:
                        out.append(f"associativity fails at ({h!r},{g!r},{f!r})")
        return out

    @staticmethod
    def finset() -> "IndexCategory":
        """The one-object, one-arrow base: presheaves over it are finite sets."""
        return IndexCategory(
            objects=("pt",), arrows=("id_pt",),
            src={"id_pt": "pt"}, tgt={"id_pt": "pt"},
            identity={"pt": "id_pt"}, compose={("id_pt", "id_pt"): "id_pt"})

    @staticmethod
    def discrete(labels) -> "IndexCategory":
        labels = tuple(labels)
        ids = {o: ("id", o) for o in labels}
        return IndexCategory(
            objects=labels, arrows=tuple(ids[o] for o in labels),
            src={ids[o]: o for o in labels}, tgt={ids[o]: o for o in labels},
            identity=ids, compose={(ids[o], ids[o]): ids[o] for o in labels})

    @staticmethod
    def poset(elements, pairs) -> "IndexCategory":
        """Poset as a category: one arrow ``(a, b)`` per related pair a <= b.

        ``pairs`` may be any generating relation; its reflexive-transitive
        closure is taken. Antisymmetry is not enforced here (validate the
        result if the input is untrusted).
        """
        elements = tuple(elements)
        succ = order_closure(elements, pairs)
        arrows = tuple((a, b) for a in elements for b in elements if b in succ[a])
        into: dict = {}
        for f in arrows:
            into.setdefault(f[1], []).append(f)
        return IndexCategory(
            objects=elements, arrows=arrows,
            src={(a, b): a for a, b in arrows}, tgt={(a, b): b for a, b in arrows},
            identity={a: (a, a) for a in elements},
            compose={((b, c), f): (f[0], c) for (b, c) in arrows for f in into[b]})

    @staticmethod
    def chain(n: int) -> "IndexCategory":
        objs = tuple(f"c{i}" for i in range(n))
        return IndexCategory.poset(objs, [(objs[i], objs[i + 1]) for i in range(n - 1)])


def order_closure(elements, pairs) -> dict:
    """The reflexive-transitive closure of the relation ``pairs``: each of
    ``elements`` and of the ends of ``pairs`` to the set of those it
    relates to, found by a search from each. ``IndexCategory.poset`` takes
    one arrow per related pair; a parser counts them here, before the
    composition table is built."""
    up: dict = {a: [] for a in elements}
    for a, b in pairs:
        up.setdefault(a, []).append(b)
        up.setdefault(b, [])
    succ = {}
    for a in up:
        seen, todo = {a}, [a]
        while todo:
            for b in up[todo.pop()]:
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        succ[a] = seen
    return succ


@dataclass(eq=True)
class IndexFunctor:
    """A functor between index categories, given by object and arrow tables."""

    source: IndexCategory
    target: IndexCategory
    on_obj: dict
    on_arr: dict

    def validate(self) -> list[str]:
        out = []
        for o in self.source.objects:
            if o not in self.on_obj or self.on_obj[o] not in self.target.objects:
                out.append(f"object {o!r} not mapped into the target")
        for u in self.source.arrows:
            v = self.on_arr.get(u)
            if v is None or v not in self.target.arrows:
                out.append(f"arrow {u!r} not mapped into the target")
                continue
            if self.target.src[v] != self.on_obj.get(self.source.src[u]) or \
               self.target.tgt[v] != self.on_obj.get(self.source.tgt[u]):
                out.append(f"arrow {u!r} endpoints not preserved")
        for o in self.source.objects:
            if self.on_arr.get(self.source.identity[o]) != self.target.identity.get(self.on_obj.get(o)):
                out.append(f"identity at {o!r} not preserved")
        for (g, f), gf in self.source.compose.items():
            img = self.target.compose.get((self.on_arr.get(g), self.on_arr.get(f)))
            if img != self.on_arr.get(gf):
                out.append(f"composition not preserved at ({g!r},{f!r})")
        return out


# ---------------------------------------------------------------------------
# presheaves and their maps


@dataclass(eq=True)
class Presheaf:
    """A finite presheaf: carriers indexed by objects, actions by arrows."""

    base: IndexCategory
    carrier: dict           # index object -> tuple of element labels
    action: dict            # index arrow u -> {element at tgt u -> element at src u}
    _keys: dict = field(default_factory=dict, compare=False, repr=False)  # by family_keys

    def at(self, c) -> tuple:
        return self.carrier[c]

    def restrict(self, u, x):
        """Act by index arrow ``u`` on element ``x`` living at ``tgt(u)``."""
        return self.action[u][x]

    def validate(self) -> list[str]:
        out = []
        base = self.base
        for c in base.objects:
            if c not in self.carrier:
                out.append(f"no carrier at {c!r}")
            elif len(set(self.carrier[c])) != len(self.carrier[c]):
                out.append(f"duplicate labels at {c!r}")
        for u in base.arrows:
            a, b = base.src[u], base.tgt[u]
            act = self.action.get(u)
            if act is None:
                out.append(f"no action for {u!r}")
                continue
            if set(act.keys()) != set(self.carrier.get(b, ())):
                out.append(f"action of {u!r} not defined on exactly the carrier at {b!r}")
                continue
            if not set(act.values()) <= set(self.carrier.get(a, ())):
                out.append(f"action of {u!r} leaves the carrier at {a!r}")
        for o in base.objects:
            act = self.action.get(base.identity[o], {})
            if any(act.get(x) != x for x in self.carrier.get(o, ())):
                out.append(f"identity at {o!r} does not act as identity")
        for (g, f), gf in base.compose.items():
            if base.is_identity(g) and base.is_identity(f):
                continue
            act_g, act_f, act_gf = self.action.get(g, {}), self.action.get(f, {}), self.action.get(gf, {})
            for x in self.carrier.get(base.tgt[g], ()):
                if act_gf.get(x) != act_f.get(act_g.get(x)):
                    out.append(f"action not functorial at ({g!r},{f!r}) on {x!r}")
                    break
        return out


@dataclass(eq=True)
class PresheafMap:
    """A natural family of functions between presheaves on the same base."""

    source: Presheaf
    target: Presheaf
    components: dict        # index object -> {source element -> target element}

    def then(self, other: "PresheafMap") -> "PresheafMap":
        """Diagram-order composition: ``self`` first, then ``other``."""
        if other.source != self.target:
            raise PreconditionError("composition endpoint mismatch")
        comps = {c: {x: other.components[c][y] for x, y in cc.items()}
                 for c, cc in self.components.items()}
        return PresheafMap(self.source, other.target, comps)

    @staticmethod
    def identity(x: Presheaf) -> "PresheafMap":
        return PresheafMap(x, x, {c: {e: e for e in x.at(c)} for c in x.base.objects})

    @staticmethod
    def entry(x: Presheaf, y: Presheaf, i: int) -> "PresheafMap":
        """The map sending each tuple element of ``x`` to its entry ``i``."""
        return PresheafMap(x, y, {c: {e: e[i] for e in x.at(c)} for c in x.base.objects})

    def validate(self) -> list[str]:
        out = []
        if self.source.base != self.target.base:
            return ["source and target live over different bases"]
        base = self.source.base
        for c in base.objects:
            comp = self.components.get(c)
            if comp is None:
                out.append(f"no component at {c!r}")
                continue
            if set(comp.keys()) != set(self.source.at(c)):
                out.append(f"component at {c!r} not defined on exactly the carrier")
            elif not set(comp.values()) <= set(self.target.at(c)):
                out.append(f"component at {c!r} leaves the target carrier")
        for u in base.arrows:
            if base.is_identity(u):
                continue
            a, b = base.src[u], base.tgt[u]
            for x in self.source.at(b):
                lhs = self.components.get(a, {}).get(self.source.restrict(u, x))
                rhs_y = self.components.get(b, {}).get(x)
                rhs = self.target.restrict(u, rhs_y) if rhs_y is not None else None
                if lhs != rhs:
                    out.append(f"naturality fails along {u!r} at {x!r}")
                    break
        return out


# ---------------------------------------------------------------------------
# chosen finite limits


@dataclass(eq=True)
class LimitCone:
    """A chosen limit: apex and projection legs.

    An apex element is named by its leg values: their tuple, or the single
    value of a one-leg limit. ``mediate`` takes the legs of a competing cone
    (maps out of one common presheaf) and names each of its elements so;
    the cone factors through the apex exactly when every name is an apex
    element, and the factorization is then unique.
    """

    apex: Presheaf
    legs: tuple

    def mediate(self, legs) -> PresheafMap:
        legs = tuple(legs)
        if len(legs) != len(self.legs):
            raise PreconditionError("wrong number of cone legs")
        wedge = legs[0].source if legs else None
        for leg, mine in zip(legs, self.legs):
            if leg.source != wedge:
                raise PreconditionError("cone legs start at different presheaves")
            if leg.target != mine.target:
                raise PreconditionError("cone leg lands in the wrong presheaf")
        base = self.apex.base
        comps = {}
        for c in base.objects:
            elements = self.apex.action[base.identity[c]]
            at = [leg.components[c] for leg in legs]
            cc = comps[c] = {}
            for w in wedge.at(c):
                e = at[0][w] if len(at) == 1 else tuple(m[w] for m in at)
                if e not in elements:
                    raise PreconditionError(
                        f"cone does not factor through the apex at {c!r}:{w!r}")
                cc[w] = e
        return PresheafMap(wedge, self.apex, comps)


def terminal(base: IndexCategory) -> Presheaf:
    """The terminal presheaf: one point everywhere."""
    return Presheaf(
        base,
        {c: ("*",) for c in base.objects},
        {u: {"*": "*"} for u in base.arrows})


def initial(base: IndexCategory) -> Presheaf:
    """The empty presheaf."""
    return Presheaf(base, {c: () for c in base.objects}, {u: {} for u in base.arrows})


def unique_to_terminal(x: Presheaf) -> PresheafMap:
    t = terminal(x.base)
    return PresheafMap(x, t, {c: {e: "*" for e in x.at(c)} for c in x.base.objects})


def unique_from_initial(x: Presheaf) -> PresheafMap:
    return PresheafMap(initial(x.base), x, {c: {} for c in x.base.objects})


def product(x: Presheaf, y: Presheaf) -> LimitCone:
    """Binary product, elements labeled ``(x, y)``: the pullback over the
    terminal presheaf."""
    if x.base != y.base:
        raise PreconditionError("product factors live over different bases")
    return pullback(unique_to_terminal(x), unique_to_terminal(y))


def pullback(f: PresheafMap, g: PresheafMap) -> LimitCone:
    """Pullback of f : X -> Z against g : Y -> Z, elements ``(x, y)``."""
    if f.target != g.target:
        raise PreconditionError("pullback arrows do not share a codomain")
    x, y = f.source, g.source
    base = x.base
    carrier = {}
    for c in base.objects:
        buckets: dict = {}
        for b in y.at(c):
            buckets.setdefault(g.components[c][b], []).append(b)
        carrier[c] = tuple((a, b) for a in x.at(c)
                           for b in buckets.get(f.components[c][a], ()))
    action = {u: {(a, b): (x.action[u][a], y.action[u][b])
                  for (a, b) in carrier[base.tgt[u]]}
              for u in base.arrows}
    apex = Presheaf(base, carrier, action)
    return LimitCone(apex, (PresheafMap.entry(apex, x, 0), PresheafMap.entry(apex, y, 1)))


def subpresheaf(x: Presheaf, keep: Callable) -> tuple:
    """The subpresheaf of elements with ``keep(c, e)`` true, plus its inclusion.

    The predicate must be closed under the action; validate the result when
    that is not known in advance.
    """
    base = x.base
    carrier = {c: tuple(e for e in x.at(c) if keep(c, e)) for c in base.objects}
    action = {u: {e: x.action[u][e] for e in carrier[base.tgt[u]]} for u in base.arrows}
    sub = Presheaf(base, carrier, action)
    inc = PresheafMap(sub, x, {c: {e: e for e in carrier[c]} for c in base.objects})
    return sub, inc


def equalizer(f: PresheafMap, g: PresheafMap) -> LimitCone:
    """Equalizer of a parallel pair f, g : X -> Y; elements keep their labels,
    and the inclusion is the one leg."""
    if f.source != g.source or f.target != g.target:
        raise PreconditionError("equalizer needs a parallel pair")
    apex, inc = subpresheaf(
        f.source, lambda c, e: f.components[c][e] == g.components[c][e])
    return LimitCone(apex, (inc,))


def coproduct(x: Presheaf, y: Presheaf):
    """Binary coproduct; returns (apex, left injection, right injection)."""
    if x.base != y.base:
        raise PreconditionError("coproduct factors live over different bases")
    base = x.base
    carrier = {c: tuple(("inl", a) for a in x.at(c)) + tuple(("inr", b) for b in y.at(c))
               for c in base.objects}
    action = {}
    for u in base.arrows:
        act = {}
        for e in carrier[base.tgt[u]]:
            tag, a = e
            act[e] = (tag, (x if tag == "inl" else y).action[u][a])
        action[u] = act
    apex = Presheaf(base, carrier, action)
    inl = PresheafMap(x, apex, {c: {a: ("inl", a) for a in x.at(c)} for c in base.objects})
    inr = PresheafMap(y, apex, {c: {b: ("inr", b) for b in y.at(c)} for c in base.objects})
    return apex, inl, inr


# ---------------------------------------------------------------------------
# natural-family enumeration (the engine behind exponentials, points, cones)


def _solve(keys: list, edges: dict, candidates: Callable,
           check: Optional[Callable], emit: Callable) -> None:
    """Backtracking with constraint propagation: the engine's one solver.

    ``edges[k]`` lists ``(forced key, action table)`` pairs: giving ``k`` the
    value ``w`` forces ``table[w]`` on the forced key. Keys are decided in
    list order from ``candidates(*k)``; a key already forced is skipped. Every
    complete, consistent assignment that passes ``check`` (when given) is
    handed to ``emit``, which must copy what it keeps; the search stops
    when ``emit`` returns a true value.
    """
    assignment = {}
    n = len(keys)

    def rec(i):
        while i < n and keys[i] in assignment:
            i += 1
        if i == n:
            return (check is None or check(assignment)) and emit(assignment)
        key = keys[i]
        for val in candidates(*key):
            trail = []
            todo = [(key, val)]
            while todo:
                k, w = todo.pop()
                if k in assignment:
                    if assignment[k] != w:
                        break
                    continue
                assignment[k] = w
                trail.append(k)
                for forced, table in edges[k]:
                    todo.append((forced, table[w]))
            else:
                if rec(i + 1):
                    return True
            for k in trail:
                del assignment[k]
        return False

    rec(0)


def family_solver(base, c, dom: Presheaf, cod: Presheaf) -> Callable:
    """The search for natural families at stage ``c``, keyed
    (u : c' -> c, e in dom(c')), set up once for any number of searches.

    A family assigns to each key a value in cod(src u) subject to the
    restriction law ``phi(u after v, dom(v)(e)) = cod(v)(phi(u, e))`` —
    enforced by constraint propagation during backtracking.

    Returns ``solve(allowed=None, check=None)``: ``allowed(u, e)`` restricts
    candidate values per key; ``check(table)`` accepts or rejects a
    completed assignment (for relational laws such as composition
    preservation). Each search returns family labels in canonical order.
    """
    keys, edges = [], {}
    for u in base.arrows_into(c):
        a = base.src[u]
        below = [v for v in base.arrows_into(a) if not base.is_identity(v)]
        for e in dom.at(a):
            keys.append((u, e))
            edges[(u, e)] = [((base.comp(u, v), dom.action[v][e]), cod.action[v])
                             for v in below] if below else ()
    order = family_keys(base, c, dom)

    def every(u, e):
        return cod.at(base.src[u])

    def solve(allowed: Optional[Callable] = None,
              check: Optional[Callable] = None) -> list:
        results = []
        _solve(keys, edges, allowed or every, check,
               lambda table: results.append(fam_in_order((k, table[k]) for k in order)))
        if len(results) > 1:
            results.sort(key=sort_key)
        return results

    return solve


def family_space(base, c, dom: Presheaf, cod: Presheaf,
                 allowed: Optional[Callable] = None) -> list:
    """All natural families at stage ``c``: one search of ``family_solver``."""
    return family_solver(base, c, dom, cod)(allowed)


def family_keys(base: IndexCategory, c, dom: Presheaf) -> tuple:
    """The keys ``(u, x)`` of a family at stage ``c``, ``u`` an arrow into c
    and ``x`` an element of ``dom`` at the source of u, in canonical
    ``sort_key`` order. Built on first read and kept on ``dom`` when ``dom``
    lives over ``base`` itself; shared, not to be mutated."""
    own = dom.base is base
    keys = dom._keys.get(c) if own else None
    if keys is None:
        keys = tuple(sorted(((u, x) for u in base.arrows_into(c)
                             for x in dom.at(base.src[u])), key=sort_key))
        if own:
            dom._keys[c] = keys
    return keys


def stage_family(base: IndexCategory, c, dom: Presheaf, value: Callable) -> tuple:
    """The family at stage ``c`` with ``value(u, x)`` at each key ``(u, x)``:
    ``u`` an arrow into c and ``x`` an element of ``dom`` at the source of u.

    This is the engine's one encoding of a generalized element at stage c;
    the entries come in the canonical key order of ``family_keys``, so the
    label does not depend on the order in which the keys are visited.
    """
    return fam_in_order((k, value(*k)) for k in family_keys(base, c, dom))


def shift_family(base: IndexCategory, w, dom: Presheaf, label) -> tuple:
    """Reindex a family at stage ``tgt w`` along ``w`` by precomposition.
    Along an identity that is ``label`` itself: a presheaf acts by the
    identity there, and labels list their keys in canonical order."""
    if base.is_identity(w):
        return label
    table = fam_dict(label)
    return stage_family(base, base.src[w], dom,
                        lambda u, x: table[(base.comp(w, u), x)])


def family_at_identity(base: IndexCategory, c, label, dom: Presheaf) -> dict:
    """A family at stage ``c`` read at the identity key, in ``dom(c)`` order."""
    table = fam_dict(label)
    i = base.identity[c]
    return {x: table[(i, x)] for x in dom.at(c)}


def exponential(x: Presheaf, y: Presheaf) -> Presheaf:
    """The exponential presheaf: stage c holds the natural families from
    (arrows into c) x X to Y. Over the one-object base this is the full
    function space, so its size is |Y(pt)| ** |X(pt)|."""
    if x.base != y.base:
        raise PreconditionError("exponential factors live over different bases")
    base = x.base
    carrier = {c: tuple(family_space(base, c, x, y)) for c in base.objects}
    action = {w: {phi: shift_family(base, w, x, phi) for phi in carrier[base.tgt[w]]}
              for w in base.arrows}
    return Presheaf(base, carrier, action)


def evaluation_map(x: Presheaf, y: Presheaf, expo: Presheaf) -> PresheafMap:
    """The counit (Y^X) x X -> Y of the exponential ``expo``: the uncurrying
    of its identity."""
    return uncurry(PresheafMap.identity(expo), x, y)


def curry(f: PresheafMap, z: Presheaf, x: Presheaf) -> PresheafMap:
    """Transpose f : Z x X -> Y to Z -> Y^X. ``f`` must start at the
    canonical product of ``z`` and ``x``."""
    if f.source != product(z, x).apex:
        raise PreconditionError("map to curry does not start at the product")
    base = z.base
    y = f.target
    expo = exponential(x, y)

    def transpose(c, t):
        return stage_family(base, c, x,
                            lambda u, e: f.components[base.src[u]][(z.action[u][t], e)])

    comps = {c: {t: transpose(c, t) for t in z.at(c)} for c in base.objects}
    return PresheafMap(z, expo, comps)


def uncurry(g: PresheafMap, x: Presheaf, y: Presheaf) -> PresheafMap:
    """Transpose g : Z -> Y^X back to Z x X -> Y."""
    z = g.source
    base = z.base
    cone = product(z, x)
    comps = {}
    for c in base.objects:
        at_id = {t: family_at_identity(base, c, g.components[c][t], x) for t in z.at(c)}
        comps[c] = {(t, e): at_id[t][e] for (t, e) in cone.apex.at(c)}
    return PresheafMap(cone.apex, y, comps)


# ---------------------------------------------------------------------------
# maps, points, isomorphisms


def enumerate_maps(x: Presheaf, y: Presheaf,
                   allowed: Optional[Callable] = None) -> list:
    """All natural maps x -> y, in a deterministic order.

    ``allowed(c, e)`` optionally restricts the candidate values of element
    ``e`` at index object ``c``. Backtracking propagates naturality: fixing
    the image of ``e`` at ``c`` forces the image of every restriction of
    ``e`` further down the base.
    """
    results = []
    _search_maps(x, y, allowed, results.append)
    return results


def first_map(x: Presheaf, y: Presheaf,
              allowed: Optional[Callable] = None) -> Optional[PresheafMap]:
    """The map ``enumerate_maps`` lists first, or None; no other is listed."""
    found = []
    _search_maps(x, y, allowed, lambda m: found.append(m) or True)
    return found[0] if found else None


def _search_maps(x: Presheaf, y: Presheaf, allowed: Optional[Callable],
                 emit: Callable) -> None:
    """Hand ``emit`` the maps x -> y in turn until it returns a true value."""
    base = x.base
    keys, edges = [], {}
    for c in base.objects:
        below = [u for u in base.arrows_into(c) if not base.is_identity(u)]
        for e in x.at(c):
            keys.append((c, e))
            edges[(c, e)] = [((base.src[u], x.action[u][e]), y.action[u])
                             for u in below] if below else ()
    candidates = allowed or (lambda c, e: y.at(c))

    def found(assignment):
        comps = {c: {} for c in base.objects}
        for (c, e), w in assignment.items():
            comps[c][e] = w
        return emit(PresheafMap(x, y, comps))

    _solve(keys, edges, candidates, None, found)


def points(x: Presheaf) -> list:
    """Global elements: maps out of the terminal presheaf."""
    return enumerate_maps(terminal(x.base), x)


def point_label(p: PresheafMap):
    """Canonical label of a global element."""
    return ("pt", tuple((c, p.components[c]["*"]) for c in p.source.base.objects))


def point_of(x: Presheaf, values: dict) -> PresheafMap:
    """The global element of ``x`` with the given value at each index object."""
    return PresheafMap(terminal(x.base), x,
                       {c: {"*": values[c]} for c in x.base.objects})


def inverse(f: PresheafMap) -> Optional[PresheafMap]:
    """The inverse map when every component is a bijection, else None."""
    comps = {}
    for c in f.source.base.objects:
        fwd = f.components[c]
        if len(set(fwd.values())) != len(fwd) or set(fwd.values()) != set(f.target.at(c)):
            return None
        comps[c] = {v: k for k, v in fwd.items()}
    return PresheafMap(f.target, f.source, comps)


def is_iso(f: PresheafMap) -> bool:
    return inverse(f) is not None


# ---------------------------------------------------------------------------
# representables, categories of elements, reindexing


def representable(base: IndexCategory, c) -> Presheaf:
    """The representable presheaf of arrows into ``c``."""
    carrier = {a: tuple(u for u in base.arrows_into(c) if base.src[u] == a)
               for a in base.objects}
    action = {v: {u: base.comp(u, v) for u in carrier[base.tgt[v]]} for v in base.arrows}
    return Presheaf(base, carrier, action)


def elements_category(i: Presheaf):
    """The category of elements of ``i`` and its projection to the base.

    Objects are pairs (index object, element); an arrow ``(u, j)`` runs from
    ``(src u, i(u)(j))`` to ``(tgt u, j)``. Presheaves over this category
    realize the slice over ``i``.
    """
    base = i.base
    objects = tuple((c, e) for c in base.objects for e in i.at(c))
    arrows = tuple((u, j) for u in base.arrows for j in i.at(base.tgt[u]))
    src = {(u, j): (base.src[u], i.action[u][j]) for (u, j) in arrows}
    tgt = {(u, j): (base.tgt[u], j) for (u, j) in arrows}
    identity = {(c, e): (base.identity[c], e) for (c, e) in objects}
    compose = {}
    site = IndexCategory(objects, arrows, src, tgt, identity, compose)
    # Each arrow composes only with the arrows into its source, read from
    # the site's own by-target index in arrow order.
    base_compose = base.compose
    for g in arrows:
        v, k = g
        for f in site.arrows_into(src[g]):
            compose[(g, f)] = (base_compose[(v, f[0])], k)
    proj = IndexFunctor(site, base,
                        {(c, e): c for (c, e) in objects},
                        {(u, j): u for (u, j) in arrows})
    return site, proj


def restrict(p: IndexFunctor, x: Presheaf) -> Presheaf:
    """Reindex a presheaf along an index functor (labels are preserved)."""
    return Presheaf(
        p.source,
        {d: x.carrier[p.on_obj[d]] for d in p.source.objects},
        {e: x.action[p.on_arr[e]] for e in p.source.arrows})


def restrict_map(p: IndexFunctor, f: PresheafMap) -> PresheafMap:
    return PresheafMap(restrict(p, f.source), restrict(p, f.target),
                       {d: f.components[p.on_obj[d]] for d in p.source.objects})
