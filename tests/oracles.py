"""Reference operations the tests check the engine against.

Nothing in ``intcat`` calls these: the 2-cell operations are the reference
for the componentwise triangle check of ``core.adjunction_check``, and
``enumerate_nats`` searches every transformation and checks each square
elementwise, the reference for the arrows of a functor category.
"""

from intcat.ambient import PreconditionError, PresheafMap, enumerate_maps
from intcat.core import (
    InternalFunctor, InternalNatTrans, arrows_by_ends, compose_functors,
)


def vertical_compose(beta: InternalNatTrans, alpha: InternalNatTrans) -> InternalNatTrans:
    """beta after alpha (componentwise composition in the target)."""
    if alpha.target != beta.source:
        raise PreconditionError("vertical composition endpoint mismatch")
    b = alpha.source.target_cat
    comps = {c: {x: b.comp_at(c, beta.at(c, x), alpha.at(c, x))
                 for x in alpha.component.components[c]}
             for c in b.base.objects}
    return InternalNatTrans(alpha.source, beta.target,
                            PresheafMap(alpha.component.source, b.arr, comps))


def whisker_left(alpha: InternalNatTrans, l: InternalFunctor) -> InternalNatTrans:
    """Precompose both functors with l: components are alpha at l of each object."""
    if l.target_cat != alpha.source.source_cat:
        raise PreconditionError("whiskering endpoint mismatch")
    return InternalNatTrans(
        compose_functors(alpha.source, l), compose_functors(alpha.target, l),
        l.f0.then(alpha.component))


def whisker_right(r: InternalFunctor, alpha: InternalNatTrans) -> InternalNatTrans:
    """r applied to alpha: components r(alpha a)."""
    if alpha.source.target_cat != r.source_cat:
        raise PreconditionError("whiskering endpoint mismatch")
    return InternalNatTrans(
        compose_functors(r, alpha.source), compose_functors(r, alpha.target),
        alpha.component.then(r.f1))


def horizontal_compose(beta: InternalNatTrans, alpha: InternalNatTrans) -> InternalNatTrans:
    """Godement product: beta (between functors B -> C) alongside alpha (A -> B)."""
    return vertical_compose(whisker_left(beta, alpha.target),
                            whisker_right(beta.source, alpha))


def nat_squares_hold(nt: InternalNatTrans) -> bool:
    """Whether every naturality square commutes, composed elementwise."""
    f, g = nt.source, nt.target
    a, b = f.source_cat, f.target_cat
    return all(b.comp_at(c, g.on_arr(c, h), nt.at(c, a.s_at(c, h))) ==
               b.comp_at(c, nt.at(c, a.t_at(c, h)), f.on_arr(c, h))
               for c in a.base.objects for h in a.arr.at(c))


def enumerate_nats(f: InternalFunctor, g: InternalFunctor) -> list:
    """All natural transformations f -> g between parallel functors."""
    a, b = f.source_cat, f.target_cat
    by_ends = arrows_by_ends(b)

    def allowed(c, x):
        return by_ends[c].get((f.on_obj(c, x), g.on_obj(c, x)), ())

    return [nt for nt in (InternalNatTrans(f, g, comp)
                          for comp in enumerate_maps(a.obj, b.arr, allowed=allowed))
            if nat_squares_hold(nt)]
