"""Reference operations the tests check the engine against.

Nothing in ``intcat`` calls these: the 2-cell operations are the reference
for the componentwise triangle check of ``core.adjunction_check``,
``enumerate_nats`` searches every transformation and checks each square
elementwise, the reference for the arrows of a functor category, and the
last three are the references for ``intcat.fixtures``: every monotone map,
the meet-preserving ones filtered out of them, and the lattice invariant
minimised over every relabelling.
"""

from itertools import permutations

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


def monotone_maps(src, tgt) -> list:
    """All order-preserving maps between one-object-base posetal category
    objects, as internal functors: each element in carrier order tried
    against every target element in carrier order."""
    c = src.base.objects[0]
    xs = list(src.obj.at(c))
    ys = list(tgt.obj.at(c))
    s_hom = {(src.s_at(c, h), src.t_at(c, h)) for h in src.arr.at(c)}
    t_hom = {(tgt.s_at(c, h), tgt.t_at(c, h)): h for h in tgt.arr.at(c)}
    out = []

    def extend(i, table):
        if i == len(xs):
            f1 = {h: t_hom[(table[src.s_at(c, h)], table[src.t_at(c, h)])]
                  for h in src.arr.at(c)}
            out.append(InternalFunctor(
                src, tgt,
                PresheafMap(src.obj, tgt.obj, {c: dict(table)}),
                PresheafMap(src.arr, tgt.arr, {c: f1})))
            return
        x = xs[i]
        for y in ys:
            ok = True
            for j in range(i):
                if (xs[j], x) in s_hom and (table[xs[j]], y) not in t_hom:
                    ok = False
                if (x, xs[j]) in s_hom and (y, table[xs[j]]) not in t_hom:
                    ok = False
                if not ok:
                    break
            if ok:
                table[x] = y
                extend(i + 1, table)
                del table[x]

    extend(0, {})
    return out


def meet_preserving_maps(src, tgt, src_cert, tgt_cert) -> list:
    """The monotone maps that preserve the top and binary meets, filtered
    out of all of them, with images compared through the target
    certificate's skeleton representatives as ``galois_oracle`` does."""
    c = src.base.objects[0]
    rep = tgt_cert.evidence["representative"]
    tmeet = tgt_cert.evidence["meet"]
    kept = []
    for fn in monotone_maps(src, tgt):
        t = fn.f0.components[c]
        if rep[t[src_cert.evidence["top"]]] != tgt_cert.evidence["top"]:
            continue
        if all(rep[t[z]] == tmeet[(rep[t[x]], rep[t[y]])]
               for (x, y), z in src_cert.evidence["meet"].items()):
            kept.append(fn)
    return kept


def canonical_lattice_key(n: int, below) -> tuple:
    """The least relabelled order relation over every permutation."""
    best = None
    rel = {(i, j) for i in range(n) for j in range(n) if below[i][j]}
    for p in permutations(range(n)):
        key = tuple(sorted((p[i], p[j]) for (i, j) in rel))
        if best is None or key < best:
            best = key
    return best
