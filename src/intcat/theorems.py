"""Executable theorems over the certified-limit machinery.

Each operation follows a constructive proof step by step and re-certifies
the result exhaustively at the end, so nothing rests on the argument being
transcribed correctly: the lattice characterization of completeness, the
initial object as the limit of the identity diagram, completeness of
cocone categories by transport, colimits by duality, continuity of
functors, and the adjoint functor theorem with a Galois-connection oracle
to cross-check it in the one-object case. Each adjunction is certified by
``limits.certified_adjunction``; the AFT reads its left adjoint off the
fibre limits with ``limits.mediated_functor``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .labels import sort_key
from .ambient import (
    IndexCategory, PresheafMap, PreconditionError, elements_category, point_of,
)
from .core import (
    InternalCategory, InternalFunctor, InternalNatTrans, arrows_by_ends,
    compose_functors, enumerate_functors, identity_functor, identity_nat,
    initial_cat, restrict_cat, restrict_functor, terminal_cat,
    unique_to_terminal_cat,
)
from .limits import (
    CertificateError, Cocone, CommaCategory, Cone, ConesCategory, Refusal,
    RefusalError, UniversalCertificate, certified_adjunction, certified_limit,
    cocones_category, comma_category, cones_category, connecting_iso,
    indexed_cone_factorization, is_internal_initial,
    mediated_functor, shape_parallel_pair, shape_two, universal_cocone,
)


# ---------------------------------------------------------------------------
# lattice characterization of completeness


@dataclass
class CompletenessCertificate:
    """Evidence that a category object has all limits: in lattice mode a
    top element and a full binary meet table over the posetal skeleton,
    which by finiteness covers every subset."""

    subject: InternalCategory
    mode: str                    # "lattice", the only mode; reports carry it
    evidence: dict

    def leq(self, x, y) -> bool:
        return (self.evidence["representative"][x],
                self.evidence["representative"][y]) in self.evidence["order"]

    def meet_of(self, subset):
        """Fold the binary table; the empty subset yields the top."""
        rep = self.evidence["representative"]
        out = self.evidence["top"]
        for x in subset:
            out = self.evidence["meet"][(rep[x], out)]
        return out


def lattice_completeness_check(a: InternalCategory):
    """Certify completeness of a one-object-base category object by
    exhibiting lattice structure on its posetal skeleton.

    Distinct isomorphic objects are collapsed before judging posetality;
    a hom-set with two arrows refuses outright since no equivalent
    category can shrink it. Binary meets are checked before the top so a
    meetless pair is reported as itself.
    """
    base = a.base
    if len(base.objects) != 1:
        raise PreconditionError("lattice mode needs a one-object base")
    c = base.objects[0]
    objs = list(a.obj.at(c))
    hom = arrows_by_ends(a)[c]
    for x in objs:
        for y in objs:
            n = len(hom.get((x, y), ()))
            if n > 1:
                return Refusal("not_posetal", {"pair": (x, y), "count": n})

    def le(x, y):
        return (x, y) in hom

    rep = {x: min((y for y in objs if le(x, y) and le(y, x)), key=sort_key)
           for x in objs}
    sk = sorted({rep[x] for x in objs}, key=sort_key)
    down = {x: {w for w in sk if le(w, x)} for x in sk}
    meet = {}
    for x in sk:
        for y in sk:
            common = down[x] & down[y]
            lows = [z for z in sk if z in common]
            m = next((z for z in lows if common <= down[z]), None)
            if m is None:
                return Refusal("no_meet", {"subset": (x, y)})
            meet[(x, y)] = m
    top = next((t for t in sk if all(le(x, t) for x in sk)), None)
    if top is None:
        return Refusal("no_meet",
                       {"subset": (), "reason": "no greatest element"})
    order = frozenset((x, y) for x in sk for y in sk if le(x, y))
    return CompletenessCertificate(
        a, "lattice",
        {"stage": c, "top": top, "meet": meet, "skeleton": tuple(sk),
         "representative": rep, "order": order})


# ---------------------------------------------------------------------------
# the initial object as the limit of the identity diagram


@dataclass
class InitialViaLimit:
    """An initial object extracted from the limit of the identity diagram,
    with the adjunction certifying it is left adjoint to the collapse."""

    point: PresheafMap
    initial_certificate: UniversalCertificate
    limit_certificate: UniversalCertificate
    left_functor: InternalFunctor
    unit: InternalNatTrans
    counit: InternalNatTrans


def initial_via_identity_limit(a: InternalCategory,
                               identity_certificate=None) -> InitialViaLimit:
    """Take the limit of the identity diagram and certify that its vertex
    is initial, with the cone legs as the counit of the adjunction against
    the unique functor to the one-object category."""
    dg = identity_functor(a)
    cert = identity_certificate if identity_certificate is not None \
        else certified_limit(dg)
    base = a.base
    cone = cert.candidate
    vpt, legs = cone.vertex, cone.legs.components
    # The leg at the vertex itself must be the identity arrow; by naturality
    # the leg at (u, v u) of stage c is the identity leg of stage src u.
    for c in base.objects:
        v = vpt.components[c]["*"]
        if legs[c][v] != a.id_at(c, v):
            raise CertificateError("identity-limit leg at the vertex is not the identity")

    bang = unique_to_terminal_cat(a)
    tc = bang.target_cat
    ifn = InternalFunctor(tc, a, PresheafMap(tc.obj, a.obj, vpt.components),
                          PresheafMap(tc.arr, a.arr, {c: {"*": a.id_at(c, v["*"])}
                                                      for c, v in vpt.components.items()}))
    unit, counit = certified_adjunction(ifn, bang, {c: {"*": "*"} for c in base.objects},
                                        legs, "initial object via the identity limit")
    icert = is_internal_initial(a, vpt)
    if not isinstance(icert, UniversalCertificate):
        raise CertificateError(f"identity-limit vertex is not initial: {icert}")
    return InitialViaLimit(vpt, icert, cert, ifn, unit, counit)


# ---------------------------------------------------------------------------
# completeness of cocone categories, and colimits by duality


@dataclass
class TransportedLimit:
    """A limit computed inside a cocone category by transporting a limit
    of the composition with the vertex projection."""

    certificate: UniversalCertificate    # limit of the diagram in CoCns
    vertex_cocone: Cocone                # its vertex, decoded
    cones: ConesCategory                 # cones of the diagram within CoCns
    cocones: ConesCategory               # the ambient cocone category
    mediators: PresheafMap               # shape-objects -> mediating arrows


def cocones_limit_transport(cocones: ConesCategory,
                            dprime: InternalFunctor) -> TransportedLimit:
    """Give a cocone category the limit of a diagram ``dprime`` by
    computing the limit after the vertex projection and lifting the
    cocone structure through one indexed factorization.

    The lifted pair is then re-certified as terminal among cones over
    ``dprime``, so the returned certificate does not depend on the
    transport argument being right.
    """
    dg = cocones.diagram
    if dprime.target_cat != cocones.cat:
        raise PreconditionError("second diagram must land in the cocone category")
    base = dg.target_cat.base
    s0 = dg.source_cat.obj
    sprime = dprime.source_cat
    td = compose_functors(cocones.to_base, dprime)
    cert_td = certified_limit(td, "cocone-category limit: composed diagram")

    # Each shape-object element induces a cone over the composed diagram
    # whose legs are the matching legs of every cocone in sight.
    def leg_of(u, w, d):
        c2 = base.src[u]
        return cocones.legs_of(dprime.on_obj(c2, w))[(base.identity[c2], s0.action[u][d])]

    cns_td, cone_td = cert_td.cones, cert_td.candidate
    family = PresheafMap(s0, cns_td.cat.obj, {
        c: {d: cns_td.cone_at(c, dg.f0.components[c][d], lambda u, w: leg_of(u, w, d))
            for d in s0.at(c)}
        for c in base.objects})
    lambdas = indexed_cone_factorization(family, cert_td)

    cocone_l = Cocone(dg, cone_td.vertex, lambdas)
    errs = cocone_l.validate()
    if errs:
        raise CertificateError(f"lifted cocone: {errs}")
    l_point = cocones.encode(cocone_l)

    cns2 = cones_category(dprime)

    # The leg from l to the cocone at w is the cocone arrow (w, l, t).
    l_at, t_at = l_point.components, cone_td.legs.components
    lifted = PresheafMap(sprime.obj, cocones.cat.arr, {
        c: {w: (dprime.on_obj(c, w), l_at[c]["*"], t_at[c][w]) for w in sprime.obj.at(c)}
        for c in base.objects})
    cert = cns2.certify(cns2.encode(Cone(dprime, l_point, lifted)))
    if isinstance(cert, Refusal):
        raise CertificateError(f"lifted limit is not terminal: {cert}")
    return TransportedLimit(cert, cocone_l, cns2, cocones, lambdas)


@dataclass
class ColimitResult:
    """A colimit computed by duality, with the direct search alongside and
    the unique isomorphism connecting the two."""

    certificate: UniversalCertificate
    cocone: Cocone
    transported: TransportedLimit
    direct: UniversalCertificate
    iso: PresheafMap


def colimit_via_duality(dg: InternalFunctor) -> ColimitResult:
    """Build the cocone category, take the limit of its identity diagram,
    extract the initial cocone, and cross-check against the direct
    universal-cocone search."""
    cc = cocones_category(dg)
    tr = cocones_limit_transport(cc, identity_functor(cc.cat))
    iv = initial_via_identity_limit(cc.cat,
                                    identity_certificate=tr.certificate)
    cert = cc._of_universal(iv.initial_certificate)
    direct = universal_cocone(dg, cns=cc)
    if not isinstance(direct, UniversalCertificate):
        raise CertificateError(f"direct search finds no colimit: {direct}")
    iso = connecting_iso(cert, direct)
    return ColimitResult(cert, cert.candidate, tr, direct, iso)


# ---------------------------------------------------------------------------
# continuity


def _image_limit(fn: InternalFunctor, cert: UniversalCertificate):
    """Carry a certified limit cone along ``fn`` and test whether the image
    is terminal among cones over the image diagram: the limit certificate
    of the image, or the refusal naming the obstruction."""
    base, cns = fn.source_cat.base, cert.cones
    img = cones_category(compose_functors(fn, cert.diagram))

    def image(c):
        o = cert.object_at(c)
        t = cns.legs_of(o)
        return img.cone_at(c, fn.f0.components[c][cns.vertex_of(o)],
                           lambda u, d: fn.f1.components[base.src[u]][t[(u, d)]])

    return img.certify(point_of(img.cat.obj, {c: image(c) for c in base.objects}))


@dataclass
class ContinuityReport:
    functor: InternalFunctor
    entries: list
    ok: bool


def default_shape_family(base: IndexCategory):
    """The shapes continuity is checked over: empty, two objects, and a
    parallel pair, which together build every finite limit."""
    return (("empty", initial_cat(base)),
            ("discrete_two", shape_two(base)),
            ("parallel_pair", shape_parallel_pair(base)))


def is_continuous(fn: InternalFunctor) -> ContinuityReport:
    """Check that a functor carries certified limit cones to limit cones
    for every diagram over each shape of the default shape family."""
    a = fn.source_cat
    base = a.base
    entries = []
    for name, shape in default_shape_family(base):
        for dg in enumerate_functors(shape, a):
            res = _image_limit(fn, certified_limit(dg))
            entry = {"shape": name,
                     "diagram": {c: dict(dg.f0.components[c])
                                 for c in base.objects},
                     "ok": isinstance(res, UniversalCertificate)}
            if not entry["ok"]:
                entry["witness"] = res.details
            entries.append(entry)
    return ContinuityReport(fn, entries, all(e["ok"] for e in entries))


# ---------------------------------------------------------------------------
# the adjoint functor theorem


@dataclass
class AdjointConstruction:
    """A left adjoint built from fiberwise limits over the comma category,
    with exact triangle identities and the full trace. The comma category
    ``identity ↓ right`` and the embedding of the source into it are built
    on first access."""

    right: InternalFunctor
    left: InternalFunctor
    unit: InternalNatTrans
    counit: InternalNatTrans
    certificate: UniversalCertificate

    @cached_property
    def comma(self) -> CommaCategory:
        """Projections and the canonical square of ``identity ↓ right``."""
        return comma_category(identity_functor(self.right.target_cat), self.right)

    @cached_property
    def embed(self) -> InternalFunctor:
        """B -> comma, b |-> (R b, b, id)."""
        r = self.right
        return self.comma.mediate(r, identity_functor(r.source_cat), identity_nat(r))


def aft_left_adjoint(r: InternalFunctor) -> AdjointConstruction:
    """Construct the left adjoint of a limit-preserving functor.

    The value at each generalized object is the limit of its comma fiber,
    taken in one stroke over the elements of the objects-object. The unit
    mediates the tautological cone through the image of the fiber limit,
    which is re-certified first: a functor that fails to preserve that
    limit is refused there, with the offending fiber attached.
    """
    b, a = r.source_cat, r.target_cat
    base = a.base

    site, proj = elements_category(a.obj)
    a_s = restrict_cat(proj, a)
    b_s = restrict_cat(proj, b)
    r_s = restrict_functor(proj, r, b_s, a_s)
    tcs = terminal_cat(site)
    generic = InternalFunctor(
        tcs, a_s,
        PresheafMap(tcs.obj, a_s.obj,
                    {so: {"*": so[1]} for so in site.objects}),
        PresheafMap(tcs.arr, a_s.arr,
                    {so: {"*": a.id_at(so[0], so[1])} for so in site.objects}))
    fiber = comma_category(generic, r_s)
    cert = certified_limit(fiber.proj_right, "fiber limit of the comma projection")

    # Arrow part: for f : x -> y, precomposing the x-fiber limit cone with
    # f yields a cone over the y-fiber, at the y stage.
    def restricted(c, f):
        sf, tf = a.s_at(c, f), a.t_at(c, f)
        at_w = {}
        for w in site.arrows_into((c, tf)):
            u = w[0]
            c2 = base.src[u]
            sfu = a.obj.action[u][sf]
            t2 = cert.cones.legs_of(cert.object_at((c2, sfu)))
            at_w[w] = (c2, a.arr.action[u][f], t2, (base.identity[c2], sfu))

        def leg(w, sig):
            c2, fu, t2, ikey = at_w[w]
            return t2[(ikey, ("*", sig[1], a.comp_at(c2, sig[2], fu)))]

        return leg

    left = mediated_functor(cert, a, b, restricted)

    # Continuity where it is used: the image of the fiber limit under R
    # must again be a limit cone.
    rres = _image_limit(r_s, cert)
    if isinstance(rres, Refusal):
        stage = rres.details.get("stage")
        raise RefusalError(Refusal("not_continuous", {
            "during": "adjoint construction: image of the fiber limit",
            "witness": rres.details,
            "fiber_objects": fiber.cat.obj.at(stage) if stage else None}))

    # Unit: mediate the tautological cone whose legs are the comma arrows
    # themselves.
    eta = {c: {x: rres.mediator_from((c, x), x, lambda: lambda w, sig: sig[2])
               for x in a.obj.at(c)}
           for c in base.objects}

    # Counit: evaluate each fiber-limit cone at the identity object.
    epsv = {}
    for c in base.objects:
        i = base.identity[c]
        stage = {}
        for y in b.obj.at(c):
            ry = r.on_obj(c, y)
            t = cert.cones.legs_of(cert.object_at((c, ry)))
            stage[y] = t[((i, ry), ("*", y, a.id_at(c, ry)))]
        epsv[c] = stage
    unit, counit = certified_adjunction(left, r, eta, epsv, "adjoint construction")

    # The canonical square factors through the unit exactly, at every
    # object (x0, y0, h : x0 -> r y0) of the comma category identity ↓ r.
    ends_a = arrows_by_ends(a)
    for c in base.objects:
        i = base.identity[c]
        for x0 in a.obj.at(c):
            t = cert.cones.legs_of(cert.object_at((c, x0)))
            for y0 in b.obj.at(c):
                for h in ends_a[c].get((x0, r.on_obj(c, y0)), ()):
                    leg = t[((i, x0), ("*", y0, h))]
                    if a.comp_at(c, r.on_arr(c, leg), eta[c][x0]) != h:
                        raise CertificateError(
                            "canonical square does not factor through the unit"
                            f" at {c!r}:{h!r}")
    return AdjointConstruction(r, left, unit, counit, cert)


# ---------------------------------------------------------------------------
# the order-theoretic oracle


@dataclass
class GaloisAdjoint:
    """A left adjoint computed purely order-theoretically."""

    right: InternalFunctor
    left: InternalFunctor
    table: dict            # object element -> its image under the adjoint


def galois_oracle(r: InternalFunctor, source_cert=None, target_cert=None):
    """Left adjoint of a monotone map between certified lattices, by the
    formula: the value at ``x`` is the meet of everything whose image
    bounds ``x``. Refuses, naming the violated meet, when the map does
    not preserve meets."""
    b_cat, a_cat = r.source_cat, r.target_cat
    cb = lattice_completeness_check(b_cat) if source_cert is None else source_cert
    ca = lattice_completeness_check(a_cat) if target_cert is None else target_cert
    if isinstance(cb, Refusal) or isinstance(ca, Refusal):
        raise PreconditionError("both sides must certify as lattices")
    c = b_cat.base.objects[0]
    if a_cat.base != b_cat.base:
        raise PreconditionError("lattices must share their base")
    r0 = {y: r.on_obj(c, y) for y in b_cat.obj.at(c)}
    repa = ca.evidence["representative"]

    # Meet preservation, binary and empty, over the skeletons.
    skb = cb.evidence["skeleton"]
    meetb, meeta = cb.evidence["meet"], ca.evidence["meet"]
    if repa[r0[cb.evidence["top"]]] != ca.evidence["top"]:
        return Refusal("meets_not_preserved", {"subset": ()})
    for x in skb:
        for y in skb:
            img = repa[r0[meetb[(x, y)]]]
            if img != meeta[(repa[r0[x]], repa[r0[y]])]:
                return Refusal("meets_not_preserved", {"subset": (x, y)})

    table = {}
    for x in a_cat.obj.at(c):
        bound = [y for y in b_cat.obj.at(c) if ca.leq(x, r0[y])]
        table[x] = cb.meet_of(bound)
    # The Galois condition, exhaustively.
    for x in a_cat.obj.at(c):
        for y in b_cat.obj.at(c):
            if cb.leq(table[x], y) != ca.leq(x, r0[y]):
                raise CertificateError(f"Galois condition fails at {(x, y)!r}")

    by_ends = arrows_by_ends(b_cat)[c]

    def arrow_between(s, t):
        if (s, t) not in by_ends:
            raise CertificateError(f"no arrow between {(s, t)!r}")
        return by_ends[(s, t)][0]

    f1 = {c: {h: arrow_between(table[a_cat.s_at(c, h)], table[a_cat.t_at(c, h)])
              for h in a_cat.arr.at(c)}}
    left = InternalFunctor(a_cat, b_cat,
                           PresheafMap(a_cat.obj, b_cat.obj, {c: table}),
                           PresheafMap(a_cat.arr, b_cat.arr, f1))
    return GaloisAdjoint(r, left, table)
