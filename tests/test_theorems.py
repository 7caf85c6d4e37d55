"""Executable theorems: completeness, duality, continuity, adjoints."""

import sys
from math import gcd

import pytest

import intcat.ambient as ambient
import intcat.limits as limits
from intcat.ambient import IndexCategory, Presheaf, PresheafMap
from intcat.core import (
    InternalFunctor, adjunction_check, arrows_by_ends, category_from_tables,
    compose_functors, enumerate_functors, identity_functor, indiscrete,
    initial_cat, opposite,
)
from intcat.limits import (
    CertificateError, ConesCategory, Refusal, RefusalError, UniversalCertificate,
    cocones_category, cones_category, limit_functor, shape_parallel_pair, shape_two,
)
from intcat.theorems import (
    CompletenessCertificate, aft_left_adjoint, cocones_limit_transport,
    colimit_via_duality, galois_oracle, initial_via_identity_limit,
    is_continuous, lattice_completeness_check,
)
from intcat.fixtures import (
    all_lattices, chain_cat, discrete_cat, divisor_lattice, incomparable_pair,
    meet_preserving_maps, monotone_maps, poset_cat, powerset_lattice,
    vee_poset, walking_idempotent, walking_parallel_pair,
)

FIN = IndexCategory.finset()


def monotone(src, tgt, fn):
    f0 = {x: fn(x) for x in src.obj.at("pt")}
    f1 = {h: (f0[src.s_at("pt", h)], f0[src.t_at("pt", h)])
          for h in src.arr.at("pt")}
    out = InternalFunctor(src, tgt,
                          PresheafMap(src.obj, tgt.obj, {"pt": f0}),
                          PresheafMap(src.arr, tgt.arr, {"pt": f1}))
    assert out.validate() == []
    return out


def test_divisor_lattice_certificate_is_gcd():
    cert = lattice_completeness_check(divisor_lattice(12))
    assert isinstance(cert, CompletenessCertificate)
    assert cert.mode == "lattice"
    assert cert.evidence["top"] == "12"
    for x in ("1", "2", "3", "4", "6", "12"):
        for y in ("1", "2", "3", "4", "6", "12"):
            assert cert.evidence["meet"][(x, y)] == str(gcd(int(x), int(y)))


def test_powerset_certificate_is_intersection():
    cert = lattice_completeness_check(powerset_lattice())
    assert cert.evidence["top"] == "{a,b}"
    assert cert.evidence["meet"][("{a}", "{b}")] == "{}"


def test_meet_of_folds_subsets():
    cert = lattice_completeness_check(divisor_lattice(12))
    assert cert.meet_of(("4", "6")) == "2"
    assert cert.meet_of(("4", "6", "3")) == "1"
    assert cert.meet_of(()) == "12"
    assert cert.leq("2", "4") and not cert.leq("4", "2")


def test_refusals_name_the_failing_subset():
    ri = lattice_completeness_check(incomparable_pair())
    assert isinstance(ri, Refusal) and ri.kind == "no_meet"
    assert ri.details["subset"] == ("a", "b")
    rv = lattice_completeness_check(vee_poset())
    assert isinstance(rv, Refusal) and rv.kind == "no_meet"
    assert rv.details["subset"] == ()           # the empty meet: no top
    rp = lattice_completeness_check(walking_parallel_pair())
    assert isinstance(rp, Refusal) and rp.kind == "not_posetal"


def test_indiscrete_collapses_to_one_point_lattice():
    x = Presheaf(FIN, {"pt": ("x", "y")}, {"id_pt": {"x": "x", "y": "y"}})
    cert = lattice_completeness_check(indiscrete(x))
    assert isinstance(cert, CompletenessCertificate)
    assert len(cert.evidence["skeleton"]) == 1


def test_opposite_lattice_certificate_is_lcm():
    cert = lattice_completeness_check(opposite(divisor_lattice(12)))
    assert cert.evidence["top"] == "1"
    assert cert.evidence["meet"][("4", "6")] == "12"


def test_initial_object_via_identity_limit():
    for cat, bottom in ((divisor_lattice(12), "1"), (chain_cat(3), "0"),
                        (discrete_cat(("z",)), "z")):
        iv = initial_via_identity_limit(cat)
        assert iv.point.components["pt"]["*"] == bottom
        # the embedded one-object functor is left adjoint to collapse
        assert iv.initial_certificate.kind == "initial"


def test_identity_limit_whose_leg_at_the_vertex_is_not_the_identity_is_refused():
    # The only cone over the identity of the walking idempotent has leg e
    # (e after the leg must be the leg), so it is no limit; passed off as
    # one, it fails the leg check before any adjunction is built.
    a = walking_idempotent()
    cns = cones_category(identity_functor(a))
    [cone] = cns.cat.obj.at("pt")
    forged = UniversalCertificate("limit", cns.cat, ambient.point_of(cns.cat.obj, {"pt": cone}),
                                  {"pt": {}}, cns)
    assert forged.candidate.legs.components == {"pt": {"*": "e"}}
    with pytest.raises(CertificateError,
                       match="identity-limit leg at the vertex is not the identity"):
        initial_via_identity_limit(a, identity_certificate=forged)


def pair_diagram(target, x, y):
    two = shape_two(target.base)
    base = target.base
    return InternalFunctor(
        two, target,
        PresheafMap(two.obj, target.obj,
                    {c: {"0": x, "1": y} for c in base.objects}),
        PresheafMap(two.arr, target.arr,
                    {c: {("id", "0"): target.id_at(c, x),
                         ("id", "1"): target.id_at(c, y)} for c in base.objects}))


def test_cocone_transport_empty_and_identity():
    d12 = divisor_lattice(12)
    dg = pair_diagram(d12, "4", "6")
    cc = cocones_category(dg)
    empty_shape = initial_cat(FIN)
    dpe = InternalFunctor(
        empty_shape, cc.cat,
        PresheafMap(empty_shape.obj, cc.cat.obj, {"pt": {}}),
        PresheafMap(empty_shape.arr, cc.cat.arr, {"pt": {}}))
    tre = cocones_limit_transport(cc, dpe)
    assert tre.vertex_cocone.vertex.components["pt"]["*"] == "12"
    tri = cocones_limit_transport(cc, identity_functor(cc.cat))
    assert tri.vertex_cocone.vertex.components["pt"]["*"] == "12"
    assert tri.vertex_cocone.legs.components["pt"]["0"] == ("4", "12")


def test_colimit_via_duality_agrees_with_direct_search():
    d12 = divisor_lattice(12)
    col = colimit_via_duality(pair_diagram(d12, "4", "6"))
    assert col.cocone.vertex.components["pt"]["*"] == "12"
    assert col.direct.candidate.vertex.components["pt"]["*"] == "12"
    empty_shape = initial_cat(FIN)
    edg = InternalFunctor(
        empty_shape, d12,
        PresheafMap(empty_shape.obj, d12.obj, {"pt": {}}),
        PresheafMap(empty_shape.arr, d12.arr, {"pt": {}}))
    assert colimit_via_duality(edg).cocone.vertex.components["pt"]["*"] == "1"
    c3 = chain_cat(3)
    assert colimit_via_duality(pair_diagram(c3, "0", "2")) \
        .cocone.vertex.components["pt"]["*"] == "2"


def test_colimit_via_duality_decides_its_initiality_once(monkeypatch):
    # the initial certificate of the identity limit is wrapped into the
    # colimit certificate; only the direct search decides initiality again.
    # Initiality in the cocones is terminality in their opposite.
    dg = pair_diagram(divisor_lattice(12), "4", "6")
    decided = []
    real = limits.is_internal_terminal

    def counted(a, v):
        decided.append(a)
        return real(a, v)

    monkeypatch.setattr(limits, "is_internal_terminal", counted)
    col = colimit_via_duality(dg)
    cc = col.certificate.cones
    assert sum(a is opposite(cc.cat) for a in decided) == 2
    assert col.certificate == cc.certify(col.certificate.point)
    with pytest.raises(CertificateError, match="a colimit certificate does not"):
        cc._of_universal(col.direct)


def _aft_constant_on_vee():
    fn = next(f for f in enumerate_functors(vee_poset(), chain_cat(2))
              if set(f.f0.components["pt"].values()) == {"0"})
    return aft_left_adjoint(fn)


@pytest.mark.parametrize("run, during", [
    (lambda: limit_functor(vee_poset(), initial_cat(FIN)),
     "limit functor: functor-space diagram"),
    (_aft_constant_on_vee, "fiber limit of the comma projection"),
    (lambda: is_continuous(identity_functor(vee_poset())), None),
], ids=["limit-functor", "aft-fiber", "is-continuous"])
def test_engine_refusals_keep_their_during_tag(run, during):
    with pytest.raises(RefusalError) as exc:
        run()
    refusal = exc.value.refusal
    assert refusal.kind == "no_universal_cone"
    assert refusal.details.get("during") == during
    assert ("during" in refusal.details) == (during is not None)


def test_identity_functor_is_continuous():
    rep = is_continuous(identity_functor(divisor_lattice(12)))
    assert rep.ok


def test_gcd_endomap_fails_continuity_at_the_empty_diagram():
    d12 = divisor_lattice(12)
    gcd6 = monotone(d12, d12, lambda x: str(gcd(int(x), 6)))
    rep = is_continuous(gcd6)
    assert not rep.ok
    bad = [e for e in rep.entries if not e["ok"]]
    assert any(e["shape"] == "empty" for e in bad)
    assert all("witness" in e for e in bad)


def test_aft_inclusion_of_subchain():
    sub = poset_cat(("0", "2"), [("0", "2")])
    incl = monotone(sub, chain_cat(3), lambda x: x)
    adj = aft_left_adjoint(incl)
    table = {x: adj.left.on_obj("pt", x) for x in ("0", "1", "2")}
    assert table == {"0": "0", "1": "2", "2": "2"}
    assert adjunction_check(adj.left, adj.right, adj.unit, adj.counit) == []
    oracle = galois_oracle(incl)
    assert oracle.table == table


def test_aft_trace_embeds_the_source_into_the_comma():
    d12, d6 = divisor_lattice(12), divisor_lattice(6)
    to6 = monotone(d12, d6, lambda x: str(gcd(int(x), 6)))
    adj = aft_left_adjoint(to6)
    assert adj.comma.right == to6
    assert adj.embed.validate() == []
    assert compose_functors(adj.comma.proj_right, adj.embed) == identity_functor(d12)
    assert adj.embed.f0.components["pt"] == {
        y: (to6.on_obj("pt", y), y, d6.id_at("pt", to6.on_obj("pt", y)))
        for y in d12.obj.at("pt")}
    # each comma object (x, y, h : x -> R y) has its transpose L x -> y
    hom = arrows_by_ends(d12)["pt"]
    assert adj.comma.cat.obj.at("pt")
    for (x, y, _) in adj.comma.cat.obj.at("pt"):
        assert (adj.left.on_obj("pt", x), y) in hom


def test_aft_builds_no_composition_it_does_not_read(monkeypatch):
    # universality reads arrows, source and target only: the cone and comma
    # categories inside the construction never build their composable pairs,
    # and deciding universality builds no pullback at all
    d12, d18 = divisor_lattice(12), divisor_lattice(18)
    assert d12.validate() == [] and d18.validate() == []    # their own tables
    swap = {"1": "1", "2": "3", "3": "2", "4": "9", "6": "6", "12": "18"}
    iso = monotone(d12, d18, swap.get)
    built = []
    real = ambient.pullback

    def counted(source, target):
        built.append(source)
        return real(source, target)

    bindings = [m for name, m in sys.modules.items()
                if name.split(".")[0] == "intcat" and getattr(m, "pullback", None) is real]
    assert ambient in bindings
    for module in bindings:
        monkeypatch.setattr(module, "pullback", counted)
    adj = aft_left_adjoint(iso)
    assert adj.left.f0.components["pt"] == {y: x for x, y in swap.items()}
    assert built == []
    assert adj.comma.cat.compose.validate() == []
    assert len(built) == 1


def pair_loop_category(cns):
    """A cone category's arrows as the pair loop built them before they
    were read from fibres: every (o1, o2, p) whose leg triangles commute,
    by o1, then o2, then p, assembled with the same tables."""
    a, dual = cns.diagram.target_cat, cns.kind == "cocones"
    base, ends = a.base, arrows_by_ends(a)

    def commutes(o1, o2, p):
        t2 = cns.legs_of(o2)
        for (u, x), w in cns.legs_of(o1).items():
            c2, pr = base.src[u], a.arr.action[u][p]
            if t2[(u, x)] != a.comp_at(c2, pr, w) if dual else \
               w != a.comp_at(c2, t2[(u, x)], pr):
                return False
        return True

    carrier = {c: tuple((o1, o2, p) for o1 in cns.cat.obj.at(c)
                        for o2 in cns.cat.obj.at(c)
                        for p in ends[c].get((o1[0], o2[0]), ())
                        if commutes(o1, o2, p))
               for c in base.objects}
    return category_from_tables(
        cns.cat.obj, lambda: carrier, lambda w, t: (a.arr.action[w][t[2]],),
        lambda c, o: (a.id_at(c, o[0]),),
        lambda c, g, f: (a.comp_at(c, g[2], f[2]),))


def _aft_divisors_12():
    d12, d6 = divisor_lattice(12), divisor_lattice(6)
    return aft_left_adjoint(monotone(d12, d6, lambda x: str(gcd(int(x), 6))))


@pytest.mark.parametrize("run, count", [
    (_aft_divisors_12, 2),
    (lambda: limit_functor(chain_cat(3), shape_parallel_pair(FIN)), 1),
    (lambda: is_continuous(identity_functor(chain_cat(3))), 32),
], ids=["aft-divisors-12", "limit-functor-chain-3", "is-continuous-chain-3"])
def test_cone_categories_build_no_arrows_object_they_do_not_read(run, count, monkeypatch):
    # every cone category is assembled here; the limit functor builds one
    built = []
    real = limits._cone_category

    def recorded(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(limits, "_cone_category", recorded)
    result = run()
    assert len(built) == count
    for cns in built:
        assert "arr" not in vars(cns.cat) and "to_base" not in vars(cns)
    certificate = getattr(result, "certificate", None)
    assert certificate is None or "unique_arrow" not in vars(certificate)
    for cns in built:
        # forced, the fibres give the arrows the pair loop gave, in its order
        reference = pair_loop_category(cns)
        assert cns.cat.arr == reference.arr
        assert (cns.cat.source, cns.cat.target, cns.cat.identity) == \
            (reference.source, reference.target, reference.identity)
        old = ConesCategory(cns.kind, cns.diagram, reference)
        assert cns.cat == reference and cns == old and repr(cns) == repr(old)
        assert cns.to_base.validate() == []


def test_aft_identity_is_identity():
    d12 = divisor_lattice(12)
    adj = aft_left_adjoint(identity_functor(d12))
    assert all(adj.left.on_obj("pt", x) == x for x in d12.obj.at("pt"))


def test_aft_refuses_non_continuous_map_with_witness():
    d12 = divisor_lattice(12)
    gcd6 = monotone(d12, d12, lambda x: str(gcd(int(x), 6)))
    with pytest.raises(RefusalError) as exc:
        aft_left_adjoint(gcd6)
    ref = exc.value.refusal
    assert ref.kind == "not_continuous"
    assert "witness" in ref.details
    oracle = galois_oracle(gcd6)
    assert isinstance(oracle, Refusal)
    assert oracle.kind == "meets_not_preserved"
    assert oracle.details["subset"] == ()       # the top is not preserved


def test_aft_agrees_with_galois_oracle_between_lattices():
    d12, d6 = divisor_lattice(12), divisor_lattice(6)
    to6 = monotone(d12, d6, lambda x: str(gcd(int(x), 6)))
    adj = aft_left_adjoint(to6)
    oracle = galois_oracle(to6)
    assert adj.left.f0.components["pt"] == oracle.table
    assert oracle.table == {"1": "1", "2": "2", "3": "3", "6": "6"}


def test_lattice_enumeration_counts():
    sizes = [len(all_lattices(n)) - len(all_lattices(n - 1))
             for n in range(1, 7)]
    assert sizes == [1, 1, 1, 2, 5, 15]


def test_monotone_and_meet_preserving_map_counts():
    d12 = divisor_lattice(12)
    mono_maps = monotone_maps(d12, d12)
    assert len(mono_maps) == 500
    cert = lattice_completeness_check(d12)
    meet_maps = meet_preserving_maps(d12, d12, cert, cert)
    assert len(meet_maps) == 108
    # every meet-preserving map admits a left adjoint via the oracle
    sample = meet_maps[:10]
    for fn in sample:
        oracle = galois_oracle(fn, source_cert=cert, target_cert=cert)
        assert not isinstance(oracle, Refusal)
