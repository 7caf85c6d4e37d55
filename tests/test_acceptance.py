"""Acceptance suite: one test per advertised guarantee of the engine.

Each test prints a single verdict line and asserts its own time budget,
so a plain ``pytest -v tests/test_acceptance.py`` reads as a checklist.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from intcat.ambient import (
    IndexCategory, Presheaf, PresheafMap, coproduct, elements_category,
    point_label, point_of, points, representable,
)
from intcat.core import (
    InternalFunctor, adjunction_check, dis_u_ind_adjunctions,
    enumerate_functors, from_finite_category,
    identity_functor, initial_cat, opposite, points_of_cat, product_cat,
    restrict_functor, terminal_cat, validate_internal_category,
)
from oracles import enumerate_nats
from intcat.functor_cat import exponential_cat
from intcat.limits import (
    Refusal, RefusalError, UniversalCertificate, cones_category,
    limit_functor, shape_parallel_pair, shape_two,
    transport_certificate, universal_cocone, universal_cone,
)
from intcat.theorems import (
    aft_left_adjoint, colimit_via_duality, galois_oracle,
    lattice_completeness_check,
)
from intcat.fixtures import (
    all_lattices, chain_cat, corpus, discrete_cat, divisor_lattice,
    incomparable_pair, indiscrete_cat, meet_preserving_maps, monotone_maps,
    poset_cat, powerset_lattice,
)
from intcat.formats import emit_document, parse_document

FIN = IndexCategory.finset()
CHAIN2 = IndexCategory.chain(2)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def verdict(n, detail):
    print("criterion {}: PASS ({})".format(n, detail))


def certified_vertex(cert, c):
    """The vertex of the cone (cocone) a certificate certifies at stage ``c``."""
    return cert.cones.vertex_of(cert.object_at(c))


def pair_diagram(target, x, y):
    two = shape_two(target.base)
    base = target.base
    return InternalFunctor(
        two, target,
        PresheafMap(two.obj, target.obj,
                    {c: {"0": x, "1": y} for c in base.objects}),
        PresheafMap(two.arr, target.arr,
                    {c: {("id", "0"): target.id_at(c, x),
                         ("id", "1"): target.id_at(c, y)}
                     for c in base.objects}))


def test_criterion_1_validator_laws_across_fixture_corpus():
    start = time.perf_counter()
    pairs = corpus()
    assert len(pairs) >= 20
    for nm, cat in pairs:
        assert validate_internal_category(cat) == [], nm
        ident = identity_functor(cat)
        assert ident.validate() == [], nm
    # spot-check the functor and transformation validators on real data
    c2, c3 = chain_cat(2), chain_cat(3)
    fns = enumerate_functors(c2, c3)
    assert all(fn.validate() == [] for fn in fns)
    for f in fns[:3]:
        for g in fns[:3]:
            for nt in enumerate_nats(f, g):
                assert nt.validate() == []
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    verdict(1, "{} fixtures validated in {:.1f}s".format(len(pairs), elapsed))


def test_criterion_2_cartesian_closure_hom_counts_and_points():
    start = time.perf_counter()
    kit = (terminal_cat(FIN), discrete_cat(("x", "y")),
           chain_cat(2), chain_cat(3))
    triples = 0
    for a in kit:
        for b in kit:
            e = exponential_cat(a, b)
            assert validate_internal_category(e.cat) == []
            for w in kit:
                lhs = len(enumerate_functors(product_cat(w, a), b))
                rhs = len(enumerate_functors(w, e.cat))
                assert lhs == rhs
                triples += 1
            fns = enumerate_functors(a, b)
            pts = points(e.cat.obj)
            assert len(pts) == len(fns)
            names = {repr(e.encode_functor(fn).components) for fn in fns}
            assert names == {repr(p.components) for p in pts}
    elapsed = time.perf_counter() - start
    assert triples == 64
    assert elapsed < 60.0
    verdict(2, "64 hom-count triples and 16 point bijections "
               "in {:.1f}s".format(elapsed))


def test_criterion_3_certified_cones_survive_reindexing():
    # positive half: a certified cone stays externally terminal after
    # moving it along representables and binary coproducts of them
    a = from_finite_category(CHAIN2, IndexCategory.chain(3))
    dg = pair_diagram(a, "c0", "c2")
    cert = universal_cone(dg)
    assert isinstance(cert, UniversalCertificate)
    y0 = representable(CHAIN2, "c0")
    y1 = representable(CHAIN2, "c1")
    tests = [y0, y1]
    for xa in (y0, y1):
        for xb in (y0, y1):
            apex, _, _ = coproduct(xa, xb)
            tests.append(apex)
    assert len(tests) <= 12
    for q in tests:
        site, proj = elements_category(q)
        dg_r = restrict_functor(proj, dg)
        moved = transport_certificate(cert, proj, dg_r)
        assert isinstance(moved, UniversalCertificate)
        ext = points_of_cat(cones_category(dg_r).cat)
        target = point_label(moved.point)
        assert target in ext.objects
        for o in ext.objects:
            into = [u for u in ext.arrows
                    if ext.src[u] == o and ext.tgt[u] == target]
            assert len(into) == 1, (o, target)
    # negative half: refusals agree with an exhaustive external search
    inc = incomparable_pair()
    res = universal_cone(pair_diagram(inc, "a", "b"))
    assert isinstance(res, Refusal)
    ext = points_of_cat(cones_category(pair_diagram(inc, "a", "b")).cat)
    assert len(ext.objects) == 0
    bow = poset_cat(("p", "q", "x", "y"),
                    [("p", "x"), ("p", "y"), ("q", "x"), ("q", "y")])
    bdg = pair_diagram(bow, "x", "y")
    assert isinstance(universal_cone(bdg), Refusal)
    ext = points_of_cat(cones_category(bdg).cat)
    assert len(ext.objects) == 2
    for t in ext.objects:
        into = {o: [u for u in ext.arrows
                    if ext.src[u] == o and ext.tgt[u] == t]
                for o in ext.objects}
        assert any(len(v) != 1 for v in into.values()), t
    verdict(3, "{} reindexings stay terminal, 2 refusals confirmed "
               "externally".format(len(tests)))


def test_criterion_4_complete_iff_cocomplete_two_path_agreement():
    start = time.perf_counter()
    cats = [chain_cat(2), chain_cat(3), chain_cat(4), chain_cat(8),
            divisor_lattice(6), divisor_lattice(12), divisor_lattice(24),
            powerset_lattice(), indiscrete_cat(("m", "n"))]
    for cat in cats:
        assert len(cat.obj.at("pt")) <= 8
        assert not isinstance(lattice_completeness_check(cat), Refusal)
    cospan = from_finite_category(
        FIN, IndexCategory.poset(("x", "y", "z"), [("x", "z"), ("y", "z")]))
    shapes = [initial_cat(FIN), shape_two(FIN), shape_parallel_pair(FIN),
              cospan]
    assert all(len(s.obj.at("pt")) <= 3 for s in shapes)
    ran = 0
    for cat in cats:
        for shape in shapes:
            for dg in enumerate_functors(shape, cat):
                col = colimit_via_duality(dg)
                assert col.iso.validate() == []
                for c in cat.base.objects:
                    comp = col.iso.components[c]
                    assert len(set(comp.values())) == len(comp)
                ran += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    verdict(4, "{} diagrams over {} certified-complete categories agree "
               "along both paths in {:.1f}s".format(ran, len(cats), elapsed))


def test_criterion_5_limit_functor_adjunction_and_binary_values():
    d12 = divisor_lattice(12)
    p2 = powerset_lattice()
    for cat in (d12, p2):
        for shape in (initial_cat(FIN), shape_two(FIN),
                      shape_parallel_pair(FIN)):
            lf = limit_functor(cat, shape)
            assert lf.functor.validate() == []
            errs = adjunction_check(lf.diagonal, lf.functor, lf.unit.component.components,
                                    lf.counit.component.components)
            assert errs == []
    # the binary limit functor is gcd on the divisor lattice
    lf = limit_functor(d12, shape_two(FIN))

    def named(el):
        return lf.expo.decode_point(point_of(lf.expo.cat.obj, {"pt": el}))

    for el, img in lf.functor.f0.components["pt"].items():
        fn = named(el)
        x, y = int(fn.on_obj("pt", "0")), int(fn.on_obj("pt", "1"))
        assert img == str(math.gcd(x, y)), (x, y, img)
    # and set intersection on the powerset lattice
    lf = limit_functor(p2, shape_two(FIN))

    def decode(label):
        return frozenset(e for e in label[1:-1].split(",") if e)

    for el, img in lf.functor.f0.components["pt"].items():
        fn = named(el)
        inter = decode(fn.on_obj("pt", "0")) & decode(fn.on_obj("pt", "1"))
        assert decode(img) == inter, (el, img)
    verdict(5, "triangle identities exact for 6 shape/lattice pairs, "
               "binary values are gcd and intersection")


@pytest.mark.slow
def test_criterion_6_adjoint_construction_exhaustive_with_oracle():
    start = time.perf_counter()
    lats = all_lattices(6)
    assert len(lats) == 25
    certs = [lattice_completeness_check(lat) for lat in lats]
    assert all(not isinstance(c, Refusal) for c in certs)
    built = 0
    for src, sc in zip(lats, certs):
        for tgt, tc in zip(lats, certs):
            for fn in meet_preserving_maps(src, tgt, sc, tc):
                adj = aft_left_adjoint(fn)
                oracle = galois_oracle(fn, source_cert=sc, target_cert=tc)
                assert not isinstance(oracle, Refusal)
                assert adj.left.f0.components["pt"] == oracle.table
                if built % 400 == 0:
                    assert adjunction_check(adj.left, adj.right,
                                            adj.unit.component.components,
                                            adj.counit.component.components) == []
                built += 1
    assert built == 41904
    # non-continuous maps are refused with a concrete witness
    d12 = divisor_lattice(12)
    cert = lattice_completeness_check(d12)
    keep = {repr(fn.f0.components["pt"])
            for fn in meet_preserving_maps(d12, d12, cert, cert)}
    refused = 0
    for fn in monotone_maps(d12, d12):
        if repr(fn.f0.components["pt"]) in keep:
            continue
        with pytest.raises(RefusalError) as exc:
            aft_left_adjoint(fn)
        assert exc.value.refusal.kind == "not_continuous"
        assert "witness" in exc.value.refusal.details
        refused += 1
        if refused == 5:
            break
    assert refused == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    verdict(6, "{} adjoints built and cross-checked, 5 refusals with "
               "witnesses, {:.0f}s".format(built, elapsed))


def test_criterion_7_duality_is_exact():
    for nm, cat in corpus():
        op = opposite(cat)
        assert validate_internal_category(op) == [], nm
        assert opposite(op) == cat, nm
    d12 = divisor_lattice(12)
    for labels in (("a",), ("a", "b"), ("a", "b", "c")):
        x = Presheaf(FIN, {"pt": labels}, {"id_pt": {e: e for e in labels}})
        res = dis_u_ind_adjunctions(x, d12)
        assert res["left"]["bijection"] and res["right"]["bijection"]
    # a limit computed in the opposite category is the colimit, vertexwise;
    # universal_cocone is that same search, so the independent reference is
    # test_limits.py::test_cocones_are_the_legs_into_a_vertex_of_the_target
    op12 = opposite(d12)
    pairs = [("4", "6"), ("2", "3"), ("1", "12"), ("6", "6"), ("4", "3")]
    for x, y in pairs:
        dg = pair_diagram(d12, x, y)
        dg_op = InternalFunctor(shape_two(FIN), op12, dg.f0, dg.f1)
        cert_op = universal_cone(dg_op)
        coc = universal_cocone(dg)
        assert certified_vertex(cert_op, "pt") == certified_vertex(coc, "pt")
        assert int(certified_vertex(cert_op, "pt")) == \
            (int(x) * int(y)) // math.gcd(int(x), int(y))
    a = from_finite_category(CHAIN2, IndexCategory.chain(3))
    dg = pair_diagram(a, "c0", "c2")
    dg_op = InternalFunctor(shape_two(CHAIN2), opposite(a), dg.f0, dg.f1)
    for c in CHAIN2.objects:
        assert certified_vertex(universal_cone(dg_op), c) == \
            certified_vertex(universal_cocone(dg), c) == "c2"
    verdict(7, "involution exact on all fixtures, both adjoint strings "
               "biject, opposite limits are colimits")


def test_criterion_8_cli_determinism_and_round_trip():
    docs = sorted(FIXTURES.glob("*.ct"))
    assert len(docs) >= 3
    for path in docs:
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "intcat.cli", "run", str(path),
                 "--format", "machine"],
                capture_output=True, check=False)
            assert proc.returncode == 0, proc.stderr.decode()
            runs.append(proc.stdout)
        assert runs[0] == runs[1], path.name
        report = json.loads(runs[0])
        assert report["schema"] == "report/1"
        assert all(t["outcome"] in ("ok", "refused") for t in report["tasks"])
        text = path.read_text()
        doc = parse_document(text)
        emitted = emit_document(doc)
        assert parse_document(emitted) == doc
        assert emit_document(parse_document(emitted)) == emitted
    verdict(8, "{} documents byte-deterministic with exact parse/emit "
               "round-trips".format(len(docs)))
