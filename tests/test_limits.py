"""Cone categories, universal cones, comma categories, and transport."""

import itertools
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

import intcat.ambient as ambient
import intcat.core as core
import intcat.limits as limits
import intcat.theorems as theorems
from intcat.ambient import (
    IndexCategory, IndexFunctor, PreconditionError, Presheaf, PresheafMap,
    coproduct, elements_category, enumerate_maps, family_keys, first_map, inverse,
    point_of, points, pullback, representable, stage_family, terminal,
)
from intcat.core import (
    InternalCategory, InternalFunctor, InternalNatTrans, arrows_at, arrows_by_ends,
    compose_functors, discrete, enumerate_functors, from_finite_category,
    identity_functor, identity_nat, initial_cat, is_thin, make_internal_category,
    opposite, opposite_functor, restrict_functor, terminal_cat, unique_to_terminal_cat,
    validate_internal_category, validate_internal_nat,
)
from intcat.functor_cat import diagonal_functor, exponential_cat
from intcat.labels import fam_dict, sort_key
from intcat.limits import (
    CertificateError, Cocone, Cone, ConesCategory, Refusal, SpecialAdjoint,
    UniversalCertificate,
    _stage_universal, certified_adjunction, cocones_category, comma_category,
    cones_category, connecting_iso,
    indexed_cone_factorization, is_internal_initial, is_internal_terminal,
    limit_functor,
    parallel_arrows_category, shape_parallel_pair, shape_two,
    special_right_adjoint, transport_certificate, universal_cocone,
    universal_cone,
)
from intcat.fixtures import (
    chain_cat, corpus, divisor_lattice, incomparable_pair, indiscrete_cat,
    poset_cat, staged_chain3, walking_idempotent, walking_parallel_pair,
)
from intcat.formats import parse_document
from intcat.runner import run_document
from intcat.theorems import aft_left_adjoint, default_shape_family
from oracles import enumerate_nats

FIN = IndexCategory.finset()
CHAIN2 = IndexCategory.chain(2)


def diagram_two(target, x, y):
    """The discrete two-object diagram picking out x and y."""
    two = shape_two(target.base)
    base = target.base
    return InternalFunctor(
        two, target,
        PresheafMap(two.obj, target.obj,
                    {c: {"0": x, "1": y} for c in base.objects}),
        PresheafMap(two.arr, target.arr,
                    {c: {("id", "0"): target.id_at(c, x),
                         ("id", "1"): target.id_at(c, y)} for c in base.objects}))


def certified_vertex(cert, c):
    """The vertex of the cone (cocone) a certificate certifies at stage ``c``."""
    return cert.cones.vertex_of(cert.object_at(c))


def empty_diagram(target):
    sh = initial_cat(target.base)
    return InternalFunctor(
        sh, target,
        PresheafMap(sh.obj, target.obj, {c: {} for c in target.base.objects}),
        PresheafMap(sh.arr, target.arr, {c: {} for c in target.base.objects}))


def test_cone_category_of_pair_in_divisors():
    d12 = divisor_lattice(12)
    dg = diagram_two(d12, "4", "6")
    assert dg.validate() == []
    cns = cones_category(dg)
    assert validate_internal_category(cns.cat) == []
    assert cns.to_base.validate() == []
    # cones over {4, 6} are exactly the common divisors
    verts = sorted(p.components["pt"]["*"][0] for p in points(cns.cat.obj))
    assert verts == ["1", "2"]


def test_universal_cone_is_the_meet():
    d12 = divisor_lattice(12)
    dg = diagram_two(d12, "4", "6")
    cns = cones_category(dg)
    cert = universal_cone(dg, cns)
    assert isinstance(cert, UniversalCertificate)
    assert certified_vertex(cert, "pt") == "2"
    cone = cert.candidate
    assert isinstance(cone, Cone) and cone.validate() == []
    # encode/decode round trip between cones and points
    assert cns.encode(cone) == cert.point


def test_universal_cocone_is_the_join():
    d12 = divisor_lattice(12)
    coc = universal_cocone(diagram_two(d12, "4", "6"))
    assert certified_vertex(coc, "pt") == "12"
    assert coc.candidate.validate() == []


def test_empty_diagram_gives_top_and_bottom():
    d12 = divisor_lattice(12)
    edg = empty_diagram(d12)
    assert certified_vertex(universal_cone(edg), "pt") == "12"
    assert certified_vertex(universal_cocone(edg), "pt") == "1"


def test_refusal_for_incomparable_pair():
    p = incomparable_pair()
    res = universal_cone(diagram_two(p, "a", "b"))
    assert isinstance(res, Refusal)
    assert res.details["candidates"] == 0 or res.details["failures"]


def paper_universality(a, v, dual):
    """The paper's internal terminality, rebuilt from the pullback of the
    arrows into ``v`` (out of ``v`` when dual): the unique-arrow map when its
    projection onto the objects-object is invertible, else the first stage
    and element whose fiber is not a singleton, with the fiber's size."""
    at_v, far = (a.source, a.target) if dual else (a.target, a.source)
    into = pullback(at_v, v).legs[0]
    inv = inverse(into.then(far))
    if inv is not None:
        return inv.then(into)
    for c in a.base.objects:
        fibers = [far.components[c][h] for h in into.components[c].values()]
        for x in a.obj.at(c):
            if fibers.count(x) != 1:
                return {"stage": c, "element": x, "count": fibers.count(x)}
    raise AssertionError("projection not invertible yet every fiber is a singleton")


@pytest.mark.parametrize("dual", [False, True], ids=["terminal", "initial"])
def test_universality_agrees_with_the_paper_formulation(dual):
    decide = is_internal_initial if dual else is_internal_terminal
    kind = "not_initial" if dual else "not_terminal"
    counts, staged = set(), set()
    for name, a in corpus():
        for v in points(a.obj):
            want, got = paper_universality(a, v, dual), decide(a, v)
            if isinstance(want, PresheafMap):
                assert isinstance(got, UniversalCertificate), (name, got)
                assert got.unique_arrow == want, name
                assert repr(got.unique_arrow) == repr(want), name
            else:
                assert got == Refusal(kind, want), name
                counts.add(min(want["count"], 2))
            if len(a.base.objects) > 1:
                staged.add(isinstance(got, Refusal))
    assert counts == {0, 2}
    assert staged == {False, True}


def corpus_cone_categories():
    """The cone and cocone categories of every diagram from the default
    shapes into a corpus category, each built twice: one to be read
    through its fibres, one whose arrows object is forced."""
    for name, a in corpus():
        for shape_name, shape in default_shape_family(a.base):
            for n, dg in enumerate(enumerate_functors(shape, a)):
                for build in (cones_category, cocones_category):
                    lazy, forced = build(dg), build(dg)
                    assert forced.cat.validate() == [], name
                    yield f"{name}/{shape_name}/{n}/{lazy.kind}", lazy, forced


def cocones_in_the_target(dg, c):
    """The cocones under ``dg`` at stage ``c``, read in its target ``A``
    alone: a vertex ``v`` and natural legs ``dg(x) -> v`` with
    ``leg_sx == leg_tx after dg(f)``, by vertex in carrier order, the leg
    families of one vertex in ``sort_key`` order."""
    a, d = dg.target_cat, dg.source_cat
    base, ends = a.base, arrows_by_ends(a)
    keys = family_keys(base, c, d.obj)
    out = []
    for v in a.obj.at(c):
        options = [ends[base.src[u]].get((dg.on_obj(base.src[u], x), a.obj.action[u][v]), ())
                   for u, x in keys]
        families = []
        for legs in itertools.product(*options):
            t = dict(zip(keys, legs))
            natural = all(t[(base.comp(u, w), d.obj.action[w][x])] == a.arr.action[w][t[(u, x)]]
                          for u, x in keys for w in base.arrows_into(base.src[u]))
            commutes = all(
                t[(u, d.s_at(base.src[u], f))] == a.comp_at(
                    base.src[u], t[(u, d.t_at(base.src[u], f))], dg.on_arr(base.src[u], f))
                for u in base.arrows_into(c) for f in d.arr.at(base.src[u]))
            if natural and commutes:
                families.append(stage_family(base, c, d.obj, lambda u, x: t[(u, x)]))
        out += [(v, gamma) for gamma in sorted(families, key=sort_key)]
    return tuple(out)


def test_cocones_are_the_legs_into_a_vertex_of_the_target():
    # criterion 7 reads cocones as cones over the opposite diagram; this is
    # the reference in the target's own terms, elements and order
    seen = 0
    for name, lazy, _ in corpus_cone_categories():
        if lazy.kind == "cocones":
            for c in lazy.cat.base.objects:
                assert lazy.cat.obj.at(c) == cocones_in_the_target(lazy.diagram, c), name
                seen += len(lazy.cat.obj.at(c))
    assert seen > 500


@pytest.mark.parametrize("dual", [False, True], ids=["terminal", "initial"])
def test_cone_fibres_agree_with_the_paper_formulation(dual):
    # a cone category reads the arrows into a cone (out of a cocone) from
    # its legs; the other polarity and the reference read the arrows object
    decide = is_internal_initial if dual else is_internal_terminal
    kind = "not_initial" if dual else "not_terminal"
    counts, staged, read = set(), set(), 0
    for name, lazy, forced in corpus_cone_categories():
        decided = [(v, decide(lazy.cat, v)) for v in points(forced.cat.obj)]
        if dual == (lazy.kind == "cocones"):
            assert "arr" not in vars(lazy.cat), name
            read += 1
        for v, got in decided:
            want = paper_universality(forced.cat, v, dual)
            if isinstance(want, PresheafMap):
                assert isinstance(got, UniversalCertificate), (name, got)
                assert got.unique_arrow == want, name
                assert repr(got.unique_arrow) == repr(want), name
            else:
                assert got == Refusal(kind, want), name
                counts.add(min(want["count"], 2))
            staged.add((len(lazy.cat.base.objects) > 1, isinstance(got, Refusal)))
    assert counts == {0, 2} and len(staged) == 4 and read > 300


def test_thinness_is_read_from_the_endpoint_index():
    assert [name for name, a in corpus() if not is_thin(a)] == \
        ["walking_idempotent", "walking_parallel_pair"]
    assert not is_thin(shape_parallel_pair(CHAIN2))
    assert is_thin(opposite(divisor_lattice(12)))


def carriers(cat):
    """The object carrier, the arrow carrier and the object action."""
    stages = cat.base.objects
    return ({c: cat.obj.at(c) for c in stages}, {c: cat.arr.at(c) for c in stages},
            cat.obj.action)


def thin_constructions(monkeypatch):
    """The carriers of every cone, cocone and comma category built over
    the thin corpus fixtures, by name: the cones and cocones of every
    diagram from the default shapes, the category of parallel arrows, and
    the commas of the adjoint functor theorem for the identity and for the
    functor to the one-object category, with that theorem's outcome."""
    commas = []

    def recording(f, g):
        cm = limits.comma_category(f, g)
        commas.append(cm.cat)
        return cm

    monkeypatch.setattr(theorems, "comma_category", recording)
    out = {}
    for name, a in corpus():
        if not is_thin(a):
            continue
        for shape_name, shape in default_shape_family(a.base):
            for n, dg in enumerate(enumerate_functors(shape, a)):
                for build in (cones_category, cocones_category):
                    cns = build(dg)
                    out[f"{name}/{shape_name}/{n}/{cns.kind}"] = carriers(cns.cat)
        out[f"{name}/parallel_arrows"] = carriers(parallel_arrows_category(a)[0])
        for r_name, r in (("identity", identity_functor(a)),
                          ("to_one", unique_to_terminal_cat(a))):
            del commas[:]
            try:
                adj = aft_left_adjoint(r)
                adj.comma
                outcome = (adj.left.f0.components, adj.left.f1.components)
            except limits.RefusalError as err:
                outcome = err.refusal
            out[f"{name}/aft/{r_name}"] = \
                (outcome, [carriers(cat) for cat in commas])
    return out


def test_thin_targets_read_the_carriers_the_solver_finds(monkeypatch):
    # the thin path reads cones off the endpoint index; with thinness
    # denied, the solver builds them; comma squares are composed either way
    read = thin_constructions(monkeypatch)
    monkeypatch.setattr(limits, "is_thin", lambda b: False)
    searched = thin_constructions(monkeypatch)
    assert read.keys() == searched.keys()
    for name in read:
        assert read[name] == searched[name], name
    fixtures = {name.split("/")[0] for name in read}
    assert {"one_object", "staged_indiscrete", "staged_chain_three",
            "staged_empty"} <= fixtures
    assert len(fixtures) == len(corpus()) - 2 and len(read) > 700


def verdict(res):
    """A refusal, or a certificate's kind, point and unique arrows in order."""
    if isinstance(res, Refusal):
        return res
    return (res.kind, res.point.components,
            [(c, list(arrows.items())) for c, arrows in res.unique_table.items()])


def thin_cone_fibres(monkeypatch):
    """For every cone and cocone category of a diagram from the default
    shapes into a thin corpus fixture, by name: the arrows into and out of
    each object, grouped as ``arrows_at`` reads them, in order, and the
    terminality (for cocones, initiality) verdict at every global point;
    and the number of composites made while reading them."""
    composed, reading = [0], [False]
    real = InternalCategory.comp_at

    def counted(self, c, g, f):
        composed[0] += reading[0]
        return real(self, c, g, f)

    monkeypatch.setattr(InternalCategory, "comp_at", counted)
    out = {}
    for name, a in corpus():
        if not is_thin(a):
            continue
        for shape_name, shape in default_shape_family(a.base):
            for n, dg in enumerate(enumerate_functors(shape, a)):
                for build, decide in ((cones_category, is_internal_terminal),
                                      (cocones_category, is_internal_initial)):
                    cat = build(dg).cat
                    reading[0] = True
                    fibres = [(c, o, list(arrows_at(cat, c, o).items()),
                               list(arrows_at(opposite(cat), c, o).items()))
                              for c in cat.base.objects for o in cat.obj.at(c)]
                    verdicts = [verdict(decide(cat, v)) for v in points(cat.obj)]
                    reading[0] = False
                    out[f"{name}/{shape_name}/{n}/{build.__name__}"] = (fibres, verdicts)
    monkeypatch.setattr(InternalCategory, "comp_at", real)
    return out, composed[0]


def test_thin_fibres_are_the_lifted_fibres(monkeypatch):
    # over a thin target the lift of p : x -> v into a cone at v is read as
    # the one cone at x, with no composite; the solver path composes each
    # lift leg by leg and looks it up. Groups, their order and the verdicts
    # they give agree.
    read, composed = thin_cone_fibres(monkeypatch)
    assert composed == 0
    monkeypatch.setattr(limits, "is_thin", lambda b: False)
    lifted, composed = thin_cone_fibres(monkeypatch)
    assert composed > 1000
    assert read.keys() == lifted.keys()
    for name in read:
        assert read[name] == lifted[name], name
    groups = [len(g) for fibres, _ in read.values() for *_, into, out in fibres
              for g in (into, out)]
    assert len(read) > 600 and max(groups) > 2
    assert {type(v) for _, verdicts in read.values() for v in verdicts} == {Refusal, tuple}


def adjoint_tables(build):
    """The arrow part, unit and counit components of the adjoint ``build``
    makes, or the refusal that stops it."""
    try:
        res = build()
    except limits.RefusalError as err:
        return err.refusal
    fn = res.functor if isinstance(res, limits.LimitFunctorResult) else res.left
    return (fn.f1.components, res.unit.component.components,
            res.counit.component.components)


def thin_mediated_adjoints(monkeypatch):
    """For every thin corpus fixture, by name: ``adjoint_tables`` of its
    limit functor over each default shape and of the AFT left adjoints of
    its identity and of its functor to the one-object category; and the
    ``cone_at`` calls and ``legs`` callbacks made for mediators, which
    leaves out the image cone that ``_image_limit`` certifies."""
    calls = {"cone_at": 0, "legs": 0}
    imaging = [False]
    real_cone_at, real_from = ConesCategory.cone_at, UniversalCertificate.mediator_from
    real_image, real_mediated = theorems._image_limit, limits.mediated_functor

    def counted(legs):
        def called(*args):
            calls["legs"] += 1
            return legs(*args)
        return called

    def cone_at(self, c, vertex, leg):
        calls["cone_at"] += not imaging[0]
        return real_cone_at(self, c, vertex, leg)

    def image_limit(fn, cert):
        imaging[0] = True
        try:
            return real_image(fn, cert)
        finally:
            imaging[0] = False

    monkeypatch.setattr(ConesCategory, "cone_at", cone_at)
    monkeypatch.setattr(UniversalCertificate, "mediator_from",
                        lambda self, c, vertex, legs: real_from(self, c, vertex, counted(legs)))
    monkeypatch.setattr(theorems, "_image_limit", image_limit)
    for module in (limits, theorems):
        monkeypatch.setattr(module, "mediated_functor",
                            lambda cert, idx, tgt, legs: real_mediated(cert, idx, tgt,
                                                                       counted(legs)))
    out = {}
    for name, a in corpus():
        if not is_thin(a):
            continue
        for shape_name, shape in default_shape_family(a.base):
            out[f"{name}/limit/{shape_name}"] = adjoint_tables(
                lambda: limit_functor(a, shape))
        for r_name, r in (("identity", identity_functor(a)),
                          ("to-one", unique_to_terminal_cat(a))):
            out[f"{name}/aft/{r_name}"] = adjoint_tables(lambda: aft_left_adjoint(r))
    return out, calls


def test_family_keys_come_in_sort_key_order(monkeypatch):
    # family_keys sorts the arrows into a stage once per base and then the
    # elements at each source, never the repr of a whole key; that must be
    # the sort_key order of the whole keys for every presheaf and stage of
    # the corpus, and for every one read while limit functors and the AFT
    # run, over the element sites they build
    real, seen = ambient.family_keys, []

    def recording(base, c, dom):
        keys = real(base, c, dom)
        seen.append((base, c, dom, keys))
        return keys

    for module in (ambient, core, limits):
        monkeypatch.setattr(module, "family_keys", recording)
    # a base that lists its objects, and so its arrows, against label order
    against = IndexCategory.poset(("y", "x"), [("x", "y")])
    assert against.arrows_into("y") == (("y", "y"), ("x", "y"))
    corpus_bases = []
    for name, a in corpus() + (("chain_three_over_yx", chain_cat(3, against)),):
        corpus_bases.append(a.base)
        for part in (a.obj, a.arr):
            for c in a.base.objects:
                recording(a.base, c, part)
        if not is_thin(a):
            continue
        for _, shape in default_shape_family(a.base):
            adjoint_tables(lambda: limit_functor(a, shape))
        for r in (identity_functor(a), unique_to_terminal_cat(a)):
            adjoint_tables(lambda: aft_left_adjoint(r))
    for base, c, dom, keys in seen:
        want = sorted(((u, x) for u in base.arrows_into(c) for x in dom.at(base.src[u])),
                      key=sort_key)
        assert keys == tuple(want), (c, keys)
    sites = {id(base) for base, *_ in seen if all(base is not b for b in corpus_bases)}
    assert len(seen) > 1000 and len(sites) > 50


def test_mediators_by_vertex_are_the_built_ones(monkeypatch):
    # over a thin target a vertex has at most one cone, so the mediator is
    # read by vertex, with no cone built and no leg asked for; the solver
    # path builds each cone from its legs and looks it up
    read, calls = thin_mediated_adjoints(monkeypatch)
    assert calls == {"cone_at": 0, "legs": 0}
    monkeypatch.setattr(limits, "is_thin", lambda b: False)
    built, calls = thin_mediated_adjoints(monkeypatch)
    assert calls["cone_at"] > 100 and calls["legs"] > 100
    assert read.keys() == built.keys()
    for name in read:
        assert read[name] == built[name], name
    staged = [name for name, tables in read.items()
              if name.startswith("staged") and type(tables) is tuple]
    assert sum(type(tables) is tuple for tables in read.values()) > 80 and len(staged) > 10
    assert any(type(tables) is Refusal for tables in read.values())


@pytest.mark.parametrize("target, thin", [
    (walking_parallel_pair, False),
    (walking_idempotent, False),
    (lambda: shape_parallel_pair(CHAIN2), False),
    (lambda: divisor_lattice(12), True),
    (staged_chain3, True),
], ids=["walking-parallel-pair", "walking-idempotent", "staged-parallel-pair",
        "divisors-12", "staged-chain-3"])
def test_only_non_thin_targets_search_their_cones(target, thin, monkeypatch):
    # one solver search per vertex and stage, its cone condition checked on
    # every complete family; none at all on a thin target
    real, calls = limits.family_solver, {"search": 0, "check": 0}

    def counting(base, c, dom, cod):
        solve = real(base, c, dom, cod)

        def search(allowed=None, check=None):
            calls["search"] += 1

            def counted(table):
                calls["check"] += 1
                return check(table)
            return solve(allowed, counted)
        return search

    monkeypatch.setattr(limits, "family_solver", counting)
    a = target()
    assert is_thin(a) == thin
    built = 0
    for _, shape in default_shape_family(a.base):
        for dg in enumerate_functors(shape, a):
            for build in (cones_category, cocones_category):
                build(dg)
                built += 1
    vertices = sum(len(a.obj.at(c)) for c in a.base.objects)
    assert built > 10
    if thin:
        assert calls == {"search": 0, "check": 0}
    else:
        assert calls["search"] == built * vertices and calls["check"] > 0


def test_in_degree_prefilter_keeps_the_stage_universal_objects():
    # the prefilter reads cones only; cocones are the cones over the
    # opposite diagram
    blocked = 0
    for name, lazy, forced in corpus_cone_categories():
        dual = lazy.kind == "cocones"
        cones = ConesCategory("cones", opposite_functor(lazy.diagram),
                              opposite(lazy.cat)) if dual else lazy
        ends = arrows_by_ends(forced.cat)
        for c in forced.cat.base.objects:
            objs = forced.cat.obj.at(c)
            counts = {o: [len(ends[c].get((o, x) if dual else (x, o), ())) for x in objs]
                      for o in objs}
            good = tuple(o for o in objs if counts[o] == [1] * len(objs))
            obstructions = [] if good or not objs else [
                {"candidate": o, "element": objs[i], "count": n[i]}
                for o, n in counts.items()
                for i in [next(i for i, k in enumerate(n) if k != 1)]]
            assert _stage_universal(cones, c) == (good, obstructions), name
            blocked += bool(obstructions)
        assert "arr" not in vars(lazy.cat) and "arr" not in vars(cones.cat), name
    assert blocked


@pytest.mark.parametrize("search, build, other", [
    (universal_cone, cocones_category, ("4", "6")),
    (universal_cocone, cones_category, ("4", "6")),
    (universal_cone, cones_category, ("2", "3")),
], ids=["cone-search-given-cocones", "cocone-search-given-cones",
        "cones-of-another-diagram"])
def test_universal_search_refuses_a_category_it_was_not_asked_about(search, build, other):
    d12 = divisor_lattice(12)
    dg = diagram_two(d12, "4", "6")
    with pytest.raises(PreconditionError, match="not that of the"):
        search(dg, build(diagram_two(d12, *other)))
    # the limit is the meet 2 and the colimit the join 12
    assert certified_vertex(search(dg), "pt") == ("2" if search is universal_cone else "12")


def test_the_first_map_is_the_first_one_listed():
    cats = [a for _, a in corpus()] + [walking_idempotent(), indiscrete_cat("abc")]
    for a in cats:
        one = terminal(a.base)
        for x, y in ((one, a.obj), (one, a.arr), (a.obj, a.obj)):
            if len(x.at(a.base.objects[0])) > 3:
                continue
            for allowed in (None, lambda c, e, y=y: y.at(c)[1:], lambda c, e: ()):
                listed = enumerate_maps(x, y, allowed=allowed)
                assert first_map(x, y, allowed=allowed) == (listed[0] if listed else None)


def test_universal_search_stops_at_the_first_certified_point():
    # four isomorphic objects: each of the 16 diagrams has 4 limits, and the
    # search used to list all 4 ** 16 stage-universal points
    doc = ("format 1\nbase fin finset\ncategory four over fin : indiscrete a b c d\n"
           "task limit-functor four discrete-two\n")
    start = time.process_time()
    (task,) = run_document(parse_document(doc))["tasks"]
    assert time.process_time() - start < 5.0
    assert task["outcome"] == "ok" and task["witness"]["unit_is_iso"] is True
    # a preorder with the isomorphism class {a, b, c} below d
    pre = poset_cat("abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    start = time.process_time()
    adj = aft_left_adjoint(identity_functor(pre))
    specials = [special_right_adjoint(pre, kind)
                for kind in ("terminal", "binary_product", "equalizer")]
    assert time.process_time() - start < 5.0
    assert adj.unit.validate() == [] and adj.counit.validate() == []
    assert all(isinstance(s, SpecialAdjoint) for s in specials)


def test_a_lift_missing_from_the_cones_is_a_certificate_error(monkeypatch):
    # the cones over {4, 6} have vertices 1 and 2; without the one at 1 the
    # arrow 1 -> 2 lifts to no arrow into the cone at 2. The divisors are
    # thin, so the cone is dropped where the thin carrier is read, and the
    # fibre, read by vertex, finds no cone at 1.
    real = limits._thin_cones
    monkeypatch.setattr(limits, "_thin_cones", lambda dg, c: real(dg, c)[1:])
    d12 = divisor_lattice(12)
    dg = diagram_two(d12, "4", "6")
    cns = cones_category(dg)
    assert is_thin(d12)
    assert [cns.vertex_of(o) for o in cns.cat.obj.at("pt")] == ["2"]
    message = "lift of ('1', '2') at 'pt' is not among the cones"
    with pytest.raises(limits.CertificateError) as exc:
        arrows_at(cns.cat, "pt", cns.cat.obj.at("pt")[0])
    assert str(exc.value) == message
    with pytest.raises(limits.CertificateError) as exc:
        universal_cone(dg, cns)
    assert str(exc.value) == message


def object_diagram(target, x):
    """The diagram on one object picking out ``x``."""
    one = from_finite_category(target.base, IndexCategory.discrete(("0",)))
    objects = target.base.objects
    return InternalFunctor(
        one, target, PresheafMap(one.obj, target.obj, {c: {"0": x} for c in objects}),
        PresheafMap(one.arr, target.arr,
                    {c: {("id", "0"): target.id_at(c, x)} for c in objects}))


def test_a_lift_missing_from_the_searched_cones_is_a_certificate_error(monkeypatch):
    # over the walking parallel pair, the cones on 1 have vertices 0 (legs
    # one and two) and 1; the pair is not thin, so the solver searches them,
    # and without those at 0 the arrow one lifts to no arrow into the cone
    # at 1
    real = limits.family_solver

    def dropping(base, c, dom, cod):
        solve, calls = real(base, c, dom, cod), []

        def first_vertex_has_none(allowed=None, check=None):
            calls.append(1)
            return solve(allowed, check) if len(calls) > 1 else []
        return first_vertex_has_none

    monkeypatch.setattr(limits, "family_solver", dropping)
    dg = object_diagram(walking_parallel_pair(), "1")
    cns = cones_category(dg)
    assert [cns.vertex_of(o) for o in cns.cat.obj.at("pt")] == ["1"]
    with pytest.raises(limits.CertificateError, match="lift of"):
        universal_cone(dg, cns)


def test_mediator_uniqueness_from_certificate():
    # the certificate counts exactly one arrow from every cone to the limit
    d12 = divisor_lattice(12)
    dg = diagram_two(d12, "4", "6")
    cns = cones_category(dg)
    cert = universal_cone(dg, cns)
    for o in cns.cat.obj.at("pt"):
        med = cert.unique_arrow.components["pt"][o]
        assert cns.cat.t_at("pt", med) == cert.point.components["pt"]["*"]
        assert cns.cat.s_at("pt", med) == o
        others = [h for h in cns.cat.arr.at("pt")
                  if cns.cat.s_at("pt", h) == o
                  and cns.cat.t_at("pt", h) == cert.point.components["pt"]["*"]]
        assert others == [med]


@pytest.mark.parametrize("stage, vertex", [("pt", "12"), ("nowhere", "2")],
                         ids=["not-a-cone", "not-a-stage"])
def test_mediator_of_a_cone_outside_the_certificate_is_refused(stage, vertex):
    cert = universal_cone(diagram_two(divisor_lattice(12), "4", "6"))
    # the legs of the meet 2 leave no other vertex
    legs = cert.cones.legs_of(cert.object_at("pt"))
    cone = cert.cones.cone_at("pt", vertex, lambda u, x: legs[(u, x)])
    with pytest.raises(limits.CertificateError) as exc:
        cert.mediator_at(stage, cone)
    assert str(exc.value) == (f"{cone!r} is not an object of the certified "
                              f"category at stage {stage!r}")
    # the reader by vertex finds no cone there either, so it builds the
    # cone from its legs and is refused with the same message
    assert cert.cones.cone_of is not None
    built = cert.cones.cone_at(stage, vertex, lambda u, x: legs[(u, x)])
    with pytest.raises(limits.CertificateError) as exc:
        cert.mediator_from(stage, vertex, lambda: lambda u, x: legs[(u, x)])
    assert str(exc.value) == (f"{built!r} is not an object of the certified "
                              f"category at stage {stage!r}")


@pytest.mark.parametrize("certify", [
    lambda d6: next(res for p in points(d6.obj)
                    if not isinstance(res := is_internal_terminal(d6, p), Refusal)),
    lambda d6: universal_cocone(diagram_two(d6, "2", "3")),
], ids=["terminal", "colimit"])
def test_mediated_functor_reads_limit_certificates_only(certify):
    # a plain terminality certificate carries no cones, and a colimit's
    # unique arrows leave the certified point
    d6 = divisor_lattice(6)
    cert = certify(d6)
    with pytest.raises(PreconditionError) as exc:
        limits.mediated_functor(cert, d6, d6, lambda c, t: None)
    assert str(exc.value) == "certificate is not a limit with a cone category"


def test_indexed_cone_factorization_batches_mediators():
    d12 = divisor_lattice(12)
    dg = diagram_two(d12, "4", "6")
    cns = cones_category(dg)
    cert = universal_cone(dg, cns)
    by_vertex = {p.components["pt"]["*"][0]: p.components["pt"]["*"]
                 for p in points(cns.cat.obj)}
    idx = Presheaf(FIN, {"pt": ("i", "j")}, {"id_pt": {"i": "i", "j": "j"}})
    family = PresheafMap(idx, cns.cat.obj,
                         {"pt": {"i": by_vertex["1"], "j": by_vertex["2"]}})
    h = indexed_cone_factorization(family, cert)
    assert h.components["pt"]["i"] == ("1", "2")
    assert h.components["pt"]["j"] == ("2", "2")


def test_connecting_iso_between_two_certificates():
    d12 = divisor_lattice(12)
    dg = diagram_two(d12, "4", "6")
    cert_a = universal_cone(dg)
    cert_b = universal_cone(dg)
    iso = connecting_iso(cert_a, cert_b)
    # between a certificate and itself the connecting arrow is the identity
    cat = cert_a.subject
    p = cert_a.point.components["pt"]["*"]
    assert iso.components["pt"]["*"] == cat.id_at("pt", p)


def test_connecting_iso_rejects_mixed_polarity():
    d12 = divisor_lattice(12)
    dg = diagram_two(d12, "4", "6")
    ca = universal_cone(dg)
    cb = universal_cocone(dg)
    with pytest.raises(PreconditionError):
        connecting_iso(ca, cb)


def test_comma_of_identities_is_arrow_category():
    c2 = chain_cat(2)
    cm = comma_category(identity_functor(c2), identity_functor(c2))
    assert validate_internal_category(cm.cat) == []
    assert len(cm.cat.obj.at("pt")) == 3       # the three arrows of chain-2
    assert cm.proj_left.validate() == []
    assert cm.proj_right.validate() == []
    assert cm.square.validate() == []
    med = cm.mediate(identity_functor(c2), identity_functor(c2),
                     identity_nat(identity_functor(c2)))
    assert med.validate() == []


def carriers_found(monkeypatch) -> list:
    """The objects-objects of the category objects ``limits`` assembles,
    each listed when its arrow carrier is found."""
    found, real = [], limits.category_from_tables

    def recording(obj, arr_carrier, *parts, **fibres):
        def carrier():
            found.append(obj)
            return arr_carrier()
        return real(obj, carrier, *parts, **fibres)

    monkeypatch.setattr(limits, "category_from_tables", recording)
    return found


@pytest.mark.parametrize("target", [
    walking_parallel_pair, walking_idempotent, lambda: shape_parallel_pair(CHAIN2),
], ids=["walking-parallel-pair", "walking-idempotent", "staged-parallel-pair"])
def test_comma_squares_are_checked_when_the_arrows_are_first_read(target, monkeypatch):
    # over a non-thin target the arrows of id/id are the commuting squares
    # (o1, o2, p, q), in the order of o1, o2, p and q; they are found only
    # when read, and a square whose composites differ is dropped
    found = carriers_found(monkeypatch)
    a = target()
    assert not is_thin(a)
    ident = identity_functor(a)
    cm = comma_category(ident, ident)
    assert found == []
    assert "f1" not in vars(cm.proj_left)
    squares, dropped = {}, 0
    for c in a.base.objects:
        arrows, objs = a.arr.at(c), cm.cat.obj.at(c)
        quads = [(o1, o2, p, q) for o1 in objs for o2 in objs
                 for p in arrows for q in arrows
                 if (a.s_at(c, p), a.t_at(c, p)) == (o1[0], o2[0])
                 and (a.s_at(c, q), a.t_at(c, q)) == (o1[1], o2[1])]
        squares[c] = tuple(t for t in quads if a.comp_at(c, t[1][2], t[2]) ==
                           a.comp_at(c, t[3], t[0][2]))
        dropped += len(quads) - len(squares[c])
    assert dropped > 0
    assert {c: cm.cat.arr.at(c) for c in a.base.objects} == squares
    assert found == [cm.cat.obj]
    assert validate_internal_category(cm.cat) == []
    assert cm.proj_left.validate() == [] and cm.proj_right.validate() == []
    assert cm.square.validate() == []


def test_the_aft_fiber_builds_no_comma_arrows_over_a_thin_target(monkeypatch):
    # over a thin target every cone is read off the endpoint index, so the
    # fiber limit and its image under R read only object parts
    images = []

    def recording(dg):
        images.append(dg)
        return limits.cones_category(dg)

    monkeypatch.setattr(theorems, "cones_category", recording)
    found = carriers_found(monkeypatch)
    d12 = divisor_lattice(12)
    adj = aft_left_adjoint(identity_functor(d12))
    fiber = adj.certificate.diagram
    assert all(obj is not fiber.source_cat.obj for obj in found)
    assert "arr" not in vars(fiber.source_cat)
    assert "f1" not in vars(fiber)
    [image] = images
    assert image.source_cat is fiber.source_cat
    assert "f1" not in vars(image)
    # read afterwards, the comma and both diagrams are still lawful
    assert validate_internal_category(fiber.source_cat) == []
    assert fiber.validate() == [] and image.validate() == []


# Category objects built by ``category_from_tables``, each with the
# categories in which the parts of its arrows after (source, target) compose.
TABLE_BUILT = {
    "cones-divisors-12": lambda: (
        cones_category(diagram_two(divisor_lattice(12), "4", "6")).cat,
        (divisor_lattice(12),)),
    "cocones-divisors-12": lambda: (
        cocones_category(diagram_two(divisor_lattice(12), "4", "6")).cat,
        (divisor_lattice(12),)),
    "cones-staged-chain-3": lambda: (
        cones_category(diagram_two(staged_chain3(), "1", "2")).cat,
        (staged_chain3(),)),
    "cocones-staged-chain-3": lambda: (
        cocones_category(diagram_two(staged_chain3(), "1", "2")).cat,
        (staged_chain3(),)),
    "comma-chain-2": lambda: (
        comma_category(identity_functor(chain_cat(2)),
                       identity_functor(chain_cat(2))).cat,
        (chain_cat(2), chain_cat(2))),
    "comma-staged-chain-3": lambda: (
        comma_category(identity_functor(staged_chain3()),
                       identity_functor(staged_chain3())).cat,
        (staged_chain3(), staged_chain3())),
}


@pytest.mark.parametrize("name", list(TABLE_BUILT))
def test_tables_built_on_first_read_are_the_eager_ones(name):
    cat, parts = TABLE_BUILT[name]()
    assert cat.validate() == []
    eager = pullback(cat.source, cat.target)
    assert cat.pairs == eager
    comps = {c: {(g, f): (f[0], g[1]) + tuple(
                     part.comp_at(c, gp, fp)
                     for part, gp, fp in zip(parts, g[2:], f[2:]))
                 for (g, f) in eager.apex.at(c)}
             for c in cat.base.objects}
    assert cat.compose == PresheafMap(eager.apex, cat.arr, comps)
    ends = arrows_by_ends(cat)
    assert arrows_by_ends(cat) is ends
    fresh = {}
    for c in cat.base.objects:
        for k in cat.arr.at(c):
            fresh.setdefault(c, {}).setdefault(
                (cat.s_at(c, k), cat.t_at(c, k)), []).append(k)
    assert ends == {c: {e: tuple(ks) for e, ks in fresh.get(c, {}).items()}
                    for c in cat.base.objects}


def name_functor(e, dg):
    """The functor from the terminal category picking ``dg`` in ``e``."""
    one = terminal_cat(e.cat.base)
    point = e.encode_functor(dg).components
    ids = {c: {"*": e.cat.id_at(c, p["*"])} for c, p in point.items()}
    return InternalFunctor(one, e.cat, PresheafMap(one.obj, e.cat.obj, point),
                           PresheafMap(one.arr, e.cat.arr, ids))


@pytest.mark.parametrize("target, x, y, sizes", [
    (divisor_lattice(12), "4", "6", {"pt": (2, 3)}),
    (staged_chain3(), "1", "2", {"c0": (2, 3), "c1": (2, 3)}),
], ids=["divisors-12", "staged-chain-3"])
def test_cone_category_agrees_with_comma_of_diagonal(target, x, y, sizes):
    # cones over D are the comma category of the constant-diagram functor
    # against the name of D, stage by stage
    dg = diagram_two(target, x, y)
    e = exponential_cat(dg.source_cat, target)
    cm = comma_category(diagonal_functor(e),
                        name_functor(e, dg))
    cns = cones_category(dg)
    counts = {c: (len(cns.cat.obj.at(c)), len(cns.cat.arr.at(c)))
              for c in target.base.objects}
    assert counts == {c: (len(cm.cat.obj.at(c)), len(cm.cat.arr.at(c)))
                      for c in target.base.objects}
    assert counts == sizes


@pytest.mark.parametrize("search, cls", [(universal_cone, Cone),
                                         (universal_cocone, Cocone)])
def test_legs_with_wrong_endpoints_are_reported_not_raised(search, cls):
    d12 = divisor_lattice(12)
    dg = diagram_two(d12, "4", "6")
    good = search(dg).candidate
    assert good.validate() == []
    one = d12.id_at("pt", "1")
    bad = cls(dg, good.vertex,
              PresheafMap(dg.source_cat.obj, d12.arr,
                          {"pt": {x: one for x in dg.source_cat.obj.at("pt")}}))
    errs = bad.validate()
    assert "leg source at 'pt':'0'" in errs
    assert "leg target at 'pt':'1'" in errs
    assert not any("condition" in e for e in errs)


def _pick(target, x):
    """The functor from the one-object category picking out ``x``."""
    return next(fn for fn in enumerate_functors(terminal_cat(target.base), target)
                if fn.on_obj("pt", "*") == x)


def test_comma_two_cells_between_mediators():
    # the 2-dimensional universal property of the comma category: a pair of
    # transformations into the legs induces the 2-cell between mediators
    # exactly when it commutes with the two squares
    par = walking_parallel_pair()
    cm = comma_category(identity_functor(par), identity_functor(par))
    s, t = _pick(par, "0"), _pick(par, "1")
    squares = enumerate_nats(compose_functors(cm.left, s),
                             compose_functors(cm.right, t))
    assert len(squares) == 2                    # the arrows one and two
    m_one, m_two = (cm.mediate(s, t, tau) for tau in squares)
    assert cm.mediate_2(m_one, m_one, identity_nat(s), identity_nat(t)) == \
        identity_nat(m_one)
    with pytest.raises(PreconditionError):
        cm.mediate_2(m_one, m_two, identity_nat(s), identity_nat(t))


def test_comma_counts_match_hom_sets():
    # objects of (F down G) are triples (x, y, arrow Fx -> Gy)
    d6 = divisor_lattice(6)
    cm = comma_category(identity_functor(d6), identity_functor(d6))
    divides = [(x, y) for x in ("1", "2", "3", "6") for y in ("1", "2", "3", "6")
               if int(y) % int(x) == 0]
    assert len(cm.cat.obj.at("pt")) == len(divides)


def test_limit_functor_computes_gcd():
    d12 = divisor_lattice(12)
    lf = limit_functor(d12, shape_two(FIN))
    for el in lf.expo.cat.obj.at("pt"):
        fn = lf.expo.decode_point(point_of(lf.expo.cat.obj, {"pt": el}))
        x, y = int(fn.on_obj("pt", "0")), int(fn.on_obj("pt", "1"))
        assert lf.functor.f0.components["pt"][el] == str(math.gcd(x, y))
    assert lf.functor.validate() == []
    assert lf.unit.validate() == []
    assert lf.counit.validate() == []
    assert lf.unit_is_iso


def test_limit_functor_parallel_pair_in_poset_is_source():
    c3 = chain_cat(3)
    lp = limit_functor(c3, shape_parallel_pair(FIN))
    assert lp.functor.validate() == []
    assert lp.unit_is_iso


def test_special_right_adjoints_terminal_product_equalizer():
    d12 = divisor_lattice(12)
    sa = special_right_adjoint(d12, "terminal")
    assert sa.right.f0.components["pt"]["*"] == "12"
    sb = special_right_adjoint(d12, "binary_product")
    for pair in sb.direct_cat.obj.at("pt"):
        assert sb.right.f0.components["pt"][pair] == \
            str(math.gcd(int(pair[0]), int(pair[1])))
    c3 = chain_cat(3)
    sc = special_right_adjoint(c3, "equalizer")
    for o in sc.direct_cat.obj.at("pt"):
        x, y, (f, g) = o
        assert sc.right.f0.components["pt"][o] == c3.s_at("pt", f)


def test_special_right_adjoint_refusal_carries_witness():
    p = incomparable_pair()
    rf = special_right_adjoint(p, "binary_product")
    assert isinstance(rf, Refusal) and rf.kind == "no_right_adjoint"
    assert sorted(rf.details["witness"]) == ["a", "b"]
    # the empty shape has one functor, which the comparison names "*"
    rt = special_right_adjoint(p, "terminal")
    assert isinstance(rt, Refusal) and rt.details["witness"] == "*"


def test_certified_adjunction_refuses_a_counit_that_breaks_a_triangle():
    a = walking_idempotent()
    i = identity_functor(a)
    ids = {c: {x: a.id_at(c, x) for x in a.obj.at(c)} for c in a.base.objects}
    unit, counit = certified_adjunction(i, i, ids, ids, "identity")
    assert unit.target == counit.source == i
    # e is idempotent, so the transformation with every component e is
    # natural, but it is not an identity
    e = {c: {x: "e" for x in a.obj.at(c)} for c in a.base.objects}
    with pytest.raises(CertificateError) as exc:
        certified_adjunction(i, i, ids, e, "probe")
    assert str(exc.value) == \
        "probe: ['first triangle identity fails', 'second triangle identity fails']"


def test_certified_adjunction_refuses_an_unnatural_unit():
    # S3 as a one-object category: a transposition t as both unit and
    # counit of the identity passes both triangle identities (t . t = 1),
    # but it commutes with no 3-cycle, so neither family is natural
    perms = ["".join(p) for p in itertools.permutations("012")]
    s3 = from_finite_category(FIN, IndexCategory(
        objects=("*",), arrows=tuple(perms), src=dict.fromkeys(perms, "*"),
        tgt=dict.fromkeys(perms, "*"), identity={"*": "012"},
        compose={(g, f): "".join(g[int(i)] for i in f) for g in perms for f in perms}))
    assert validate_internal_category(s3) == []
    i = identity_functor(s3)
    t = {c: {"*": "102"} for c in s3.base.objects}
    with pytest.raises(CertificateError) as exc:
        certified_adjunction(i, i, t, t, "probe")
    assert str(exc.value) == ("probe: [\"unit naturality square fails at 'pt':'021'\", "
                              "\"counit naturality square fails at 'pt':'021'\"]")
    # the identity adjunction on a category that is not thin still certifies
    a = walking_idempotent()
    assert not is_thin(a)
    ids = {c: {x: a.id_at(c, x) for x in a.obj.at(c)} for c in a.base.objects}
    unit, counit = certified_adjunction(identity_functor(a), identity_functor(a), ids, ids, "id")
    assert unit.component.components == counit.component.components == ids


def test_certified_adjunction_refuses_a_unit_that_is_not_a_presheaf_map():
    # Z2 as a constant category over the 2-stage chain: the swap at c0 and
    # the identity at c1, as both unit and counit of the identity, is
    # natural at each stage and passes both triangle identities stage by
    # stage, but restricting the identity at c1 to c0 does not give the
    # swap, so neither family is a map of presheaves
    z2 = IndexCategory(
        objects=("*",), arrows=("1", "s"), src=dict.fromkeys("1s", "*"),
        tgt=dict.fromkeys("1s", "*"), identity={"*": "1"},
        compose={("1", "1"): "1", ("1", "s"): "s", ("s", "1"): "s", ("s", "s"): "1"})
    a = from_finite_category(CHAIN2, z2)
    assert validate_internal_category(a) == []
    i = identity_functor(a)
    t = {"c0": {"*": "s"}, "c1": {"*": "1"}}
    nt = InternalNatTrans(i, i, PresheafMap(a.obj, a.arr, t))
    assert validate_internal_nat(nt) == ["component: naturality fails along ('c0', 'c1') at '*'"]
    with pytest.raises(CertificateError) as exc:
        certified_adjunction(i, i, t, t, "probe")
    assert str(exc.value) == (
        "probe: [\"unit is not natural along base arrow ('c0', 'c1') at '*'\", "
        "\"counit is not natural along base arrow ('c0', 'c1') at '*'\"]")
    # the identity tables certify
    ids = {c: {"*": "1"} for c in CHAIN2.objects}
    unit, _ = certified_adjunction(i, i, ids, ids, "id")
    assert unit.component.components == ids


def test_special_right_adjoint_equalizer_refusal_names_the_parallel_pair():
    # the walking parallel pair has no equalizer of its two arrows
    rf = special_right_adjoint(walking_parallel_pair(), "equalizer")
    assert isinstance(rf, Refusal) and rf.kind == "no_right_adjoint"
    assert rf.details["witness"] == ("0", "1", ("one", "two"))


def test_parallel_arrows_of_discrete_are_doubled_identities():
    x = Presheaf(FIN, {"pt": ("x", "y")}, {"id_pt": {"x": "x", "y": "y"}})
    par, dbl = parallel_arrows_category(discrete(x))
    assert validate_internal_category(par) == []
    assert set(par.obj.at("pt")) == {("x", "x", ("x", "x")), ("y", "y", ("y", "y"))}
    assert dbl.validate() == []
    # in a poset each hom-set holds at most one arrow: one pair per arrow
    c3 = chain_cat(3)
    par, dbl = parallel_arrows_category(c3)
    assert validate_internal_category(par) == [] and dbl.validate() == []
    assert (len(par.obj.at("pt")), len(par.arr.at("pt"))) == (6, 20)
    for x, y, (f, g) in par.obj.at("pt"):
        assert f == g and (c3.s_at("pt", f), c3.t_at("pt", f)) == (x, y)


# --- the chain base: stages genuinely interact ---


def chain_diagram():
    base = CHAIN2
    a = from_finite_category(base, IndexCategory.chain(3))
    two = shape_two(base)
    dg = InternalFunctor(
        two, a,
        PresheafMap(two.obj, a.obj,
                    {c: {"0": "c0", "1": "c2"} for c in base.objects}),
        PresheafMap(two.arr, a.arr,
                    {c: {("id", "0"): ("c0", "c0"), ("id", "1"): ("c2", "c2")}
                     for c in base.objects}))
    return a, dg


def test_chain_base_universal_cones():
    a, dg = chain_diagram()
    assert dg.validate() == []
    cert = universal_cone(dg)
    assert all(certified_vertex(cert, c) == "c0" for c in CHAIN2.objects)
    coc = universal_cocone(dg)
    assert all(certified_vertex(coc, c) == "c2" for c in CHAIN2.objects)


def test_opposite_swaps_limit_and_colimit_vertices():
    a, dg = chain_diagram()
    op = opposite(a)
    dg_op = InternalFunctor(shape_two(CHAIN2), op, dg.f0, dg.f1)
    assert dg_op.validate() == []
    cert_op = universal_cone(dg_op)
    coc = universal_cocone(dg)
    for c in CHAIN2.objects:
        assert certified_vertex(cert_op, c) == certified_vertex(coc, c) == "c2"


def test_transport_along_representable_stays_terminal():
    a, dg = chain_diagram()
    cert = universal_cone(dg)
    site, proj = elements_category(representable(CHAIN2, "c1"))
    dg_r = restrict_functor(proj, dg)
    moved = transport_certificate(cert, proj, dg_r)
    assert isinstance(moved, UniversalCertificate)
    assert all(certified_vertex(moved, so) == "c0" for so in site.objects)
    assert moved.candidate.validate() == []


@pytest.mark.parametrize("test, vertex", [
    (is_internal_terminal, "6"), (is_internal_initial, "1"),
], ids=["terminal", "initial"])
def test_transport_refuses_a_certificate_without_a_diagram(test, vertex):
    a = divisor_lattice(6)
    cert = test(a, point_of(a.obj, {"pt": vertex}))
    assert isinstance(cert, UniversalCertificate)
    with pytest.raises(PreconditionError,
                       match="certificate does not carry a cone category"):
        transport_certificate(cert, elements_category(a.obj)[1])


@pytest.mark.parametrize("test, vertex", [
    (is_internal_terminal, "6"), (is_internal_initial, "1"),
], ids=["terminal", "initial"])
def test_mediator_from_refuses_a_certificate_without_cones(test, vertex):
    a = divisor_lattice(6)
    cert = test(a, point_of(a.obj, {"pt": vertex}))
    assert isinstance(cert, UniversalCertificate) and cert.cones is None
    asked = []
    with pytest.raises(PreconditionError,
                       match="certificate does not carry a cone category"):
        cert.mediator_from("pt", vertex, lambda: asked.append(vertex))
    assert asked == []


def test_transport_refuses_a_diagram_over_another_base():
    cert = universal_cone(diagram_two(divisor_lattice(12), "4", "6"))
    proj = elements_category(representable(FIN, "pt"))[1]
    with pytest.raises(PreconditionError, match="does not live over the source"):
        transport_certificate(cert, proj, cert.diagram)


def _transport_solver_calls(monkeypatch):
    """The diagrams whose cone categories the solver searches from now on;
    a cocone category records the opposite diagram."""
    searched = []
    real = limits._cone_category

    def recorded(dg):
        searched.append(dg)
        return real(dg)

    monkeypatch.setattr(limits, "_cone_category", recorded)
    return searched


def test_transport_rebuilds_along_a_functor_that_is_no_discrete_fibration(monkeypatch):
    cert = universal_cone(diagram_two(divisor_lattice(12), "4", "6"))
    # both arrows into c1 go to the one arrow into pt
    const = IndexFunctor(CHAIN2, FIN, {c: "pt" for c in CHAIN2.objects},
                         {w: "id_pt" for w in CHAIN2.arrows})
    dg2 = restrict_functor(const, cert.diagram)
    searched = _transport_solver_calls(monkeypatch)
    moved = transport_certificate(cert, const, dg2)
    assert searched == [dg2] and searched[0] is dg2
    assert isinstance(moved, UniversalCertificate)
    assert moved.candidate.legs.components == {
        c: {"0": ("2", "4"), "1": ("2", "6")} for c in CHAIN2.objects}
    assert [len(moved.cones.cat.obj.at(c)) for c in CHAIN2.objects] == [2, 2]


def test_transport_rebuilds_over_a_diagram_that_is_no_restriction(monkeypatch):
    cert = universal_cone(diagram_two(divisor_lattice(12), "4", "6"))
    site, proj = elements_category(representable(FIN, "pt"))
    # the same pair, in the divisors of 24 rather than of 12
    dg2 = restrict_functor(proj, diagram_two(divisor_lattice(24), "4", "6"))
    searched = _transport_solver_calls(monkeypatch)
    moved = transport_certificate(cert, proj, dg2)
    assert searched == [dg2] and searched[0] is dg2
    assert isinstance(moved, UniversalCertificate)
    assert moved.candidate.legs.components == {
        site.objects[0]: {"0": ("2", "4"), "1": ("2", "6")}}
    assert moved.cones.cat.obj.at(site.objects[0])[0][0] == "1"


def _small_target(draw, base, divisors_of=(6, 8, 12)):
    """A chain of 1 to 4 elements or a lattice of divisors or subsets,
    constant over ``base``."""
    kind = draw(st.sampled_from(["chain", "divisors", "powerset"]))
    if kind == "chain":
        return chain_cat(draw(st.integers(1, 4)), base)
    if kind == "divisors":
        n = draw(st.sampled_from(divisors_of))
        elems = [str(d) for d in range(1, n + 1) if n % d == 0]
        return poset_cat(elems, [(x, y) for x in elems for y in elems
                                 if int(y) % int(x) == 0], base)
    return poset_cat(("0", "a", "b", "ab"),
                     [("0", "a"), ("0", "b"), ("a", "ab"), ("b", "ab")], base)


CHAIN_BASES = (FIN, CHAIN2, IndexCategory.chain(3))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_transport_along_elements_of_representables_reindexes(data):
    # criterion 3's reindexings: representables and binary coproducts
    base = data.draw(st.sampled_from(CHAIN_BASES))
    target = _small_target(data.draw, base)
    x, y = (data.draw(st.sampled_from(target.obj.at(base.objects[0])))
            for _ in range(2))
    dg = diagram_two(target, x, y)
    cert = data.draw(st.sampled_from([universal_cone, universal_cocone]))(dg)
    reps = [representable(base, c) for c in base.objects]
    index = data.draw(st.sampled_from(
        reps + [coproduct(r1, r2)[0] for r1 in reps for r2 in reps]))
    q = elements_category(index)[1]
    moved = transport_certificate(cert, q, restrict_functor(q, dg))
    assert isinstance(moved, UniversalCertificate)
    assert moved.candidate.validate() == []
    for s in q.source.objects:
        assert certified_vertex(moved, s) == certified_vertex(cert, q.on_obj[s])
        assert moved.candidate.legs.components[s] == \
            cert.candidate.legs.components[q.on_obj[s]]


def _transported_arrow_part_and_unit(lf):
    """The arrow part and the unit of a limit functor mediated against its
    certificate transported along the elements-category maps into the
    functor-space site: the source and the target of a transformation,
    and the constant diagram on an object."""
    a, e, cert, delta = lf.functor.target_cat, lf.expo, lf.certificate, lf.diagonal
    base, site = a.base, cert.subject.base
    site_n = elements_category(e.cat.arr)[0]
    to_src, to_tgt = (IndexFunctor(site_n, site,
                                   {so: (so[0], so[1][i]) for so in site_n.objects},
                                   {w: (w[0], w[1][i]) for w in site_n.arrows})
                      for i in (0, 1))
    site_a = elements_category(a.obj)[0]
    to_diag = IndexFunctor(
        site_a, site,
        {so: (so[0], delta.f0.components[so[0]][so[1]]) for so in site_a.objects},
        {w: (w[0], delta.f0.components[base.tgt[w[0]]][w[1]]) for w in site_a.arrows})
    cert_s, cert_t, cert_d = (transport_certificate(cert, q)
                              for q in (to_src, to_tgt, to_diag))
    for moved in (cert_s, cert_t, cert_d):
        assert isinstance(moved, UniversalCertificate)

    def pushed(so):
        talpha = fam_dict(so[1][2])
        o = cert_s.object_at(so)
        ts = cert_s.cones.legs_of(o)
        return cert_t.cones.cone_at(
            so, cert_s.cones.vertex_of(o),
            lambda w, d: a.comp_at(site_n.src[w][0], talpha[(w[0], d)], ts[(w, d)]))

    def identity_cone(c, x):
        return cert_d.cones.cone_at(
            (c, x), x, lambda w, d: a.id_at(site_a.src[w][0], a.obj.action[w[0]][x]))

    lim1 = {c: {t: cert_t.mediator_at((c, t), pushed((c, t))) for t in e.cat.arr.at(c)}
            for c in base.objects}
    unit = {c: {x: cert_d.mediator_at((c, x), identity_cone(c, x)) for x in a.obj.at(c)}
            for c in base.objects}
    return lim1, unit


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_limit_functor_reads_what_its_transports_give(data):
    base = data.draw(st.sampled_from(CHAIN_BASES))
    target = _small_target(data.draw, base, divisors_of=(6, 8))
    shape = data.draw(st.sampled_from([initial_cat, shape_two, shape_parallel_pair]))(base)
    lf = limit_functor(target, shape)
    assert lf.functor.validate() == []
    lim1, unit = _transported_arrow_part_and_unit(lf)
    assert lf.functor.f1.components == lim1
    assert lf.unit.component.components == unit


def test_transport_orders_relabelled_cones_as_the_solver_does():
    # Over chain 2, two parallel arrows f, g : 0 -> 1 that restriction
    # swaps; over the chain y < x the arrow into x that sorts first is the
    # identity, not the restriction, so renaming the leg keys of the two
    # cones at vertex 0 reverses their sort order; the rebuilt cone
    # category keeps the solver's order.
    up, arrows = ("c0", "c1"), ("i0", "i1", "f", "g")
    swap = {"i0": "i0", "i1": "i1", "f": "g", "g": "f"}
    ends = {"i0": ("0", "0"), "i1": ("1", "1"), "f": ("0", "1"), "g": ("0", "1")}
    obj = Presheaf(CHAIN2, {c: ("0", "1") for c in CHAIN2.objects},
                   {u: {"0": "0", "1": "1"} for u in CHAIN2.arrows})
    arr = Presheaf(CHAIN2, {c: arrows for c in CHAIN2.objects},
                   {u: swap if u == up else {h: h for h in arrows} for u in CHAIN2.arrows})
    a = make_internal_category(
        obj, arr,
        PresheafMap(arr, obj, {c: {h: e[0] for h, e in ends.items()} for c in CHAIN2.objects}),
        PresheafMap(arr, obj, {c: {h: e[1] for h, e in ends.items()} for c in CHAIN2.objects}),
        PresheafMap(obj, arr, {c: {"0": "i0", "1": "i1"} for c in CHAIN2.objects}),
        lambda c, g, f: f if g in ("i0", "i1") else g)
    assert a.validate() == []
    one = from_finite_category(CHAIN2, IndexCategory.discrete(("0",)))
    dg = InternalFunctor(
        one, a, PresheafMap(one.obj, a.obj, {c: {"0": "1"} for c in CHAIN2.objects}),
        PresheafMap(one.arr, a.arr, {c: {("id", "0"): "i1"} for c in CHAIN2.objects}))
    cert = universal_cone(dg)
    assert isinstance(cert, UniversalCertificate)
    yx = IndexCategory.poset(("y", "x"), [("y", "x")])
    q = IndexFunctor(yx, CHAIN2, {"y": "c0", "x": "c1"},
                     {("y", "y"): ("c0", "c0"), ("y", "x"): up, ("x", "x"): ("c1", "c1")})
    moved = transport_certificate(cert, q)
    assert isinstance(moved, UniversalCertificate)
    assert [moved.cones.legs_at_identity("x", o)["0"]
            for o in moved.cones.cat.obj.at("x")] == ["f", "g", "i1"]


def test_limit_functor_over_chain_base():
    a, _ = chain_diagram()
    lf = limit_functor(a, shape_two(CHAIN2))
    assert lf.functor.validate() == []
    assert lf.unit_is_iso
    lp = limit_functor(a, shape_parallel_pair(CHAIN2))
    assert lp.functor.validate() == []
    assert lp.unit_is_iso


def test_chain_base_special_adjoint_is_minimum():
    a, _ = chain_diagram()
    sa = special_right_adjoint(a, "binary_product")
    for c in CHAIN2.objects:
        for pair in sa.direct_cat.obj.at(c):
            low = min(pair, key=lambda s: int(s[1:]))
            assert sa.right.f0.components[c][pair] == low
