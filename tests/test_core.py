"""Category objects, functors between them, and their dualities."""

import itertools
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import intcat.core as core
from intcat.ambient import (
    IndexCategory, Presheaf, PresheafMap, PreconditionError, elements_category,
    restrict, restrict_map,
)
from intcat.core import (
    InternalFunctor, adjunction_check, arrows_at, arrows_by_ends, compose_functors,
    dis_u_ind_adjunctions, discrete, enumerate_functors, from_finite_category,
    identity_functor, identity_nat, indiscrete, initial_cat, is_thin,
    make_internal_category, nat_is_iso, opposite, points_of_cat, product_cat,
    restrict_cat, terminal_cat, unique_to_terminal_cat, validate_internal_category,
    validate_internal_functor, validate_internal_nat,
)
from intcat.fixtures import (
    CHAIN2, all_lattices, chain_cat, corpus, discrete_cat, divisor_lattice,
    indiscrete_cat, poset_cat, staged_chain3, staged_discrete, staged_indiscrete,
    walking_idempotent, walking_parallel_pair,
)
from intcat.formats import parse_document
from intcat.limits import cones_category, limit_functor, shape_two
from intcat.theorems import aft_left_adjoint
from oracles import (
    enumerate_nats, horizontal_compose, vertical_compose, whisker_left, whisker_right,
)

FIN = IndexCategory.finset()


def test_corpus_categories_satisfy_all_laws():
    for name, cat in corpus():
        assert validate_internal_category(cat) == [], name


def test_staged_chain_lives_over_its_base():
    c3 = staged_chain3()
    assert c3.base == CHAIN2
    assert validate_internal_category(c3) == []


RESTRICTED = pytest.mark.parametrize(
    "make", [staged_chain3, lambda: divisor_lattice(12), staged_indiscrete],
    ids=["staged_chain_three", "divisors_12", "staged_indiscrete"])


@RESTRICTED
def test_restrict_cat_tables_equal_the_rebuilt_ones(make):
    a = make()
    _, proj = elements_category(a.obj)
    restricted = restrict_cat(proj, a)
    rebuilt = make_internal_category(
        restrict(proj, a.obj), restrict(proj, a.arr), restrict_map(proj, a.source),
        restrict_map(proj, a.target), restrict_map(proj, a.identity),
        lambda d, g, f: a.comp_at(proj.on_obj[d], g, f))
    assert restricted.pairs == rebuilt.pairs
    assert restricted.compose == rebuilt.compose
    assert restricted == rebuilt
    assert validate_internal_category(restricted) == []
    # the restricted pullback mediates h |-> (id at the target of h, h) ...
    to_id = restricted.target.then(restricted.identity)
    one = PresheafMap.identity(restricted.arr)
    pair = restricted.pairs.mediate([to_id, one])
    assert pair == rebuilt.pairs.mediate([to_id, one])
    assert pair.then(restricted.compose) == one
    # ... and refuses the pair (h, h), which does not commute
    with pytest.raises(PreconditionError):
        restricted.pairs.mediate([one, one])


@RESTRICTED
def test_restrict_cat_forces_no_table_of_its_original(make, monkeypatch):
    a = make()
    _, proj = elements_category(a.obj)
    built = []
    real = core.pullback

    def counted(source, target):
        built.append(source)
        return real(source, target)

    monkeypatch.setattr(core, "pullback", counted)
    restricted = restrict_cat(proj, a)
    assert restricted.compose.validate() == []
    assert built == [restricted.source]     # its own pairs, none of ``a``
    assert "_composition" not in vars(a)


@pytest.mark.parametrize("make", [
    staged_chain3, lambda: divisor_lattice(12), staged_indiscrete, walking_idempotent,
], ids=["staged_chain_three", "divisors_12", "staged_indiscrete", "walking_idempotent"])
def test_restrict_cat_reads_the_indexes_of_its_original(make):
    # one stage per element, each reading the original's index at p(d)
    # rather than building a copy
    a = make()
    _, proj = elements_category(a.obj)
    restricted = restrict_cat(proj, a)
    ends = arrows_by_ends(restricted)
    for d in proj.source.objects:
        c = proj.on_obj[d]
        assert ends[d] is arrows_by_ends(a)[c]
        for o in restricted.obj.at(d):
            into = arrows_at(restricted, d, o)
            assert into == arrows_at(a, c, o)
            assert not into or into is arrows_at(a, c, o)
    assert is_thin(restricted) == is_thin(a)
    assert core._thin_stages(restricted) == {
        d: core._thin_stages(a)[proj.on_obj[d]] for d in proj.source.objects}
    assert restricted.source.source is restricted.arr
    assert restricted.identity.source is restricted.obj


def test_a_functor_whose_arrow_part_is_unread_equals_it_read():
    c2 = chain_cat(2)
    fns = enumerate_functors(c2, c2)
    i = identity_functor(c2)
    read = compose_functors(i, fns[1])
    read.f1
    assert "f1" in vars(read)
    assert "f1" not in vars(compose_functors(i, fns[1]))
    assert compose_functors(i, fns[1]) == read
    assert read == compose_functors(i, fns[1])
    assert repr(compose_functors(i, fns[1])) == repr(read)
    assert repr(read).startswith("InternalFunctor(source_cat=")
    assert InternalFunctor(c2, c2, fns[1].f0, lambda: fns[1].f1) == fns[1]
    # an unread arrow part that differs is still told apart
    assert InternalFunctor(c2, c2, fns[1].f0, lambda: fns[2].f1) != fns[1]
    with pytest.raises(TypeError):
        hash(compose_functors(i, fns[1]))
    # the arrow parts' endpoints are checked when composed, on first read
    wrong = InternalFunctor(c2, c2, i.f0, lambda: PresheafMap.identity(c2.obj))
    lazy = compose_functors(i, wrong)
    with pytest.raises(PreconditionError):
        lazy.f1


def one_object_monoid(square):
    """The monoid {1, e} as a one-object category, with ``e after e`` given."""
    obj = Presheaf(FIN, {"pt": ("*",)}, {"id_pt": {"*": "*"}})
    arr = Presheaf(FIN, {"pt": ("1", "e")}, {"id_pt": {"1": "1", "e": "e"}})
    ends = PresheafMap(arr, obj, {"pt": {"1": "*", "e": "*"}})
    unit = PresheafMap(obj, arr, {"pt": {"*": "1"}})
    return make_internal_category(
        obj, arr, ends, ends, unit,
        lambda c, g, f: f if g == "1" else g if f == "1" else square)


def test_categories_differing_only_in_composition_are_unequal(monkeypatch):
    built = []
    real = core.pullback

    def counted(source, target):
        built.append(source)
        return real(source, target)

    monkeypatch.setattr(core, "pullback", counted)
    idem, invol = one_object_monoid("e"), one_object_monoid("1")
    assert idem == idem and not built       # built on first read, not before
    assert idem.obj == invol.obj and idem.arr == invol.arr
    assert idem != invol
    assert len(built) == 2
    assert idem == one_object_monoid("e")
    assert invol == one_object_monoid("1")
    assert repr(idem) != repr(invol)
    assert repr(idem).startswith("InternalCategory(obj=")
    assert [validate_internal_category(m) for m in (idem, invol)] == [[], []]
    assert (idem.comp_at("pt", "e", "e"), invol.comp_at("pt", "e", "e")) == ("e", "1")


def test_identity_with_wrong_endpoints_is_reported_not_composed():
    a = poset_cat(("a", "b"), [("a", "b")])
    bent = make_internal_category(
        a.obj, a.arr, a.source, a.target,
        PresheafMap(a.obj, a.arr, {"pt": {"a": ("a", "a"), "b": ("a", "a")}}),
        lambda c, g, f: a.comp_at(c, g, f))
    assert validate_internal_category(bent) == [
        "source of identity at 'pt':'b'", "target of identity at 'pt':'b'"]
    assert elementwise(validate_internal_category, bent) == validate_internal_category(bent)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=8))), st.data())
def test_repointed_composite_is_reported_never_raised(case, data):
    n, rel = case
    elems = tuple(f"e{i}" for i in range(n))
    a = poset_cat(elems, [(elems[x], elems[y]) for x, y in rel if x < y])
    assert a.validate() == []
    key = data.draw(st.sampled_from(a.composable_pairs("pt")))
    other = data.draw(st.sampled_from(
        [u for u in a.arr.at("pt") if u != a.comp_at("pt", *key)]))
    bent = make_internal_category(
        a.obj, a.arr, a.source, a.target, a.identity,
        lambda c, g, f: other if (g, f) == key else a.comp_at(c, g, f))
    # hom-sets of a poset hold one arrow, so the new composite has the
    # wrong endpoints
    assert bent.validate() != []
    assert elementwise(validate_internal_category, bent) == bent.validate()


def test_chain_of_forty_validates_within_a_second():
    a = chain_cat(40)
    a.compose                   # built on first read; not part of the check
    start = time.process_time()
    assert validate_internal_category(a) == []
    assert time.process_time() - start < 1.0


def elementwise(check, *args):
    """``check(*args)`` with no stage read as thin, so that every law is
    composed elementwise and none is decided by its ends."""
    thin = core._thin_stages
    core._thin_stages = lambda b: dict.fromkeys(b.base.objects, False)
    try:
        return check(*args)
    finally:
        core._thin_stages = thin


def finite_cat(objects, arrows, composites):
    """The category on ``objects`` with the arrows ``name: (source, target)``
    and the composites ``(g, f): g after f`` given; identities are added."""
    ids = {o: f"id_{o}" for o in objects}
    ends = {**{i: (o, o) for o, i in ids.items()}, **arrows}
    compose = dict(composites)
    for h, (s, t) in ends.items():
        compose[(h, ids[s])] = compose[(ids[t], h)] = h
    return from_finite_category(FIN, IndexCategory(
        tuple(objects), tuple(ends), {h: e[0] for h, e in ends.items()},
        {h: e[1] for h, e in ends.items()}, ids, compose))


def two_paths():
    """a -> b -> d and a -> c -> d with different composites: not thin."""
    return finite_cat("abcd", {"f": ("a", "b"), "g": ("b", "d"), "h": ("a", "c"),
                               "k": ("c", "d"), "gf": ("a", "d"), "kh": ("a", "d")},
                      {("g", "f"): "gf", ("k", "h"): "kh"})


def lopsided_magma():
    """One object, arrows x and y, with x . (x . x) = x but (x . x) . x = y."""
    return finite_cat("*", {"x": ("*", "*"), "y": ("*", "*")},
                      {("x", "x"): "y", ("x", "y"): "x", ("y", "x"): "y", ("y", "y"): "y"})


def validator_inputs():
    """(name, category): the corpus, the fixture documents' categories,
    every lattice on at most 5 elements, indiscrete and staged forms, and
    categories that are not thin, one with an associativity fault."""
    yield from corpus()
    for path in sorted((Path(__file__).parent.parent / "fixtures").glob("*.ct")):
        env = parse_document(path.read_text()).env
        yield from ((f"{path.name}/{k}", v) for k, v in env["cats"].items())
    yield from ((f"lattice{i}", a) for i, a in enumerate(all_lattices(5)))
    yield from ((f"indiscrete{n}", indiscrete_cat("abc"[:n])) for n in (1, 2, 3))
    yield from (("staged_discrete", staged_discrete()), ("staged_indiscrete", staged_indiscrete()),
                ("staged_chain3", staged_chain3()), ("walking_idempotent", walking_idempotent()),
                ("walking_parallel_pair", walking_parallel_pair()), ("two_paths", two_paths()),
                ("lopsided_magma", lopsided_magma()), ("involution", one_object_monoid("1")))


def test_category_laws_read_by_ends_agree_with_the_elementwise_loops():
    cats = list(validator_inputs())
    faulty = set()
    for name, a in cats:
        want = elementwise(validate_internal_category, a)
        assert validate_internal_category(a) == want, name
        faulty.update(want)
    # the magma is the one lawless input: its stage is not thin
    assert faulty == set(validate_internal_category(lopsided_magma()))
    assert "associativity at 'pt':('x','x','x')" in faulty
    assert not all(is_thin(a) for _, a in cats) and any(is_thin(a) for _, a in cats)


def test_faults_the_ends_do_not_decide_are_composed_and_reported():
    # an associativity fault at a stage that is not thin
    assert validate_internal_category(lopsided_magma())[0] == "associativity at 'pt':('x','x','x')"
    # a functor that breaks composition into a target that is not thin
    invol, idem = one_object_monoid("1"), walking_idempotent()
    fn = InternalFunctor(invol, idem, PresheafMap(invol.obj, idem.obj, {"pt": {"*": "*"}}),
                         PresheafMap(invol.arr, idem.arr, {"pt": {"1": "id", "e": "e"}}))
    assert validate_internal_functor(fn) == ["composition not preserved at 'pt':('e','e')"]
    # a transformation whose squares fail in a target that is not thin
    c2, pair = chain_cat(2), walking_parallel_pair()
    f, g = (InternalFunctor(c2, pair, PresheafMap(c2.obj, pair.obj, {"pt": {"0": "0", "1": "1"}}),
                            PresheafMap(c2.arr, pair.arr, {"pt": {
                                ("0", "0"): "id_0", ("1", "1"): "id_1", ("0", "1"): h}}))
            for h in ("one", "two"))
    nt = core.InternalNatTrans(f, g, PresheafMap(c2.obj, pair.arr,
                                                 {"pt": {"0": "id_0", "1": "id_1"}}))
    assert validate_internal_nat(nt) == ["naturality square at 'pt':('0', '1')"]


def test_thin_stages_with_the_right_ends_compose_nothing():
    a = chain_cat(6)
    reads = []

    class Counted(dict):
        def __getitem__(self, key):
            reads.append(key)
            return dict.__getitem__(self, key)
    a.compose.components["pt"] = Counted(a.compose.components["pt"])
    assert validate_internal_category(a) == []
    assert len(reads) == len(a.composable_pairs("pt"))     # the end checks alone
    reads.clear()
    assert elementwise(validate_internal_category, a) == [] and len(reads) > 0


def test_thinness_is_read_once_per_object_with_its_endpoint_index(monkeypatch):
    cats = dict(validator_inputs())
    for name, a in cats.items():
        want = {c: all(len(ks) == 1 for ks in groups.values())
                for c, groups in arrows_by_ends(a).items()}
        assert core._thin_stages(a) == want and is_thin(a) == all(want.values()), name
        op = opposite(a)
        assert core._thin_stages(op) is core._thin_stages(a), name
    assert [n for n, a in cats.items() if not is_thin(a)] == [
        "walking_idempotent", "walking_parallel_pair", "two_paths", "lopsided_magma",
        "involution"]

    def unread(b):
        raise AssertionError("the endpoint index was read again")
    monkeypatch.setattr(core, "arrows_by_ends", unread)
    assert [is_thin(a) for a in cats.values()] == [is_thin(a) for a in cats.values()]


def test_divisor_lattice_sizes():
    d12 = divisor_lattice(12)
    assert len(d12.obj.at("pt")) == 6
    assert len(d12.arr.at("pt")) == 18


def test_walking_idempotent_composition():
    w = walking_idempotent()
    assert w.comp_at("pt", "e", "e") == "e"
    assert validate_internal_category(w) == []


def test_discrete_has_only_identities():
    x = Presheaf(FIN, {"pt": ("a", "b")}, {"id_pt": {"a": "a", "b": "b"}})
    d = discrete(x)
    assert len(d.arr.at("pt")) == 2
    assert all(d.s_at("pt", h) == d.t_at("pt", h) for h in d.arr.at("pt"))


def test_indiscrete_has_one_arrow_per_ordered_pair():
    x = Presheaf(FIN, {"pt": ("a", "b", "c")},
                 {"id_pt": {c: c for c in "abc"}})
    i = indiscrete(x)
    assert len(i.arr.at("pt")) == 9
    ends = {(i.s_at("pt", h), i.t_at("pt", h)) for h in i.arr.at("pt")}
    assert len(ends) == 9


def test_opposite_swaps_endpoints_and_is_involutive():
    for name, cat in corpus():
        op = opposite(cat)
        assert validate_internal_category(op) == [], name
        assert op.validate() == [], name
        assert opposite(op) == cat, name
        # a view's opposite is its original, so one round trip is exact
        assert opposite(op) is cat or opposite(cat) is op, name
        for c in cat.base.objects:
            for h in cat.arr.at(c):
                assert op.s_at(c, h) == cat.t_at(c, h)
                assert op.t_at(c, h) == cat.s_at(c, h)
            pairs = cat.composable_pairs(c)
            assert sorted(op.composable_pairs(c), key=repr) == \
                sorted(((g, f) for f, g in pairs), key=repr), name
            for f, g in pairs:
                assert op.comp_at(c, g, f) == cat.comp_at(c, f, g), name


def pair_in_divisors_12():
    """The diagram picking out 4 and 6 in the divisors of 12."""
    return next(fn for fn in enumerate_functors(shape_two(FIN), divisor_lattice(12))
                if (fn.on_obj("pt", "0"), fn.on_obj("pt", "1")) == ("4", "6"))


def test_opposite_of_an_unread_cone_category_reads_nothing(monkeypatch):
    built = []
    real = core.pullback

    def counted(source, target):
        built.append(source)
        return real(source, target)

    cns = cones_category(pair_in_divisors_12())
    monkeypatch.setattr(core, "pullback", counted)
    op = opposite(cns.cat)
    assert opposite(op) is cns.cat and op.obj is cns.cat.obj
    assert "arr" not in vars(cns.cat) and "arr" not in vars(op)
    assert built == []
    assert op.validate() == [] and len(built) == 1   # the view's own pairs
    assert "arr" in vars(cns.cat) and len(built) == 1


def grouped(b, c, o, end):
    """The arrows of ``b`` at stage ``c`` whose ``end`` (0 source, 1 target)
    is ``o``, grouped by the other end, in carrier order."""
    ends = (b.source.components[c], b.target.components[c])
    out = {}
    for h in b.arr.at(c):
        if ends[end][h] == o:
            out.setdefault(ends[1 - end][h], []).append(h)
    return [(x, tuple(hs)) for x, hs in out.items()]


def test_arrows_at_reads_into_an_object_and_out_of_it_in_the_opposite():
    cones = cones_category(pair_in_divisors_12()).cat
    read = 0
    for name, b in list(corpus()) + [("cones", cones)]:
        for c in b.base.objects:
            for o in b.obj.at(c):
                assert list(arrows_at(b, c, o).items()) == grouped(b, c, o, 1), name
                out = list(arrows_at(opposite(b), c, o).items())
                assert out == grouped(b, c, o, 0), name
                read += bool(out)
    assert read > 50


def test_an_opposite_view_groups_its_arrows_by_its_own_ends():
    cones = cones_category(pair_in_divisors_12()).cat
    for name, a in list(corpus()) + [("cones", cones)]:
        for b in (a, opposite(a)):
            for c, groups in core.arrows_by_ends(b).items():
                by_hand: dict = {}
                for k in b.arr.at(c):
                    by_hand.setdefault((b.s_at(c, k), b.t_at(c, k)), []).append(k)
                assert list(groups.items()) == \
                    [(ends, tuple(ks)) for ends, ks in by_hand.items()], name
                if b._opposite_of is not None:  # a view reads its original's groups
                    original = core.arrows_by_ends(b._opposite_of)[c]
                    assert all(ks is original[(t, s)] for (s, t), ks in groups.items())


def not_composable(a, c):
    return next((g, f) for g in a.arr.at(c) for f in a.arr.at(c)
                if a.s_at(c, g) != a.t_at(c, f))


@pytest.mark.parametrize("make", [
    lambda: divisor_lattice(12),
    lambda: cones_category(pair_in_divisors_12()).cat,
    lambda: opposite(divisor_lattice(12)),
], ids=["divisors_12", "cone_category", "opposite"])
def test_comp_at_refuses_a_pair_that_does_not_compose(make):
    a = make()
    c = a.base.objects[0]
    g, f = not_composable(a, c)
    named = re.escape(f"({g!r}, {f!r}) is not a composable pair at stage {c!r}")
    with pytest.raises(PreconditionError, match=named):
        a.comp_at(c, g, f)          # before the tables are built ...
    assert a.compose.validate() == []
    with pytest.raises(PreconditionError, match=named):
        a.comp_at(c, g, f)          # ... and after
    with pytest.raises(PreconditionError, match="is not a composable pair"):
        a.comp_at(c, "no arrow", f)


def test_product_cat_projections_exist():
    a, b = chain_cat(2), discrete_cat(("x", "y"))
    p = product_cat(a, b)
    assert validate_internal_category(p) == []
    assert len(p.obj.at("pt")) == 4
    assert len(p.arr.at("pt")) == 6      # 3 arrows in the chain, 2 in discrete


def test_functor_enumeration_counts():
    c2 = chain_cat(2)
    assert len(enumerate_functors(c2, c2)) == 3          # monotone endomaps
    d2 = discrete_cat(("x", "y"))
    assert len(enumerate_functors(d2, c2)) == 4
    c3 = chain_cat(3)
    assert len(enumerate_functors(c3, c3)) == 10


def test_functor_composition_is_associative():
    c2 = chain_cat(2)
    fns = enumerate_functors(c2, c2)
    for f in fns:
        for g in fns:
            for h in fns:
                assert compose_functors(h, compose_functors(g, f)) == \
                    compose_functors(compose_functors(h, g), f)


def test_identity_functor_is_neutral():
    d12 = divisor_lattice(12)
    i = identity_functor(d12)
    assert compose_functors(i, i) == i
    assert i.validate() == []


def test_nat_enumeration_and_vertical_composition():
    c2 = chain_cat(2)
    fns = enumerate_functors(c2, c2)
    for f in fns:
        for g in fns:
            nats = enumerate_nats(f, g)
            for nt in nats:
                assert nt.validate() == []
                assert vertical_compose(nt, identity_nat(f)) == nt
                assert vertical_compose(identity_nat(g), nt) == nt


def test_horizontal_composition_agrees_with_whiskering():
    c2 = chain_cat(2)
    fns = enumerate_functors(c2, c2)
    for f in fns:
        for g in fns:
            for nt in enumerate_nats(f, g):
                both = horizontal_compose(identity_nat(identity_functor(c2)), nt)
                assert both.source == f
                assert both.validate() == []


def test_terminal_and_initial_cats():
    t = terminal_cat(FIN)
    assert len(t.obj.at("pt")) == 1
    z = initial_cat(FIN)
    assert z.obj.at("pt") == ()
    assert len(enumerate_functors(z, divisor_lattice(6))) == 1
    for a in (staged_chain3(), divisor_lattice(6), z):
        bang = unique_to_terminal_cat(a)
        assert bang.target_cat == terminal_cat(a.base) and bang.validate() == []
        assert enumerate_functors(a, bang.target_cat) == [bang]


def test_points_of_exponential_like_behavior():
    # points of a constant finite category are its objects
    c2 = chain_cat(2)
    pts = points_of_cat(c2)
    assert len(pts.objects) == 2


def test_dis_u_ind_adjunction_bijections():
    d12 = divisor_lattice(12)
    for labels in (("a",), ("a", "b"), ("a", "b", "c")):
        x = Presheaf(FIN, {"pt": labels}, {"id_pt": {e: e for e in labels}})
        res = dis_u_ind_adjunctions(x, d12)
        assert res["left"]["bijection"], labels
        assert res["right"]["bijection"], labels
        assert res["left"]["functors"] == res["left"]["maps"]
        assert res["right"]["functors"] == res["right"]["maps"]


def test_adjunction_check_accepts_identity_adjunction():
    d6 = divisor_lattice(6)
    i = identity_functor(d6)
    unit = identity_nat(i)
    errs = adjunction_check(i, i, unit, unit)
    assert errs == []
    assert nat_is_iso(unit)


def test_adjunction_check_rejects_wrong_unit():
    c2 = chain_cat(2)
    fns = enumerate_functors(c2, c2)
    const0 = next(f for f in fns
                  if set(f.f0.components["pt"].values()) == {"0"})
    i = identity_functor(c2)
    # const0 is not adjoint to the identity on either side
    nats = enumerate_nats(i, const0)
    bad = [adjunction_check(const0, i, nt, nt2) == []
           for nt in enumerate_nats(i, compose_functors(i, const0))
           for nt2 in enumerate_nats(compose_functors(const0, i), i)]
    assert not any(bad)


def whiskered_triangles(l, r, unit, counit):
    """The reference for ``adjunction_check``: the triangle identities as
    equalities of natural transformations, the whiskered and vertically
    composed 2-cells compared with the identities on ``l`` and ``r``."""
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
    t1 = vertical_compose(whisker_left(counit, l), whisker_right(l, unit))
    if t1.component != identity_nat(l).component:
        out.append("first triangle identity fails")
    t2 = vertical_compose(whisker_right(r, counit), whisker_left(unit, r))
    if t2.component != identity_nat(r).component:
        out.append("second triangle identity fails")
    return out


def outcome(check, *args):
    """The list ``check`` returns, or the type and message it raises."""
    try:
        return check(*args)
    except Exception as err:
        return type(err).__name__, str(err)


def point_functor(a, pick):
    """The functor from the one-object category picking ``pick(c)`` at
    each stage c; a functor only when the picks are natural, which the
    triangle checks do not read."""
    t = terminal_cat(a.base)
    stages = a.base.objects
    return InternalFunctor(
        t, a, PresheafMap(t.obj, a.obj, {c: {"*": pick(c)} for c in stages}),
        PresheafMap(t.arr, a.arr, {c: {"*": a.id_at(c, pick(c))} for c in stages}))


def some_arrow(a, c, x, y):
    """An arrow x -> y of ``a`` at stage c, or the identity on x."""
    return arrows_by_ends(a)[c].get((x, y), (a.id_at(c, x),))[0]


def adjunction_cases():
    """(name, l, r, unit table, counit table): identity adjunctions on the
    corpus, the adjunctions between a category and the one-object category
    through a picked object, limit functors and AFT constructions."""
    for name, a in corpus():
        ids = {c: {x: a.id_at(c, x) for x in a.obj.at(c)} for c in a.base.objects}
        yield f"{name}/identity", identity_functor(a), identity_functor(a), ids, ids
    for name, a in (("walking_idempotent", walking_idempotent()),
                    ("staged_chain_three", staged_chain3()),
                    ("staged_indiscrete", staged_indiscrete()),
                    ("chain_three", chain_cat(3))):
        def pick(c, a=a):
            return a.obj.at(c)[0]
        point, bang = point_functor(a, pick), unique_to_terminal_cat(a)
        stars = {c: {"*": "*"} for c in a.base.objects}
        yield (f"{name}/point-left", point, bang, stars,
               {c: {x: some_arrow(a, c, pick(c), x) for x in a.obj.at(c)}
                for c in a.base.objects})
        yield (f"{name}/point-right", bang, point,
               {c: {x: some_arrow(a, c, x, pick(c)) for x in a.obj.at(c)}
                for c in a.base.objects}, stars)
    for name, a in (("divisors_six", divisor_lattice(6)), ("chain_two", chain_cat(2))):
        res = limit_functor(a, shape_two(a.base))
        yield (f"{name}/limit-functor", res.diagonal, res.functor,
               res.unit.component.components, res.counit.component.components)
    for name, r in (("divisors_six", identity_functor(divisor_lattice(6))),
                    ("staged_chain_three", identity_functor(staged_chain3())),
                    ("chain_three", unique_to_terminal_cat(chain_cat(3)))):
        adj = aft_left_adjoint(r)
        yield (f"{name}/aft", adj.left, adj.right,
               adj.unit.component.components, adj.counit.component.components)


def changes(table, cat, per_object=3):
    """Single changes ``(c, x, h)`` of ``table``: another arrow ``h`` of
    stage c for the component at ``x``, for every stage and object and a
    spread of ``per_object`` arrows."""
    for c, comps in table.items():
        arrows = cat.arr.at(c)
        for x, was in comps.items():
            yield from ((c, x, h) for h in arrows[::max(1, len(arrows) // per_object)]
                        if h != was)


def changed(table, *edits):
    """``table`` with the components at ``(c, x)`` replaced by ``h``, or
    dropped where ``h`` is None."""
    out = {c: dict(comps) for c, comps in table.items()}
    for c, x, h in edits:
        if h is None:
            del out[c][x]
        else:
            out[c][x] = h
    return out


def test_componentwise_triangles_agree_with_the_whiskered_reference(monkeypatch):
    # one change of a component, a change of each (a failure may come
    # before a pair that does not compose), a dropped component, and
    # components and functors with the wrong ends; the check itself builds
    # no natural transformation, so no whiskered or vertical composite
    def unused(*args):
        raise AssertionError("adjunction_check built a 2-cell composite")

    def componentwise(*args):
        with monkeypatch.context() as m:
            m.setattr(core, "InternalNatTrans", unused)
            return adjunction_check(*args)
    seen = {}
    for name, l, r, unit, counit in adjunction_cases():
        a, b = l.source_cat, l.target_cat

        def pair(u, k, u_target=a.arr):
            return (core.InternalNatTrans(identity_functor(a), compose_functors(r, l),
                                          PresheafMap(a.obj, u_target, u)),
                    core.InternalNatTrans(compose_functors(l, r), identity_functor(b),
                                          PresheafMap(b.obj, b.arr, k)))

        on_unit, on_counit = list(changes(unit, a)), list(changes(counit, b))
        cases = [pair(unit, counit), pair(unit, counit, a.obj), pair(counit, unit)[::-1]]
        cases += [pair(changed(unit, e), counit) for e in on_unit]
        cases += [pair(unit, changed(counit, e)) for e in on_counit]
        cases += [pair(changed(unit, e1), changed(counit, e2))
                  for e1, e2 in itertools.product(on_unit[:20], on_counit[:20])]
        cases += [pair(changed(unit, (c, x, None)), counit) for c in unit for x in unit[c]]
        for eta, eps in cases:
            want = outcome(whiskered_triangles, l, r, eta, eps)
            assert outcome(componentwise, l, r, eta, eps) == want, name
            seen.setdefault(repr(want), name)
        if a != b:
            assert adjunction_check(l, l, *pair(unit, counit)) == ["functors are not opposed"]
    assert {"[]", "['first triangle identity fails']", "['second triangle identity fails']",
            "['first triangle identity fails', 'second triangle identity fails']",
            "['unit endpoints are wrong', 'counit endpoints are wrong']",
            "('PreconditionError', 'composition endpoint mismatch')"} <= seen.keys()
    assert any(want.startswith("('PreconditionError', \"(") for want in seen)
    assert any(want.startswith("('KeyError'") for want in seen)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_chain_functor_count_is_binomial(n, m):
    # monotone maps from a chain of n to a chain of m: C(n+m-1, n)
    from math import comb
    a, b = chain_cat(n), chain_cat(m)
    assert len(enumerate_functors(a, b)) == comb(n + m - 1, n)
