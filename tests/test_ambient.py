"""Laws of the ambient layer: finite presheaves and their limits."""

import re
from itertools import product as cartesian

import pytest
from hypothesis import assume, given, settings, strategies as st

from intcat.ambient import (
    IndexCategory, Presheaf, PresheafMap, PreconditionError, coproduct, curry,
    elements_category,
    enumerate_maps, equalizer, evaluation_map, exponential, family_keys,
    family_solver, family_space, initial, inverse, is_iso, points, product,
    pullback, representable, stage_family, subpresheaf, terminal, uncurry,
    unique_from_initial, unique_to_terminal,
)
from intcat.labels import sort_key

FIN = IndexCategory.finset()
CHAIN2 = IndexCategory.chain(2)


def finset(*labels):
    return Presheaf(FIN, {"pt": tuple(labels)},
                    {"id_pt": {x: x for x in labels}})


def staged(at0, at1, down):
    """A presheaf over the two-stage base with the given restriction."""
    action = {u: {} for u in CHAIN2.arrows}
    action[CHAIN2.identity["c0"]] = {x: x for x in at0}
    action[CHAIN2.identity["c1"]] = {x: x for x in at1}
    action[("c0", "c1")] = dict(down)
    return Presheaf(CHAIN2, {"c0": tuple(at0), "c1": tuple(at1)}, action)


def test_index_category_constructors():
    assert FIN.objects == ("pt",)
    assert CHAIN2.objects == ("c0", "c1")
    three = IndexCategory.chain(3)
    # composites of consecutive steps are present and associative
    u01 = next(u for u in three.arrows
               if three.src[u] == "c0" and three.tgt[u] == "c1")
    u12 = next(u for u in three.arrows
               if three.src[u] == "c1" and three.tgt[u] == "c2")
    w = three.compose[(u12, u01)]
    assert three.src[w] == "c0" and three.tgt[w] == "c2"


def one_object_category(arrows, compose):
    return IndexCategory(objects=("o",), arrows=arrows,
                         src={u: "o" for u in arrows}, tgt={u: "o" for u in arrows},
                         identity={"o": arrows[0]}, compose=compose)


def test_index_category_validate_names_its_faults_in_order():
    table = {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "a", ("b", "b"): "a"}
    table.update({(u, "i"): u for u in "iab"})
    table.update({("i", u): u for u in "iab"})
    assert one_object_category(("i", "a", "b"), table).validate() == [
        "associativity fails at ('a','a','b')", "associativity fails at ('a','b','b')",
        "associativity fails at ('b','a','a')", "associativity fails at ('b','b','a')"]
    assert IndexCategory.chain(30).validate() == []


def test_index_category_validate_names_composable_faults_before_stray_composites():
    # u : a -> b; the composite ib.u is missing, and ia.u is given though
    # u does not land in a
    arrow = IndexCategory(objects=("a", "b"), arrows=("ia", "ib", "u"),
                          src={"ia": "a", "ib": "b", "u": "a"},
                          tgt={"ia": "a", "ib": "b", "u": "b"},
                          identity={"a": "ia", "b": "ib"},
                          compose={("ia", "u"): "u", ("ia", "ia"): "ia",
                                   ("ib", "ib"): "ib", ("u", "ia"): "u"})
    assert arrow.validate() == [
        "missing composite for ('ib','u')",
        "composite defined for non-composable pair ('ia','u')",
        "left unit law fails at 'u'"]


def test_index_category_validate_names_missing_endpoints():
    no_target = IndexCategory(objects=("a",), arrows=("i", "u"),
                              src={"i": "a", "u": "a"}, tgt={"i": "a"},
                              identity={"a": "i"}, compose={("i", "i"): "i"})
    assert no_target.validate() == ["arrow 'u' lacks endpoints",
                                    "missing composite for ('u','i')"]
    bare_identity = IndexCategory(objects=("a",), arrows=("i",), src={}, tgt={},
                                  identity={"a": "i"}, compose={("i", "i"): "i"})
    assert bare_identity.validate() == ["identity of 'a' lacks endpoints",
                                        "arrow 'i' lacks endpoints"]


def test_poset_closure_is_reflexive_transitive():
    p = IndexCategory.poset(("a", "b", "c"), [("a", "b"), ("b", "c")])
    pairs = {(p.src[u], p.tgt[u]) for u in p.arrows}
    assert ("a", "c") in pairs          # transitivity
    assert ("a", "a") in pairs          # reflexivity
    assert ("c", "a") not in pairs


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                   st.integers(0, max(n - 1, 0))),
                         max_size=12 if n else 0))))
def test_poset_closure_matches_naive_closure(case):
    n, edges = case
    elems = tuple(f"e{i}" for i in range(n))
    pairs = [(elems[a], elems[b]) for a, b in edges]
    rel = {(a, a) for a in elems} | set(pairs)
    while True:
        more = {(a, c) for a, b in rel for b2, c in rel if b == b2} - rel
        if not more:
            break
        rel |= more
    p = IndexCategory.poset(elems, pairs)
    arrows = tuple((a, b) for a in elems for b in elems if (a, b) in rel)
    assert p.arrows == arrows
    assert list(p.compose.items()) == [
        (((b, c), (a, b2)), (a, c))
        for (b, c) in arrows for (a, b2) in arrows if b2 == b]
    assert p.validate() == []


def test_one_family_solver_serves_many_searches():
    dom = staged(("p", "q"), ("x",), {"x": "p"})
    cod = staged(("0", "1"), ("a", "b"), {"a": "0", "b": "1"})
    solve = family_solver(CHAIN2, "c1", dom, cod)
    filters = (None, lambda u, e: cod.at(CHAIN2.src[u])[:1],
               lambda u, e: cod.at(CHAIN2.src[u])[::-1])
    for allowed in filters:
        assert solve(allowed) == family_space(CHAIN2, "c1", dom, cod, allowed)
    assert len(solve()) == 4 and len(solve(filters[1])) == 1


def test_presheaf_validate_catches_broken_action():
    x = staged(("p", "q"), ("x",), {"x": "p"})
    assert x.validate() == []
    bad = Presheaf(CHAIN2, x.carrier, {**x.action, ("c0", "c1"): {}})
    assert bad.validate() != []


def test_terminal_and_initial_points():
    x = finset("a", "b", "c")
    t = unique_to_terminal(x)
    assert t.validate() == []
    assert set(t.components["pt"].values()) == {"*"}
    z = unique_from_initial(x)
    assert z.validate() == []
    assert initial(FIN).at("pt") == ()


def test_product_projections_and_pairing():
    x, y = finset("a", "b"), finset("u", "v", "w")
    cone = product(x, y)
    assert len(cone.apex.at("pt")) == 6
    assert cone.legs[0].validate() == []
    assert cone.legs[1].validate() == []
    # mediating map from any other cone is unique and correct
    w = finset("m")
    f = PresheafMap(w, x, {"pt": {"m": "b"}})
    g = PresheafMap(w, y, {"pt": {"m": "u"}})
    med = cone.mediate([f, g])
    assert med.components["pt"]["m"] == ("b", "u")


def test_equalizer_picks_agreement_locus():
    x, y = finset("1", "2", "3"), finset("p", "q")
    f = PresheafMap(x, y, {"pt": {"1": "p", "2": "q", "3": "p"}})
    g = PresheafMap(x, y, {"pt": {"1": "p", "2": "p", "3": "q"}})
    eq = equalizer(f, g)
    assert eq.apex.at("pt") == ("1",)


def test_product_pairs_leg_values_at_every_stage():
    x = staged(("a", "b"), ("A",), {"A": "a"})
    y = staged(("u",), ("U", "V"), {"U": "u", "V": "u"})
    cone = product(x, y)
    assert cone.apex.carrier == {"c0": (("a", "u"), ("b", "u")),
                                 "c1": (("A", "U"), ("A", "V"))}
    assert cone.apex.validate() == []
    one = PresheafMap.identity(cone.apex)
    assert cone.mediate([one.then(leg) for leg in cone.legs]) == one
    w = staged(("m",), ("M",), {"M": "m"})
    f = PresheafMap(w, x, {"c0": {"m": "a"}, "c1": {"M": "A"}})
    g = PresheafMap(w, y, {"c0": {"m": "u"}, "c1": {"M": "V"}})
    med = cone.mediate([f, g])
    assert med.components == {"c0": {"m": ("a", "u")}, "c1": {"M": ("A", "V")}}
    assert med.validate() == []
    assert [med.then(leg) for leg in cone.legs] == [f, g]


def test_subpresheaf_keeps_what_the_action_preserves():
    x = staged(("a", "b"), ("A", "B", "C"), {"A": "a", "B": "b", "C": "a"})
    sub, inc = subpresheaf(x, lambda c, e: e in ("a", "A", "C"))
    assert sub.carrier == {"c0": ("a",), "c1": ("A", "C")}
    assert sub.validate() == [] and inc.validate() == []
    assert inc.target == x and inc.components["c1"] == {"A": "A", "C": "C"}


def test_equalizer_mediates_exactly_the_legs_that_equalize():
    x, y = finset("1", "2", "3"), finset("p", "q")
    f = PresheafMap(x, y, {"pt": {"1": "p", "2": "q", "3": "p"}})
    g = PresheafMap(x, y, {"pt": {"1": "p", "2": "p", "3": "q"}})
    eq = equalizer(f, g)
    (inc,) = eq.legs
    assert inc.target == x and inc.components == {"pt": {"1": "1"}}
    w = finset("m", "n")
    good = PresheafMap(w, x, {"pt": {"m": "1", "n": "1"}})
    med = eq.mediate([good])
    assert med.components == {"pt": {"m": "1", "n": "1"}}
    assert med.then(inc) == good
    bad = PresheafMap(w, x, {"pt": {"m": "1", "n": "2"}})
    with pytest.raises(PreconditionError, match=re.escape("at 'pt':'n'")):
        eq.mediate([bad])


def test_pullback_refuses_legs_that_do_not_commute():
    x, y, z = finset("a", "b"), finset("u", "v"), finset("0", "1")
    f = PresheafMap(x, z, {"pt": {"a": "0", "b": "1"}})
    g = PresheafMap(y, z, {"pt": {"u": "1", "v": "1"}})
    pb = pullback(f, g)
    w = finset("m")
    to_y = PresheafMap(w, y, {"pt": {"m": "v"}})
    med = pb.mediate([PresheafMap(w, x, {"pt": {"m": "b"}}), to_y])
    assert med.components == {"pt": {"m": ("b", "v")}}
    with pytest.raises(PreconditionError, match=re.escape("at 'pt':'m'")):
        pb.mediate([PresheafMap(w, x, {"pt": {"m": "a"}}), to_y])
    with pytest.raises(PreconditionError, match="wrong number of cone legs"):
        pb.mediate([to_y])


def test_pullback_fiber_product():
    x, y, z = finset("a", "b"), finset("u", "v"), finset("0", "1")
    f = PresheafMap(x, z, {"pt": {"a": "0", "b": "1"}})
    g = PresheafMap(y, z, {"pt": {"u": "1", "v": "1"}})
    pb = pullback(f, g)
    assert set(pb.apex.at("pt")) == {("b", "u"), ("b", "v")}


def test_coproduct_tags_and_mediates():
    x, y = finset("a"), finset("a", "b")
    apex, inl, inr = coproduct(x, y)
    assert len(apex.at("pt")) == 3
    labels = set(apex.at("pt"))
    assert ("inl", "a") in labels and ("inr", "a") in labels
    assert inl.validate() == [] and inr.validate() == []


def test_representable_over_chain():
    y1 = representable(CHAIN2, "c1")
    # maps into c1: one from c0, the identity at c1
    assert len(y1.at("c0")) == 1
    assert len(y1.at("c1")) == 1


def test_exponential_counts_on_sets():
    x, y = finset("a", "b"), finset("0", "1", "2")
    e = exponential(x, y)
    assert len(e.at("pt")) == 9
    ev = evaluation_map(x, y, e)
    assert ev.validate() == []
    # evaluating the point for a function at an argument applies it
    phi = e.at("pt")[0]
    assert ev.components["pt"][(phi, "a")] in y.at("pt")


def test_curry_uncurry_round_trip_staged():
    x = staged(("p", "q"), ("x",), {"x": "p"})
    y = staged(("u",), ("s", "t"), {"s": "u", "t": "u"})
    z = staged(("m", "n"), ("w",), {"w": "m"})
    ev = evaluation_map(x, y, exponential(x, y))
    for f in enumerate_maps(product(z, x).apex, y):
        g = curry(f, z, x)
        assert g.validate() == []
        back = uncurry(g, x, y)
        assert back == f
        # evaluation at the curried element gives back f, stage by stage
        for c in CHAIN2.objects:
            for (t, e) in f.source.at(c):
                assert ev.components[c][(g.components[c][t], e)] == \
                    f.components[c][(t, e)]


def test_hom_set_exponential_bijection_staged():
    x = staged(("p", "q"), ("x",), {"x": "p"})
    y = staged(("u",), ("s", "t"), {"s": "u", "t": "u"})
    z = staged(("m", "n"), ("w",), {"w": "m"})
    lhs = enumerate_maps(product(z, x).apex, y)
    rhs = enumerate_maps(z, exponential(x, y))
    assert len(lhs) == len(rhs)
    assert len({repr(curry(f, z, x).components) for f in lhs}) == len(lhs)


def test_points_of_exponential_are_maps():
    x, y = finset("a", "b"), finset("0", "1")
    assert len(points(exponential(x, y))) == len(enumerate_maps(x, y)) == 4


def test_inverse_only_for_isos():
    x = finset("a", "b")
    swap = PresheafMap(x, x, {"pt": {"a": "b", "b": "a"}})
    collapse = PresheafMap(x, x, {"pt": {"a": "a", "b": "a"}})
    assert is_iso(swap) and inverse(swap).components["pt"]["b"] == "a"
    assert not is_iso(collapse) and inverse(collapse) is None


carriers = st.integers(min_value=0, max_value=3)


@settings(max_examples=25, deadline=None)
@given(carriers, carriers, st.data())
def test_product_size_is_pointwise_product(n, m, data):
    xs = tuple(f"x{i}" for i in range(n))
    ys = tuple(f"y{i}" for i in range(m))
    x, y = finset(*xs), finset(*ys)
    cone = product(x, y)
    assert len(cone.apex.at("pt")) == n * m


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.data())
def test_staged_curry_bijection_property(n0, n1, data):
    # restriction chosen at random, bijection must hold regardless
    down = {f"b{j}": data.draw(st.sampled_from([f"a{i}" for i in range(n0)]),
                               label=f"down{j}")
            for j in range(n1)}
    x = staged(tuple(f"a{i}" for i in range(n0)),
               tuple(f"b{j}" for j in range(n1)), down)
    y = staged(("u", "v"), ("s",), {"s": "u"})
    z = staged(("m",), ("w",), {"w": "m"})
    lhs = enumerate_maps(product(z, x).apex, y)
    rhs = enumerate_maps(z, exponential(x, y))
    assert len(lhs) == len(rhs)


# ---------------------------------------------------------------------------
# the by-target site index and the canonical key order


@st.composite
def bases(draw):
    """A chain, or a poset with at most four elements."""
    n = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        return IndexCategory.chain(n)
    elems = tuple(f"p{i}" for i in range(n))
    pairs = [(elems[i], elems[j]) for i in range(n) for j in range(i + 1, n)]
    return IndexCategory.poset(elems, draw(st.lists(st.sampled_from(pairs),
                                                    max_size=5)) if pairs else [])


@st.composite
def presheaves(draw, base, size=3):
    """Over a chain, carriers and the restrictions between neighbours are
    drawn freely and composed; otherwise a coproduct of representables and
    points."""
    objs = base.objects
    if base == IndexCategory.chain(len(objs)):
        sizes = draw(st.lists(st.integers(0, size), min_size=len(objs),
                              max_size=len(objs)))
        for i in range(1, len(objs)):          # nothing restricts to empty
            sizes[i] = sizes[i] if sizes[i - 1] else 0
        carrier = {c: tuple(f"x{i}.{k}" for k in range(sizes[i]))
                   for i, c in enumerate(objs)}
        down = [{y: draw(st.sampled_from(carrier[objs[i]]))
                 for y in carrier[objs[i + 1]]} for i in range(len(objs) - 1)]
        action = {}
        for u in base.arrows:
            lo, hi = objs.index(base.src[u]), objs.index(base.tgt[u])
            act = {}
            for y in carrier[objs[hi]]:
                x = y
                for i in range(hi - 1, lo - 1, -1):
                    x = down[i][x]
                act[y] = x
            action[u] = act
        return Presheaf(base, carrier, action)
    x = initial(base)
    for _ in range(draw(st.integers(1, max(1, size - 1)))):
        c = draw(st.sampled_from(objs + (None,)))
        x = coproduct(x, terminal(base) if c is None else representable(base, c))[0]
    return x


@settings(max_examples=60, deadline=None)
@given(bases().flatmap(presheaves))
def test_indexed_site_matches_the_naive_closure(x):
    assert x.validate() == []
    site, proj = elements_category(x)
    assert list(site.compose.items()) == [
        ((g, f), (x.base.comp(g[0], f[0]), g[1]))
        for g in site.arrows for f in site.arrows if site.src[g] == site.tgt[f]]
    for cat in (x.base, site):
        for o in cat.objects:
            assert cat.arrows_into(o) == tuple(
                u for u in cat.arrows if cat.tgt[u] == o)
    assert proj.validate() == []


def sorted_family(base, c, dom, value):
    """A stage family by sorting its entries, visited by arrow and element."""
    entries = [((u, x), value(u, x))
               for u in base.arrows_into(c) for x in dom.at(base.src[u])]
    return ("fam", tuple(sorted(entries, key=lambda kv: sort_key(kv[0]))))


@settings(max_examples=40, deadline=None)
@given(bases().flatmap(presheaves))
def test_stage_families_keep_the_canonical_key_order(x):
    base = x.base
    twin = IndexCategory(base.objects, base.arrows, dict(base.src),
                         dict(base.tgt), dict(base.identity), dict(base.compose))
    over_twin = Presheaf(twin, x.carrier, x.action)
    assert twin == base and twin is not base

    def value(u, e):
        return (base.src[u], e)

    for c in base.objects:
        want = sorted_family(base, c, x, value)
        # a presheaf over an equal but distinct base takes the uncached path
        assert stage_family(base, c, over_twin, value) == want
        assert over_twin._keys == {}
        assert stage_family(base, c, x, value) == want
        assert family_keys(base, c, x) is family_keys(base, c, x)
        assert stage_family(base, c, x, value) == want


def naive_families(base, c, dom, cod):
    """Every natural family at stage c, by trying every assignment."""
    keys = [(u, e) for u in base.arrows_into(c) for e in dom.at(base.src[u])]
    out = []
    for values in cartesian(*(cod.at(base.src[u]) for u, _ in keys)):
        t = dict(zip(keys, values))
        if all(t[(base.comp(u, v), dom.action[v][e])] == cod.action[v][t[(u, e)]]
               for u, e in keys for v in base.arrows_into(base.src[u])):
            out.append(sorted_family(base, c, dom, lambda u, e: t[(u, e)]))
    return sorted(out, key=sort_key)


@settings(max_examples=40, deadline=None)
@given(bases().flatmap(lambda b: st.tuples(presheaves(b, 2), presheaves(b, 2))))
def test_family_solver_keeps_the_order_of_sorted_families(pair):
    dom, cod = pair
    base = dom.base
    for c in base.objects:
        tries = 1
        for u in base.arrows_into(c):
            tries *= len(cod.at(base.src[u])) ** len(dom.at(base.src[u]))
        assume(tries <= 4096)
        assert family_solver(base, c, dom, cod)() == naive_families(base, c, dom, cod)
