"""The fixture enumerators against their references in ``oracles``."""

import pytest

import intcat.fixtures as fixtures
from intcat.ambient import PreconditionError
from intcat.fixtures import (
    CHAIN2, all_lattices, chain_cat, divisor_lattice, indiscrete_cat,
    meet_preserving_maps, monotone_maps, walking_idempotent,
    walking_parallel_pair,
)
from intcat.theorems import lattice_completeness_check

import oracles


def tables(fns):
    """Each functor's object and arrow parts, in key order."""
    return [(list(fn.f0.components["pt"].items()),
             list(fn.f1.components["pt"].items())) for fn in fns]


def test_enumerators_match_their_references_on_small_lattices():
    lats = all_lattices(5)
    certs = [lattice_completeness_check(lat) for lat in lats]
    counts = [0, 0]
    for src, sc in zip(lats, certs):
        for tgt, tc in zip(lats, certs):
            mono, ref_mono = monotone_maps(src, tgt), oracles.monotone_maps(src, tgt)
            assert mono == ref_mono
            assert tables(mono) == tables(ref_mono)
            meet = meet_preserving_maps(src, tgt, sc, tc)
            ref_meet = oracles.meet_preserving_maps(src, tgt, sc, tc)
            assert meet == ref_meet
            assert tables(meet) == tables(ref_meet)
            counts[0] += len(mono)
            counts[1] += len(meet)
    assert counts == [5976, 2022]


def test_all_lattices_matches_its_reference(monkeypatch):
    """The invariant read over linear extensions only keeps the same
    representatives, in the same order, as the one over every relabelling."""
    got = [all_lattices(n) for n in range(1, 7)]
    monkeypatch.setattr(fixtures, "_canonical", oracles.canonical_lattice_key)
    assert [all_lattices(n) for n in range(1, 7)] == got
    assert [len(lats) for lats in got] == [1, 2, 3, 5, 10, 25]


def test_meet_preserving_maps_builds_only_the_maps_it_keeps(monkeypatch):
    built = []

    class Counted(fixtures.InternalFunctor):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(fixtures, "InternalFunctor", Counted)
    d12 = divisor_lattice(12)
    cert = lattice_completeness_check(d12)
    kept = meet_preserving_maps(d12, d12, cert, cert)
    assert len(kept) == 108
    assert len(built) == 108


def test_meet_preserving_maps_read_a_preorder_through_representatives():
    """A preorder certificate keys its meets by skeleton representatives."""
    src, tgt = chain_cat(2), indiscrete_cat(("u", "v"))
    sc, tc = lattice_completeness_check(src), lattice_completeness_check(tgt)
    assert tc.evidence["skeleton"] == ("u",)
    maps = meet_preserving_maps(src, tgt, sc, tc)
    assert [fn.f0.components["pt"] for fn in maps] == [
        {"0": "u", "1": "u"}, {"0": "u", "1": "v"},
        {"0": "v", "1": "u"}, {"0": "v", "1": "v"}]
    assert all(fn.validate() == [] for fn in maps)
    assert tables(maps) == tables(oracles.meet_preserving_maps(src, tgt, sc, tc))
    back = meet_preserving_maps(tgt, src, tc, sc)
    assert [fn.f0.components["pt"] for fn in back] == [{"u": "1", "v": "1"}]


@pytest.mark.parametrize("make, reason", [
    (lambda: chain_cat(2, base=CHAIN2), "one-object base"),
    (walking_idempotent, "thin"),
    (walking_parallel_pair, "thin"),
], ids=["two_stage_chain", "walking_idempotent", "walking_parallel_pair"])
def test_order_maps_refuse_inputs_outside_their_domain(make, reason):
    cat = make()
    with pytest.raises(PreconditionError, match=reason):
        monotone_maps(cat, cat)
    with pytest.raises(PreconditionError, match=reason):
        meet_preserving_maps(cat, cat, None, None)
    with pytest.raises(PreconditionError, match=reason):
        monotone_maps(chain_cat(2, base=cat.base), cat)
