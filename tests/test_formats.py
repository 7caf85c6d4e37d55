"""The document format: parsing, canonical emission, and the runner."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import intcat
from intcat.cli import main
from intcat.formats import ParseError, emit_document, parse_document
from intcat.runner import render_human, render_machine, run_document

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

MINIMAL = "format 1\n"

LATTICE_DOC = """\
format 1
base fin finset
lattice D6 over fin : 1 2 3 6 / 1<2 1<3 2<6 3<6
task complete-check D6
"""


# Machine-report digests of the fixture documents: the behaviour oracle a
# refactor of the engine must leave byte-identical.
FIXTURE_DIGESTS = {
    "divisors.ct": "sha256:c6538a046040861c5ee88326c7267630541fef6c6e0361eca383511bb83d9ea3",
    "refusals.ct": "sha256:c8768f4b36c69edeee117ea37ac39bd3a4046ceb3bbd1322474eb23a59896897",
    "staged.ct": "sha256:6a28a836e90cfa000e9a9b7ebc5119d4fa51e66d761afb3fd71ebb428e3548c4",
}


def read_fixture(name):
    return (FIXTURES / name).read_text()


def test_minimal_document_parses():
    doc = parse_document(MINIMAL)
    assert doc.version == 1
    assert doc.declarations == ()
    assert doc.tasks == ()


def test_fixture_documents_round_trip():
    for name in ("divisors.ct", "refusals.ct", "staged.ct"):
        doc = parse_document(read_fixture(name))
        out = emit_document(doc)
        again = parse_document(out)
        assert again == doc, name
        assert emit_document(again) == out, name


def test_fixture_report_digests_are_pinned():
    assert sorted(p.name for p in FIXTURES.glob("*.ct")) == sorted(FIXTURE_DIGESTS)
    for name, digest in FIXTURE_DIGESTS.items():
        report = run_document(parse_document(read_fixture(name)))
        assert report["digest"] == digest, name


# Runs under ``python -O``, where every ``assert`` is stripped: the fixture
# digests must not move, and a failed triangle identity must still stop the
# limit functor and surface in a report as an engine error.
OPTIMIZED_RUN = """
import json, sys
from pathlib import Path
import intcat.limits as limits
from intcat.formats import parse_document
from intcat.runner import run_document

fixtures, doc = Path(sys.argv[1]), sys.argv[2]
out = {"optimized": not __debug__, "digests": {}}
for path in sorted(fixtures.glob("*.ct")):
    report = run_document(parse_document(path.read_text()))
    out["digests"][path.name] = report["digest"]
limits.adjunction_check = lambda *args: ["first triangle identity fails"]
report = run_document(parse_document(doc))
out["task"] = report["tasks"][-1]
print(json.dumps(out))
"""


def test_certificates_are_enforced_under_optimization():
    env = dict(os.environ)
    src = str(Path(intcat.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    doc = LATTICE_DOC + "task limit-functor D6 discrete-two\n"
    run = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_RUN,
                          str(FIXTURES), doc],
                         capture_output=True, text=True, env=env, check=True)
    out = json.loads(run.stdout)
    assert out["optimized"] is True
    assert out["digests"] == FIXTURE_DIGESTS
    task = out["task"]
    assert task["op"] == "limit-functor"
    assert task["outcome"] == "error"
    assert task["error"]["type"] == "CertificateError"
    assert "first triangle identity fails" in task["error"]["message"]


def test_emission_is_canonical_under_whitespace_and_comments():
    noisy = ("format   1\n\n# comment\nbase   fin   finset   # trailing\n"
             "lattice D6 over fin : 1 2 3 6 / 1<2 1<3 2<6 3<6\n")
    clean = "format 1\nbase fin finset\nlattice D6 over fin : 1 2 3 6 / 1<2 1<3 2<6 3<6\n"
    assert emit_document(parse_document(noisy)) == \
        emit_document(parse_document(clean))


def test_divisors_shorthand_expands():
    doc = parse_document("format 1\nbase f finset\nlattice D over f : divisors 12\n")
    cat = doc.env["cats"]["D"]
    assert len(cat.obj.at("pt")) == 6
    assert len(cat.arr.at("pt")) == 18


def located(text):
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    return exc.value


def test_error_unknown_name_is_located():
    err = located("format 1\nbase f finset\ntask complete-check missing\n")
    assert err.line == 3
    assert "missing" in err.message


def test_error_bad_pair_element():
    err = located("format 1\nbase f finset\nlattice L over f : a b / a<c\n")
    assert err.line == 3 and err.col == 26
    assert "'c'" in err.message


def test_error_duplicate_name():
    err = located("format 1\nbase f finset\nbase f finset\n")
    assert err.line == 3
    assert "already declared" in err.message


def test_error_unclosed_block():
    err = located("format 1\nbase f finset\npresheaf X over f {\n  at pt : a\n")
    assert "never closed" in err.message


def test_error_wrong_format_line():
    err = located("format 2\n")
    assert err.line == 1


def test_error_non_functorial_table():
    bad = ("format 1\nbase f finset\n"
           "lattice C2 over f : 0 1 / 0<1\n"
           "lattice P over f : a b /\n"
           "functor F : C2 -> P {\n  obj pt : 0=a 1=b\n}\n")
    err = located(bad)
    assert "not determined" in err.message or "functor" in err.message


def test_size_bound_is_enforced():
    doc_text = "format 1\nbase f finset\nlattice L over f : divisors 12\n"
    parse_document(doc_text, max_size=18)
    with pytest.raises(ParseError) as exc:
        parse_document(doc_text, max_size=10)
    assert "size bound" in exc.value.message


def test_divisors_shorthand_lists_every_divisor_in_order():
    for n in (1, 7, 36, 360):
        doc = parse_document(f"format 1\nbase f finset\nlattice D over f : divisors {n}\n")
        assert doc.env["cats"]["D"].obj.at("pt") == \
            tuple(str(d) for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("decl, arrows", [
    ("lattice L over f : divisors 300000000", 6075),
    ("lattice L over f : divisors 1000000000000000000000", 64009),
    ("category C over f : chain 120", 7260),
])
def test_size_bound_refuses_before_building(decl, arrows):
    start = time.process_time()
    err = located(f"format 1\nbase f finset\n{decl}\n")
    assert time.process_time() - start < 0.5
    assert (err.line, err.col) == (3, 1)
    assert err.message == f"size bound exceeded ({arrows} > 512)"


def test_divisors_of_a_large_prime_parse_at_bounded_cost():
    start = time.process_time()
    doc = parse_document("format 1\nbase f finset\n"
                         "lattice L over f : divisors 1000000000000000003\n")
    assert time.process_time() - start < 0.5
    cat = doc.env["cats"]["L"]
    assert cat.obj.at("pt") == ("1", "1000000000000000003")
    assert len(cat.arr.at("pt")) == 3


def test_divisors_refuses_a_cofactor_it_cannot_split():
    n = (10 ** 9 + 7) * (10 ** 9 + 9)
    start = time.process_time()
    err = located(f"format 1\nbase f finset\nlattice L over f : divisors {n}\n")
    assert time.process_time() - start < 0.5
    assert (err.line, err.col) == (3, 29)
    assert err.message == (f"cannot factor {n}: it has no prime factor below "
                           f"65536 and is not proven prime")


@pytest.mark.parametrize("decl, col, usage", [
    ("base g chain ²", 8, "chain <n>"),
    ("lattice L over f : divisors ²", 29, "divisors <n>"),
    ("category C over f : chain ²", 21, "chain <n>"),
], ids=["base-chain", "lattice-divisors", "category-chain"])
def test_number_tokens_take_ascii_digits_only(decl, col, usage, tmp_path, capsys):
    text = f"format 1\nbase f finset\n{decl}\n"
    err = located(text)
    assert (err.line, err.col, err.message) == (3, col, f"expected: {usage}")
    path = tmp_path / "doc.ct"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


# One valid block of each kind that carries stage rows; each case below
# breaks one row of it.
BLOCKS = {
    "category": """\
format 1
base two chain 2
category K over two {
  obj c0 : p q
  obj c1 : x
  arr c0 : ip iq
  arr c1 : ix
  src c0 : ip=p iq=q
  tgt c0 : ip=p iq=q
  id c0 : p=ip q=iq
  src c1 : ix=x
  tgt c1 : ix=x
  id c1 : x=ix
  act c0<c1 obj : x=p
  act c0<c1 arr : ix=ip
}
""",
    "presheaf": """\
format 1
base two chain 2
presheaf X over two {
  at c0 : p q
  at c1 : x
  act c0<c1 : x=p
}
""",
    "functor": """\
format 1
base two chain 2
category A over two : discrete a b
category B over two : chain 2
functor F : A -> B {
  obj c0 : a=0 b=1
  obj c1 : a=0 b=1
}
""",
}
BLOCKS["map"] = BLOCKS["presheaf"] + """\
map m : X -> X {
  at c0 : p=p q=q
  at c1 : x=x
}
"""
BLOCKS["nat"] = BLOCKS["functor"] + """\
functor G : A -> B {
  obj c0 : a=1 b=1
  obj c1 : a=1 b=1
}
nat t : F => G {
  at c0 : a=0->1
  at c1 : a=0->1
}
"""


@pytest.mark.parametrize("kind, old, new, where, message", [
    ("category", "  src c1 : ix=x\n", "  src c1 : ix=x\n  src c1 : ix=x\n",
     (12, 7), "duplicate src line for 'c1'"),
    ("category", "src c1", "src c9", (11, 7), "unknown stage 'c9'"),
    ("category", "src c0 : ip=p iq=q", "src c0 : ip=p iz=q",
     (8, 17), "unknown element 'iz' in src line"),
    ("category", "src c0 : ip=p iq=q", "src c0 : ip=p iq=z",
     (8, 17), "unknown value 'z' in src line"),
    ("category", "src c0 : ip=p iq=q", "src c0 : ip=p",
     (8, 12), "src line does not cover 'iq'"),
    ("presheaf", "  at c1 : x\n", "  at c1 : x\n  at c1 : y\n",
     (6, 6), "duplicate at line for 'c1'"),
    ("presheaf", "at c1", "at c7", (5, 6), "unknown stage 'c7'"),
    ("presheaf", "x=p", "z=p", (6, 15), "unknown element 'z' in act line"),
    ("presheaf", "x=p", "x=z", (6, 15), "unknown value 'z' in act line"),
    ("presheaf", "at c1 : x", "at c1 : x y", (6, 15), "act line does not cover 'y'"),
    ("map", "  at c0 : p=p q=q\n", "  at c0 : p=p q=q\n  at c0 : p=q q=q\n",
     (10, 6), "duplicate at line for 'c0'"),
    ("map", "at c1 : x=x", "at c9 : x=x", (10, 6), "unknown stage 'c9'"),
    ("map", "p=p q=q", "p=p z=q", (9, 15), "unknown element 'z' in at line"),
    ("map", "p=p q=q", "p=p q=z", (9, 15), "unknown value 'z' in at line"),
    ("map", "p=p q=q", "p=p", (9, 11), "at line does not cover 'q'"),
    ("functor", "  obj c1 : a=0 b=1\n", "  obj c1 : a=0 b=1\n  obj c1 : a=0 b=1\n",
     (8, 7), "duplicate obj line for 'c1'"),
    ("functor", "obj c1", "obj c5", (7, 7), "unknown stage 'c5'"),
    ("functor", "obj c0 : a=0 b=1", "obj c0 : a=0 z=1",
     (6, 16), "unknown element 'z' in obj line"),
    ("functor", "obj c0 : a=0 b=1", "obj c0 : a=0 b=7",
     (6, 16), "unknown value '7' in obj line"),
    ("functor", "obj c0 : a=0 b=1", "obj c0 : a=0",
     (6, 12), "obj line does not cover 'b'"),
    ("nat", "  at c1 : a=0->1\n", "  at c1 : a=0->1\n  at c1 : a=0->1\n",
     (16, 6), "duplicate at line for 'c1'"),
    ("nat", "at c1", "at c3", (15, 6), "unknown stage 'c3'"),
    ("nat", "at c0 : a=0->1", "at c0 : z=0->1",
     (14, 11), "unknown element 'z' in at line"),
    ("nat", "at c0 : a=0->1", "at c0 : a=zz", (14, 11), "unknown arrow 'zz'"),
    ("nat", "a=1 b=1", "a=1 b=0", (13, 1),
     "component at 'b' ('c0') is not determined; add an at line"),
], ids=[f"{kind}-{error}" for kind in ("category", "presheaf", "map", "functor", "nat")
        for error in ("duplicate", "unknown-stage", "unknown-key", "unknown-value",
                      "uncovered")])
def test_stage_row_errors_are_shared_by_every_block(kind, old, new, where, message):
    text = BLOCKS[kind]
    assert old in text
    parse_document(text)
    err = located(text.replace(old, new))
    assert ((err.line, err.col), err.message) == (where, message)


def test_arrow_row_refuses_two_spellings_of_one_arrow():
    text = """\
format 1
base f finset
category K over f {
  obj pt : p q
  arr pt : ip iq u
  src pt : ip=p iq=q u=p
  tgt pt : ip=p iq=q u=q
  id pt : p=ip q=iq
}
functor F : K -> K {
  obj pt : p=p q=q
  arr pt : u=u
}
"""
    parse_document(text)
    err = located(text.replace("u=u", "u=u p->q=u"))
    assert (err.line, err.col, err.message) == (12, 16, "duplicate entry for 'u'")


def test_map_naturality_checked_at_parse():
    bad = """\
format 1
base two chain 2
presheaf X over two {
  at c0 : p q
  at c1 : x
  act c0<c1 : x=p
}
map m : X -> X {
  at c0 : p=q q=q
  at c1 : x=x
}
"""
    err = located(bad)
    assert "commute" in err.message


def test_report_is_deterministic():
    doc = parse_document(read_fixture("divisors.ct"))
    a = render_machine(run_document(doc))
    b = render_machine(run_document(doc))
    assert a == b


def test_report_digest_covers_body_exactly():
    import hashlib
    doc = parse_document(LATTICE_DOC)
    report = run_document(doc)
    body = {k: v for k, v in report.items() if k != "digest"}
    canon = json.dumps(body, sort_keys=True, indent=2)
    expect = "sha256:" + hashlib.sha256(canon.encode()).hexdigest()
    assert report["digest"] == expect


def test_timing_never_feeds_the_digest():
    doc = parse_document(LATTICE_DOC)
    plain = run_document(doc)
    timed = run_document(doc, timing=True)
    assert "timing" in timed and "timing" not in plain
    assert timed["digest"] == plain["digest"]


def test_task_filter_keeps_matching_tasks():
    doc = parse_document(read_fixture("divisors.ct"))
    report = run_document(doc, only=["aft"])
    ops = [e["op"] for e in report["tasks"]]
    assert ops == ["aft"]
    # aft without its earlier complete-check refuses for a missing capability
    assert report["tasks"][0]["outcome"] == "refused"
    assert report["tasks"][0]["refusal"]["kind"] == "missing_capability"


def test_refusals_do_not_fail_the_run():
    doc = parse_document(read_fixture("refusals.ct"))
    report = run_document(doc)
    outcomes = {e["outcome"] for e in report["tasks"]}
    assert outcomes == {"refused"}
    kinds = [e["refusal"]["kind"] for e in report["tasks"]]
    assert kinds == ["no_meet", "no_meet", "no_universal_cone",
                     "missing_capability"]


def test_runner_outcomes_on_divisors():
    doc = parse_document(read_fixture("divisors.ct"))
    report = run_document(doc)
    assert all(e["outcome"] == "ok" for e in report["tasks"])
    by_op = {(e["op"], tuple(e["args"])): e for e in report["tasks"]}
    assert by_op[("limit", ("two_divisors",))]["witness"]["vertex"]["pt"] == "2"
    assert by_op[("colimit", ("two_divisors",))]["witness"]["vertex"]["pt"] == "12"
    aft = by_op[("aft", ("gcd6",))]["witness"]
    assert aft["left_on_objects"]["pt"] == {"1": "1", "2": "2", "3": "3", "6": "6"}
    assert aft["oracle_agrees"] is True


def test_cli_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.ct"
    good.write_text(LATTICE_DOC)
    assert main(["run", str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.ct"
    bad.write_text("format 1\nnonsense here\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert main(["validate", str(good)]) == 0
    assert main(["explain", str(good)]) == 0
    capsys.readouterr()


def test_cli_machine_output_parses_as_json(tmp_path, capsys):
    good = tmp_path / "good.ct"
    good.write_text(LATTICE_DOC)
    assert main(["run", str(good), "--format", "machine"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["schema"] == "report/1"
    assert report["tasks"][0]["outcome"] == "ok"


def test_cli_missing_file_is_usage_error(capsys):
    assert main(["run", "/nonexistent/nowhere.ct"]) == 2
    capsys.readouterr()


names = st.text(alphabet="abcdefgh", min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                max_size=8), st.integers(1, 6))
def test_random_poset_documents_round_trip(pairs, n):
    elems = [f"e{i}" for i in range(n)]
    rel = " ".join(f"e{a}<e{b}" for a, b in pairs if a < n and b < n and a != b)
    body = " ".join(elems) + ((" / " + rel) if rel else "")
    text = f"format 1\nbase f finset\nlattice L over f : {body}\n"
    doc = parse_document(text)
    out = emit_document(doc)
    assert parse_document(out) == doc
    assert emit_document(parse_document(out)) == out


@st.composite
def staged_documents(draw):
    """A presheaf with a natural map out of it, and a monotone functor
    between chains, with some arrows named explicitly, over ``finset`` or
    ``chain 2``."""
    stages = draw(st.sampled_from([("pt",), ("c0", "c1")]))
    labels = st.lists(st.sampled_from("pqrs"), min_size=1, max_size=3, unique=True)
    xs = {c: draw(labels) for c in stages}
    ys = draw(labels)
    lines = ["format 1", f"base b {'finset' if len(stages) == 1 else 'chain 2'}"]
    lines += ["presheaf X over b {"] + [f"  at {c} : {' '.join(xs[c])}" for c in stages]
    act = {x: draw(st.sampled_from(xs["c0"])) for x in xs.get("c1", ())}
    if act:
        lines.append("  act c0<c1 : " + " ".join(f"{x}={y}" for x, y in act.items()))
    lines += ["}", "presheaf Y over b {"]
    lines += [f"  at {c} : {' '.join(ys)}" for c in stages]
    if act:
        lines.append("  act c0<c1 : " + " ".join(f"{y}={y}" for y in ys))
    # Y acts by identities, so the map is natural once c1 follows c0
    m = {x: draw(st.sampled_from(ys)) for x in xs[stages[0]]}
    rows = {stages[0]: m, **({"c1": {x: m[act[x]] for x in act}} if act else {})}
    lines += ["}", "map m : X -> Y {"]
    lines += [f"  at {c} : " + " ".join(f"{x}={y}" for x, y in rows[c].items())
              for c in stages]
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    f = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)))
    named = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
                          .map(sorted), max_size=2, unique_by=tuple))
    lines += ["}", f"category A over b : chain {k}", f"category B over b : chain {n}",
              "functor F : A -> B {"]
    for c in stages:
        lines.append(f"  obj {c} : " + " ".join(f"{i}={v}" for i, v in enumerate(f)))
        if named:
            lines.append(f"  arr {c} : " + " ".join(
                f"{i}->{j}={f[i]}->{f[j]}" for i, j in named))
    return "\n".join(lines + ["}", "task validate m", "task validate F"]) + "\n"


@settings(max_examples=40, deadline=None)
@given(staged_documents())
def test_random_staged_documents_round_trip(text):
    doc = parse_document(text)
    out = emit_document(doc)
    again = parse_document(out)
    assert again == doc
    assert again.env == doc.env
    assert emit_document(again) == out
