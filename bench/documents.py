"""Seeded ``.ct`` documents for the ``documents`` workload.

Each document comes with the outcome the generator expects for every task:
ok or refused, the refusal kind, and for limits and colimits the vertex.
The expectations follow from how the document was built (gcd and lcm of
divisors, minimum and maximum on chains, the chosen filter of a lattice),
not from running the engine.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from math import gcd
from pathlib import Path

from oracle import lcm
from workloads import Inputs, Verdict

# divisor counts fixed by the exponent pattern, so seeds vary labels only
DIVISORS_3_2_1 = (360, 504, 540, 600, 756, 792, 936)
DIVISORS_1_1_1 = (30, 42, 66, 70, 78, 102, 105, 110)
LETTERS = "abcdefghjkmnpqrstuvwxyz"
DOCUMENT_BLOCKS = 4     # each with one document of every kind


def _ok(op, **extra):
    return {"op": op, "outcome": "ok", **extra}


def _refused(op, kind):
    return {"op": op, "outcome": "refused", "kind": kind}


def _pair_functor(name, cat, stages, x, y):
    rows = "\n".join(f"  obj {c} : a={x} b={y}" for c in stages)
    return f"functor {name} : pair -> {cat} {{\n{rows}\n}}\n"


def divisors_doc(rng, big):
    n = rng.choice(DIVISORS_3_2_1) if big else rng.choice((12, 18, 20, 28))
    divs = [d for d in range(1, n + 1) if n % d == 0]
    x, y = rng.sample(divs, 2)
    text = ("format 1\nbase fin finset\n"
            f"lattice D over fin : divisors {n}\n"
            "category pair over fin : discrete a b\n"
            + _pair_functor("sub", "D", ["pt"], x, y)
            + "diagram dg : sub\n"
            "task validate D\ntask complete-check D\ntask limit dg\n"
            "task colimit dg\ntask duality-check dg\n")
    meet, join = {"pt": str(gcd(x, y))}, {"pt": str(lcm(x, y))}
    return text, [_ok("validate"), _ok("complete-check", top=str(n)),
                  _ok("limit", vertex=meet), _ok("colimit", vertex=join),
                  _ok("duality-check", vertex=join)]


def divisors_aft_doc(rng):
    """gcd with a divisor k of m preserves the top and all meets; its left
    adjoint is the inclusion of the divisors of k."""
    m = rng.choice(DIVISORS_1_1_1)
    primes = [p for p in range(2, m + 1) if m % p == 0
              and all(p % q for q in range(2, p))]
    k = primes[0] * primes[1] * primes[2] // rng.choice(primes)
    dm = [d for d in range(1, m + 1) if m % d == 0]
    dk = [d for d in range(1, k + 1) if k % d == 0]
    table = " ".join(f"{d}={gcd(d, k)}" for d in dm)
    text = ("format 1\nbase fin finset\n"
            f"lattice D over fin : divisors {m}\n"
            f"lattice E over fin : divisors {k}\n"
            f"functor g : D -> E {{\n  obj pt : {table}\n}}\n"
            "task complete-check D\ntask complete-check E\n"
            "task validate g\ntask continuity-check g\ntask aft g\n")
    left = {"pt": {str(d): str(d) for d in dk}}
    return text, [_ok("complete-check", top=str(m)),
                  _ok("complete-check", top=str(k)), _ok("validate"),
                  _ok("continuity-check"), _ok("aft", left=left)]


def chain_doc(rng, n):
    x, y = sorted(rng.sample(range(n), 2))
    if rng.random() < 0.5:
        x, y = y, x
    text = ("format 1\nbase fin finset\n"
            f"category C over fin : chain {n}\n"
            "category pair over fin : discrete a b\n"
            + _pair_functor("sub", "C", ["pt"], x, y)
            + "diagram dg : sub\n"
            "task validate C\ntask complete-check C\ntask limit dg\n"
            "task colimit dg\n")
    return text, [_ok("validate"), _ok("complete-check", top=str(n - 1)),
                  _ok("limit", vertex={"pt": str(min(x, y))}),
                  _ok("colimit", vertex={"pt": str(max(x, y))})]


def cube_doc(rng):
    """The powerset of three atoms, presented by its covering pairs, and
    the indicator of the principal filter of one atom into a 2-chain."""
    atoms = rng.sample(LETTERS, 3)
    subsets = [""] + atoms + [atoms[0] + atoms[1], atoms[0] + atoms[2],
                              atoms[1] + atoms[2], "".join(atoms)]
    label = {s: "s" + s for s in subsets}
    covers = [f"{label[s]}<{label[t]}" for s in subsets for t in subsets
              if len(t) == len(s) + 1 and set(s) <= set(t)]
    a = rng.choice(atoms)
    table = " ".join(f"{label[s]}={1 if a in s else 0}" for s in subsets)
    text = ("format 1\nbase fin finset\n"
            f"lattice L over fin : {' '.join(label[s] for s in subsets)} / "
            f"{' '.join(covers)}\n"
            "category T over fin : chain 2\n"
            f"functor f : L -> T {{\n  obj pt : {table}\n}}\n"
            "task complete-check L\ntask complete-check T\n"
            "task validate f\ntask continuity-check f\ntask aft f\n")
    left = {"pt": {"0": label[""], "1": label[a]}}
    return text, [_ok("complete-check", top=label["".join(atoms)]),
                  _ok("complete-check", top="1"), _ok("validate"),
                  _ok("continuity-check"), _ok("aft", left=left)]


def pentagon_doc(rng):
    """The non-distributive pentagon bot < p < q < top, bot < r < top."""
    bot, p, q, r, top = (w + str(rng.randrange(100))
                         for w in ("b", "p", "q", "r", "t"))
    text = ("format 1\nbase fin finset\n"
            f"lattice N over fin : {bot} {p} {q} {r} {top} / "
            f"{bot}<{p} {p}<{q} {q}<{top} {bot}<{r} {r}<{top}\n"
            "category pair over fin : discrete a b\n"
            + _pair_functor("qr", "N", ["pt"], q, r)
            + _pair_functor("pq", "N", ["pt"], p, q)
            + "diagram meet_qr : qr\ndiagram join_pq : pq\n"
            "task validate N\ntask complete-check N\ntask limit meet_qr\n"
            "task colimit meet_qr\ntask limit join_pq\ntask colimit join_pq\n"
            "task duality-check meet_qr\n")
    return text, [_ok("validate"), _ok("complete-check", top=top),
                  _ok("limit", vertex={"pt": bot}),
                  _ok("colimit", vertex={"pt": top}),
                  _ok("limit", vertex={"pt": p}),
                  _ok("colimit", vertex={"pt": q}),
                  _ok("duality-check", vertex={"pt": top})]


def staged_doc(rng, stages):
    """A chain over a staged base, plus a category whose objects move
    between the stages."""
    k = 5
    x, y = rng.sample(range(k), 2)
    names = [f"c{i}" for i in range(stages)]
    p, q, m = (w + str(rng.randrange(100)) for w in ("p", "q", "m"))
    obj_rows = [f"  obj c0 : {p} {q}"] + [f"  obj {c} : {m}" for c in names[1:]]
    arr_rows = [f"  arr c0 : i{p} i{q}"] + [f"  arr {c} : i{m}" for c in names[1:]]
    src_rows = [f"  src c0 : i{p}={p} i{q}={q}"] + [
        f"  src {c} : i{m}={m}" for c in names[1:]]
    tgt_rows = [r.replace("src", "tgt", 1) for r in src_rows]
    id_rows = [f"  id c0 : {p}=i{p} {q}=i{q}"] + [
        f"  id {c} : {m}=i{m}" for c in names[1:]]
    act_rows = [f"  act c0<c1 obj : {m}={p}", f"  act c0<c1 arr : i{m}=i{p}"]
    act_rows += [f"  act c{i}<c{i + 1} obj : {m}={m}\n"
                 f"  act c{i}<c{i + 1} arr : i{m}=i{m}"
                 for i in range(1, stages - 1)]
    text = ("format 1\n"
            f"base two chain {stages}\n"
            f"category K over two : chain {k}\n"
            "category pair over two : discrete a b\n"
            + _pair_functor("sub", "K", names, x, y)
            + "diagram dg : sub\n"
            "category moving over two {\n"
            + "\n".join(obj_rows + arr_rows + src_rows + tgt_rows + id_rows
                        + act_rows)
            + "\n}\n"
            "category still over two : indiscrete u v\n"
            "task validate K\ntask validate moving\ntask limit dg\n"
            "task colimit dg\ntask duality-check dg\n"
            "task exponential still still\n")
    lo = {c: str(min(x, y)) for c in names}
    hi = {c: str(max(x, y)) for c in names}
    return text, [_ok("validate"), _ok("validate"), _ok("limit", vertex=lo),
                  _ok("colimit", vertex=hi), _ok("duality-check", vertex=hi),
                  _ok("exponential")]


def refusals_doc(rng):
    """Each check on a shape that makes it refuse: no top, no meet,
    a missing capability, and a map that does not preserve the top."""
    bot, a, b = (w + str(rng.randrange(100)) for w in ("z", "a", "b"))
    text = ("format 1\nbase fin finset\n"
            f"lattice vee over fin : {bot} {a} {b} / {bot}<{a} {bot}<{b}\n"
            f"category two over fin : discrete {a} {b}\n"
            "category none over fin {\n  obj pt :\n  arr pt :\n  src pt :\n"
            "  tgt pt :\n  id pt :\n}\n"
            "functor into_two : none -> two\n"
            "diagram nothing : into_two\n"
            "category pair over fin : discrete a b\n"
            + _pair_functor("both", "two", ["pt"], a, b)
            + "diagram dg : both\n"
            "category A over fin : chain 3\ncategory B over fin : chain 2\n"
            "functor low : A -> B {\n  obj pt : 0=0 1=0 2=0\n}\n"
            "task complete-check vee\ntask complete-check two\n"
            "task limit nothing\ntask limit dg\ntask colimit dg\n"
            "task aft into_two\ntask complete-check A\n"
            "task complete-check B\ntask continuity-check low\n"
            "task aft low\n")
    return text, [_refused("complete-check", "no_meet"),
                  _refused("complete-check", "no_meet"),
                  _refused("limit", "no_universal_cone"),
                  _refused("limit", "no_universal_cone"),
                  _refused("colimit", "no_universal_cocone"),
                  _refused("aft", "missing_capability"),
                  _ok("complete-check", top="2"),
                  _ok("complete-check", top="1"),
                  _refused("continuity-check", "not_continuous"),
                  _refused("aft", "not_continuous")]


def _matches(entry, want) -> bool:
    if entry["op"] != want["op"] or entry["outcome"] != want["outcome"]:
        return False
    if want["outcome"] == "refused":
        return entry["refusal"]["kind"] == want["kind"]
    w = entry["witness"]
    if "vertex" in want and w.get("vertex") != want["vertex"]:
        return False
    if want["op"] == "duality-check" and w.get("direct_vertex") != want["vertex"]:
        return False
    if "top" in want and w.get("top") != want["top"]:
        return False
    if "left" in want and (w.get("left_on_objects") != want["left"]
                           or w.get("oracle_agrees") is not True):
        return False
    return True


def _tampered(expect):
    """The same table with the first vertex, top or outcome altered."""
    out = [dict(e) for e in expect]
    e = out[0]
    if "vertex" in e:
        e["vertex"] = {c: v + "x" for c, v in e["vertex"].items()}
    elif "top" in e:
        e["top"] += "x"
    else:
        e["outcome"] = "refused" if e["outcome"] == "ok" else "ok"
    return out


def documents(seed: int, tiny: bool = False, corrupt: bool = False,
              workdir: Path = None) -> Inputs:
    """One block of documents of fixed kinds with seeded contents, written
    under ``workdir``; the run repeats the block, so each document's report
    digest is checked against its first run."""
    from intcat import cli
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    digests: dict = {}
    blocks, made = [], []
    for b in range(1 if tiny else DOCUMENT_BLOCKS):
        if tiny:
            docs = [divisors_doc(rng, False), chain_doc(rng, 4), refusals_doc(rng)]
        else:
            docs = [divisors_doc(rng, True), divisors_doc(rng, True),
                    divisors_aft_doc(rng), divisors_aft_doc(rng),
                    chain_doc(rng, 24), cube_doc(rng), pentagon_doc(rng),
                    staged_doc(rng, 2), staged_doc(rng, 3),
                    refusals_doc(rng), refusals_doc(rng)]
        made += docs
        block = _block(docs, b, workdir, digests, corrupt, cli)
        rng.shuffle(block)
        blocks.append(block)
    ops: dict = {}
    for _, expect in made:
        for e in expect:
            key = e["op"] + ("" if e["outcome"] == "ok" else ":" + e["kind"])
            ops[key] = ops.get(key, 0) + 1
    profile = {"documents": len(made), "task_mix": ops}
    return Inputs(blocks, profile,
                  lambda: shutil.rmtree(workdir, ignore_errors=True))


def _block(docs, b, workdir, digests, corrupt, cli):
    block = []
    for n, (text, expect) in enumerate(docs):
        path = workdir / f"doc{b}-{n:02d}.ct"
        path.write_text(text, encoding="utf-8")
        if corrupt and n == 0:
            expect = _tampered(expect)

        def call(path=str(path)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["run", path, "--format", "machine"])
            return code, buf.getvalue()

        def check(out, err, path=str(path), expect=expect):
            if err is not None or out[0] != 0:
                return False
            report = json.loads(out[1])
            if digests.setdefault(path, report["digest"]) != report["digest"]:
                return False
            tasks = report["tasks"]
            return len(tasks) == len(expect) and all(
                _matches(t, w) for t, w in zip(tasks, expect))
        block.append(Verdict(path.name, call, check))
    return block
