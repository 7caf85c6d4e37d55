"""Executing parsed documents and rendering reports.

Each task runs in isolation: a refusal or a precondition problem becomes
a ``refused`` entry with its evidence, an unexpected exception becomes an
``error`` entry, and neither stops the tasks after it. A task that reaches
a category breaking its laws is refused as ``invalid`` first. The finished
report carries a digest over its own canonical JSON, so equal inputs
yield byte-equal machine output. Timing, when requested, is attached
after the digest is fixed and never feeds it.
"""

from __future__ import annotations

import hashlib
import json
import time

from . import __version__
from .ambient import PreconditionError
from .formats import SHAPE_BUILDERS, SpecDocument, emit_document
from .functor_cat import exponential_cat
from .limits import (
    CertificateError, Refusal, RefusalError, limit_functor,
    universal_cocone, universal_cone,
)
from .theorems import (
    aft_left_adjoint, colimit_via_duality, galois_oracle, is_continuous,
    lattice_completeness_check,
)


def _key(k) -> str:
    return k if isinstance(k, str) else repr(k)


def jsonable(x):
    """A deterministic JSON image: tuples become lists, non-string keys
    become their repr, anything else falls back to repr."""
    if isinstance(x, Refusal):
        return {"kind": x.kind, "details": jsonable(x.details)}
    if isinstance(x, dict):
        return {_key(k): jsonable(v)
                for k, v in sorted(x.items(), key=lambda kv: _key(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, bool) or x is None or isinstance(x, (int, float, str)):
        return x
    return repr(x)


def _sha(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _find_named(env, name):
    spaces = (("cats", "category"), ("presheaves", "presheaf"),
              ("maps", "map"), ("functors", "functor"),
              ("nats", "transformation"), ("diagrams", "diagram"))
    for space, label in spaces:
        if name in env[space]:
            return label, env[space][name]
    raise KeyError(name)


def _diagram_named(env, name):
    """A diagram is a functor, named by a ``diagram`` declaration or not."""
    return env["diagrams" if name in env["diagrams"] else "functors"][name]


def _vertex_labels(cone) -> dict:
    return {c: cone.vertex.components[c]["*"]
            for c in cone.vertex.source.base.objects}


def _run_validate(env, caps, args):
    label, value = _find_named(env, args[0])
    problems = value.validate()
    if problems:
        raise RefusalError(Refusal("invalid", {
            "target": args[0], "kind": label, "problems": problems}))
    return {"target": args[0], "kind": label, "laws": "hold"}


def _refuse_lawless(env, args, problems):
    """Refuse a task that reaches a category whose laws the parser did not
    establish (a ``category`` block, or an opposite or product of one) and
    that breaks them, as ``validate`` would: reaching means naming it, or a
    functor or diagram with it as an end. ``problems`` keeps each verdict,
    so a category is validated at most once per run."""
    for arg in args:
        for name in (arg,) if arg in env["cats"] else env["functor_ends"].get(arg, ()):
            if name in env["unchecked"] and name not in problems:
                problems[name] = env["cats"][name].validate()
            if problems.get(name):
                raise RefusalError(Refusal("invalid", {
                    "target": name, "kind": "category", "problems": problems[name]}))


def _run_exponential(env, caps, args):
    e = exponential_cat(env["cats"][args[0]], env["cats"][args[1]])
    base = e.cat.base
    return {"objects": {c: len(e.cat.obj.at(c)) for c in base.objects},
            "arrows": {c: len(e.cat.arr.at(c)) for c in base.objects}}


def _run_limit(search, env, args):
    res = search(_diagram_named(env, args[0]))
    if isinstance(res, Refusal):
        raise RefusalError(res)
    return {"kind": res.kind, "vertex": _vertex_labels(res.candidate),
            "unique": True}


def _run_complete_check(env, caps, args):
    res = lattice_completeness_check(env["cats"][args[0]])
    if isinstance(res, Refusal):
        raise RefusalError(res)
    caps[args[0]] = res
    ev = res.evidence
    return {"mode": res.mode, "top": ev["top"],
            "skeleton": list(ev["skeleton"]),
            "meet": {repr(k): v for k, v in ev["meet"].items()}}


def _run_limit_functor(env, caps, args):
    cat = env["cats"][args[0]]
    shape = SHAPE_BUILDERS[args[1]](cat.base)
    res = limit_functor(cat, shape)
    base = cat.base
    values = {c: sorted(set(res.functor.f0.components[c].values()),
                        key=repr)
              for c in base.objects}
    return {"shape": args[1], "unit_is_iso": res.unit_is_iso,
            "diagrams": {c: len(res.functor.f0.components[c])
                         for c in base.objects},
            "values": values}


def _run_aft(env, caps, args):
    name = args[0]
    src_name, tgt_name = env["functor_ends"][name]
    if src_name not in caps:
        raise RefusalError(Refusal("missing_capability", {
            "needs": "complete-check", "category": src_name,
            "hint": "run a complete-check task on the functor's source first"}))
    fn = env["functors"][name]
    adj = aft_left_adjoint(fn)
    witness = {"left_on_objects": {c: dict(adj.left.f0.components[c])
                                   for c in fn.source_cat.base.objects},
               "triangles": "exact"}
    if tgt_name in caps:
        oracle = galois_oracle(fn, source_cert=caps[src_name],
                               target_cert=caps[tgt_name])
        stage = fn.source_cat.base.objects[0]
        if isinstance(oracle, Refusal) or adj.left.f0.components[stage] != oracle.table:
            raise CertificateError("order oracle disagrees with the construction")
        witness["oracle_agrees"] = True
    return witness


def _run_duality_check(env, caps, args):
    res = colimit_via_duality(_diagram_named(env, args[0]))
    return {"vertex": _vertex_labels(res.cocone),
            "direct_vertex": _vertex_labels(res.direct.candidate),
            "iso": "certified"}


def _run_continuity_check(env, caps, args):
    rep = is_continuous(env["functors"][args[0]])
    checked = len(rep.entries)
    if not rep.ok:
        bad = [e for e in rep.entries if not e["ok"]]
        raise RefusalError(Refusal("not_continuous", {
            "diagrams_checked": checked, "failures": len(bad),
            "first_failures": bad[:3]}))
    return {"diagrams_checked": checked}


# each task op: how it runs, and what ``explain_document`` says it does
_TASKS = {
    "validate": (_run_validate,
                 "check every law of the named structure elementwise"),
    "exponential": (_run_exponential,
                    "build the functor category of the first argument into the second"),
    "limit": (lambda env, caps, args: _run_limit(universal_cone, env, args),
              "search the cone category for an internally terminal cone"),
    "colimit": (lambda env, caps, args: _run_limit(universal_cocone, env, args),
                "search the cocone category for an internally initial cocone"),
    "complete-check": (_run_complete_check,
                       "certify a top element and a full binary meet table"),
    "limit-functor": (_run_limit_functor,
                      "build the right adjoint to the constant-diagram functor"),
    "aft": (_run_aft,
            "construct a left adjoint from fiberwise limits over comma objects"),
    "duality-check": (_run_duality_check,
                      "compute the colimit twice, by duality and directly, and connect them"),
    "continuity-check": (_run_continuity_check,
                         "test limit preservation over the default shape family"),
}


def run_document(doc: SpecDocument, only=None, seed: int = 0,
                 timing: bool = False) -> dict:
    """Run the tasks of a document and return the report.

    ``only`` keeps the tasks whose op or argument matches one of the given
    names. The engine is deterministic; the seed is recorded so reports
    state the setting they were produced under.
    """
    wanted = None if not only else set(only)
    caps: dict = {}
    problems: dict = {}
    entries = []
    spans = []
    for t in doc.tasks:
        if wanted is not None and t.op not in wanted \
                and not any(a in wanted for a in t.args):
            continue
        entry = {"op": t.op, "args": list(t.args)}
        started = time.perf_counter()
        try:
            if t.op != "validate":
                _refuse_lawless(doc.env, t.args, problems)
            entry["witness"] = jsonable(_TASKS[t.op][0](doc.env, caps, t.args))
            entry["outcome"] = "ok"
        except RefusalError as r:
            entry["outcome"] = "refused"
            entry["refusal"] = jsonable(r.refusal)
        except PreconditionError as e:
            entry["outcome"] = "refused"
            entry["refusal"] = jsonable(Refusal("precondition",
                                                {"message": str(e)}))
        except Exception as e:                      # noqa: BLE001
            entry["outcome"] = "error"
            entry["error"] = {"type": type(e).__name__, "message": str(e)}
        spans.append(round((time.perf_counter() - started) * 1000.0, 3))
        entries.append(entry)
    body = {
        "schema": "report/1",
        "engine": {"name": "intcat", "version": __version__},
        "format": doc.version,
        "seed": seed,
        "filter": sorted(wanted) if wanted is not None else [],
        "input_digest": _sha(emit_document(doc)),
        "tasks": entries,
    }
    report = dict(body)
    report["digest"] = _sha(json.dumps(body, sort_keys=True, indent=2))
    if timing:
        report["timing"] = {
            "total_ms": round(sum(spans), 3),
            "tasks": [{"op": e["op"], "ms": ms}
                      for e, ms in zip(entries, spans)],
        }
    return report


def render_machine(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_human(report: dict) -> str:
    eng = report["engine"]
    lines = [f"{eng['name']} {eng['version']} report",
             f"input {report['input_digest']}",
             f"seed {report['seed']}"]
    if report["filter"]:
        lines.append("filter " + " ".join(report["filter"]))
    for i, e in enumerate(report["tasks"], start=1):
        head = f"{i:3}. {' '.join([e['op']] + e['args'])}: {e['outcome']}"
        if e["outcome"] == "ok":
            detail = json.dumps(e["witness"], sort_keys=True)
        elif e["outcome"] == "refused":
            detail = e["refusal"]["kind"] + " " + json.dumps(
                e["refusal"]["details"], sort_keys=True)
        else:
            detail = f"{e['error']['type']}: {e['error']['message']}"
        lines.append(head)
        lines.append("     " + detail)
    if "timing" in report:
        lines.append(f"time {report['timing']['total_ms']} ms")
    lines.append(f"report digest {report['digest']}")
    return "\n".join(lines) + "\n"


def explain_document(doc: SpecDocument) -> str:
    """A human summary of what a document declares and asks for."""
    lines = [f"format {doc.version}: {len(doc.declarations)} declarations, "
             f"{len(doc.tasks)} tasks"]
    for d in doc.declarations:
        sizes = ""
        if d.kind in ("lattice", "category") and d.name in doc.env["cats"]:
            cat = doc.env["cats"][d.name]
            counts = [f"{len(cat.obj.at(c))} objects, {len(cat.arr.at(c))} "
                      f"arrows at {c}" for c in cat.base.objects]
            sizes = ": " + "; ".join(counts)
        elif d.kind == "presheaf":
            x = doc.env["presheaves"][d.name]
            sizes = ": " + "; ".join(f"{len(x.at(c))} elements at {c}"
                                     for c in x.base.objects)
        lines.append(f"  {d.kind} {d.name}{sizes}")
    for t in doc.tasks:
        lines.append(f"  task {t.op} {' '.join(t.args)}: {_TASKS[t.op][1]}")
    return "\n".join(lines) + "\n"
