"""Command line front end.

Verbs: describe, check, rp, lp, cover, projections, unitify, verify,
scan-cor, corpus. Exit codes are a contract; an error exits with its
class's ``exit_code``:

    0  pass / verdict true
    2  parse or input-shape error: ParseError, LiteralError, DescriptorError
    3  property false, or a requested projection does not exist:
       NoRightProjection, NoLeftProjection, NoCentralCover, NoGreatestElement
    4  hypothesis not met, or a resource cap refused the input:
       HypothesisNotMet, OrderCapExceeded, FamilyCapExceeded,
       CharacteristicMismatch, InvolutionNotWellDefined, ActionAxiomViolation
    5  a verified claim came out false: FormulaMismatch, VerificationFailed,
       AxiomViolation, StarbenchError

``--jobs N`` parallelizes the multi-ring verbs; results are merged in task
order, so output is byte-identical for every N. Timings are only included
under ``--timings`` for the same reason.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .algebra import build_scalar_algebra
from .audit import validate_star_ring
from .classifiers import (
    PROPERTY_CLASSIFIERS,
    classify_matrix_ring,
    ideal_annihilator_crosscheck,
    implication_reports_for,
    is_baer_star,
)
from .config import DEFAULT_LIMITS, Limits
from .corpus import CORPORA, corpus_by_name
from .descriptor import (
    Matrix,
    Cyclic,
    descriptor_hash,
    literal_to_dsl,
    literal_to_json,
    to_dsl,
)
from .dsl import parse_element, parse_ring_expr
from .errors import DescriptorError, StarbenchError, VerificationFailed
from .projections import RingScan, central_cover, lp, rp
from .rings import build_ring
from .unitify import check_R1_lemmas, describe_unitification, verify_unitification


class _RemoteFailure(StarbenchError):
    """A StarbenchError re-raised on the parent side of a worker pool.

    Custom exceptions with multi-argument constructors do not round-trip
    through pickle, so workers ship (exit code, payload) tuples instead.
    """

    def __init__(self, exit_code: int, info: dict):
        self.exit_code = exit_code
        self.info = info
        super().__init__(info.get("message", "worker failed"))

    def payload(self) -> dict:
        return self.info


def _limits(cap: Optional[int]) -> Limits:
    """The default limits, with the element cap replaced by ``--max-order``."""
    return DEFAULT_LIMITS if cap is None else DEFAULT_LIMITS.with_element_cap(cap)


def _emit(args, payload: Any, text_lines: Callable[[], List[str]]) -> None:
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for line in text_lines():
            sys.stdout.write(line + "\n")


def _run_tasks(body: Callable[[Any], Any], payloads: Sequence[Any], jobs: int) -> List[Any]:
    """body(payload) for every payload, serially or in a pool, in order.

    Each call is run by :func:`_tagged_call`; the first error is re-raised
    here so the exit-code contract survives the pool boundary.
    """
    tasks = [(body, p) for p in payloads]
    if jobs <= 1 or len(tasks) <= 1:
        tagged = [_tagged_call(t) for t in tasks]
    else:
        from multiprocessing import Pool

        with Pool(processes=min(jobs, len(tasks))) as pool:
            tagged = pool.map(_tagged_call, tasks, chunksize=1)
    out = []
    for tag in tagged:
        if tag[0] == "err":
            raise _RemoteFailure(tag[1], tag[2])
        out.append(tag[1])
    return out


# ---- worker functions (top level so they pickle) ---------------------------


def _tagged_call(task: Tuple[Callable[[Any], Any], Any]) -> tuple:
    """("ok", body(payload)), or ("err", exit_code, error payload) when the
    body raises a StarbenchError."""
    body, payload = task
    try:
        return ("ok", body(payload))
    except StarbenchError as exc:
        return ("err", exc.exit_code, exc.payload())


def _check_body(payload: Tuple[str, Tuple[str, ...], Optional[int], bool]) -> dict:
    expr, props, cap, timings = payload
    limits = _limits(cap)
    d = parse_ring_expr(expr)
    ring = build_ring(d, limits)
    scan = RingScan(ring)
    reports = [PROPERTY_CLASSIFIERS[p](ring, scan) for p in props]
    return {
        "ring": to_dsl(d),
        "reports": [r.to_json(include_timings=timings) for r in reports],
    }


def _scan_body(payload: Tuple[int, int, Optional[int]]) -> dict:
    n, m, cap = payload
    limits = _limits(cap)
    d = Matrix(n, Cyclic(m))
    ring = build_ring(d, limits)
    brute = is_baer_star(ring)
    arithmetic = classify_matrix_ring(n, m)
    return {
        "n": n,
        "m": m,
        "order": ring.order,
        "arithmetic": arithmetic,
        "brute": brute.verdict,
        "witness": brute.witness,
        "agree": arithmetic == brute.verdict,
    }


def _implication_body(payload: Tuple[str, Optional[int], bool]) -> List[dict]:
    expr, cap, timings = payload
    limits = _limits(cap)
    d = parse_ring_expr(expr)
    reports = implication_reports_for(d, limits)
    return [r.to_json(include_timings=timings) for r in reports]


# ---- verbs -----------------------------------------------------------------


def _cmd_describe(args) -> int:
    d = parse_ring_expr(args.ring)
    ring = build_ring(d, _limits(args.max_order))
    payload = {
        "ring": to_dsl(d),
        "hash": descriptor_hash(d),
        "order": ring.order,
        "unity": literal_to_json(ring.decode(ring.unity))
        if ring.unity is not None
        else None,
        "characteristic": ring.characteristic,
        "tables": ring.has_tables(),
    }
    if args.validate:
        payload["validation"] = validate_star_ring(ring)

    def text() -> List[str]:
        lines = [
            "ring            %s" % payload["ring"],
            "hash            %s" % payload["hash"],
            "order           %d" % payload["order"],
            "unity           %s"
            % (
                literal_to_dsl(d, ring.decode(ring.unity))
                if ring.unity is not None
                else "none"
            ),
            "characteristic  %d" % payload["characteristic"],
            "tables          %s" % ("materialized" if payload["tables"] else "on demand"),
        ]
        if args.validate:
            lines.append("validation      all axioms pass")
        return lines

    _emit(args, payload, text)
    return 0


def _cmd_check(args) -> int:
    named = list(args.properties)
    if args.corpus and args.ring is not None:
        # with --corpus the first positional is a property, not a ring
        named.insert(0, args.ring)
        args.ring = None
    if args.all or not named:
        props = tuple(PROPERTY_CLASSIFIERS)
    else:
        props = tuple(named)
    for p in props:
        if p not in PROPERTY_CLASSIFIERS:
            raise DescriptorError(
                "unknown property %r (expected one of %s)"
                % (p, ", ".join(PROPERTY_CLASSIFIERS))
            )
    if args.corpus:
        exprs = corpus_by_name(args.corpus)
    elif args.ring:
        exprs = [args.ring]
    else:
        raise DescriptorError("check needs a ring expression or --corpus")
    tasks = [(e, props, args.max_order, args.timings) for e in exprs]
    results = _run_tasks(_check_body, tasks, args.jobs)
    if args.corpus:
        payload: Any = results
    else:
        payload = results[0]

    def text() -> List[str]:
        lines = []
        for block in results:
            for rep in block["reports"]:
                verdict = "true" if rep["verdict"] else "false"
                line = "%s :: %s = %s" % (block["ring"], rep["property"], verdict)
                if rep.get("witness") is not None:
                    line += "  witness=%s" % json.dumps(rep["witness"])
                lines.append(line)
        return lines

    _emit(args, payload, text)
    if not args.corpus:
        ok = all(rep["verdict"] for rep in results[0]["reports"])
        return 0 if ok else 3
    return 0


def _element_command(args, kind: str) -> int:
    d = parse_ring_expr(args.ring)
    ring = build_ring(d, _limits(args.max_order))
    x = ring.encode(parse_element(args.element, d))
    scan = RingScan(ring)
    if kind == "rp":
        e = rp(ring, x, scan)
    elif kind == "lp":
        e = lp(ring, x, scan)
    else:
        e = central_cover(ring, x, scan)
    payload = {
        "ring": to_dsl(d),
        "operation": kind,
        "x": literal_to_json(ring.decode(x)),
        "result": literal_to_json(ring.decode(e)),
    }

    def text() -> List[str]:
        return [
            "%s(%s) = %s in %s"
            % (
                kind,
                literal_to_dsl(d, ring.decode(x)),
                literal_to_dsl(d, ring.decode(e)),
                to_dsl(d),
            )
        ]

    _emit(args, payload, text)
    return 0


def _cmd_projections(args) -> int:
    d = parse_ring_expr(args.ring)
    ring = build_ring(d, _limits(args.max_order))
    scan = RingScan(ring)
    rows = [
        {
            "index": p.index,
            "literal": literal_to_json(ring.decode(p.index)),
            "central": p.central,
        }
        for p in scan.poset.items()
    ]
    payload = {"ring": to_dsl(d), "count": len(rows), "projections": rows}

    def text() -> List[str]:
        lines = ["%d projections in %s" % (len(rows), to_dsl(d))]
        for row in rows:
            lines.append(
                "  %-6d %s%s"
                % (
                    row["index"],
                    literal_to_dsl(d, ring.decode(row["index"])),
                    "  (central)" if row["central"] else "",
                )
            )
        return lines

    _emit(args, payload, text)
    return 0


def _cmd_unitify(args) -> int:
    rd = parse_ring_expr(args.ring)
    kd = parse_ring_expr(args.K)
    limits = _limits(args.max_order)
    ring = build_ring(rd, limits)
    scalars = build_ring(kd, limits)
    algebra = build_scalar_algebra(ring, scalars, action=args.action)
    if args.verify == "none":
        payload = describe_unitification(algebra, limits)
        verdict_exit = 0
    else:
        report = verify_unitification(algebra, mode=args.verify, limits=limits)
        payload = report.to_json()
        verdict_exit = 0 if report.verdict else 5

    def text() -> List[str]:
        lines = [
            "ring      %s" % to_dsl(rd),
            "scalars   %s" % to_dsl(kd),
            "kernel    order %d" % payload["kernel_order"],
            "quotient  order %d" % payload["quotient_order"],
            "embedding %s" % ("injective" if payload["injective"] else "NOT injective"),
        ]
        if args.verify != "none":
            if not algebra.k_is_domain:
                lines.append("note      K is not an integral domain")
            if not algebra.torsion_free:
                lines.append("note      the module action has torsion")
            ok_rows = sum(1 for row in payload["preservation"] if row["ok"])
            lines.append(
                "preserved %d/%d" % (ok_rows, len(payload["preservation"]))
            )
            lines.append(
                "formula   %s"
                % ("agrees with brute force" if payload["formula_agreement"] else "MISMATCH")
            )
            lines.append("verdict   %s" % ("PASS" if payload["verdict"] else "FAIL"))
        return lines

    _emit(args, payload, text)
    return verdict_exit


def _cmd_verify(args) -> int:
    if args.suite == "implications":
        exprs = corpus_by_name(args.corpus)
        tasks = [(e, args.max_order, args.timings) for e in exprs]
        blocks = _run_tasks(_implication_body, tasks, args.jobs)
        rows = [row for block in blocks for row in block]
        violations = [row for row in rows if not row["verdict"]]
        payload = {
            "suite": "implications",
            "corpus": args.corpus,
            "rings": len(exprs),
            "laws_checked": len(rows),
            "violations": violations,
        }

        def text() -> List[str]:
            lines = [
                "implications over corpus %s: %d rings, %d law instances"
                % (args.corpus, len(exprs), len(rows))
            ]
            for row in violations:
                lines.append(
                    "  VIOLATION %s on %s: %s"
                    % (row["property"], row["ring"], json.dumps(row["witness"]))
                )
            lines.append("violations: %d" % len(violations))
            return lines

        _emit(args, payload, text)
        return 0 if not violations else 5

    if args.suite == "lemmas":
        rd = parse_ring_expr(args.ring)
        kd = parse_ring_expr(args.K)
        limits = _limits(args.max_order)
        algebra = build_scalar_algebra(
            build_ring(rd, limits), build_ring(kd, limits), action=args.action
        )
        payload = check_R1_lemmas(algebra, limits)

        def text() -> List[str]:
            return [
                "pair-ring lemmas on %s over %s: %d elements checked, pass"
                % (payload["ring"], payload["scalars"], payload["elements_checked"])
            ]

        _emit(args, payload, text)
        return 0

    # crosscheck
    d = parse_ring_expr(args.ring)
    ring = build_ring(d, _limits(args.max_order))
    ideal_annihilator_crosscheck(ring)
    payload = {"suite": "crosscheck", "ring": to_dsl(d), "ok": True}
    _emit(args, payload, lambda: ["ideal annihilator cross-check on %s: pass" % to_dsl(d)])
    return 0


def _cmd_scan_cor(args) -> int:
    tasks = [
        (n, m, args.max_order)
        for n in range(1, args.n_max + 1)
        for m in range(2, args.m_max + 1)
    ]
    rows = _run_tasks(_scan_body, tasks, args.jobs)
    truth: Dict[str, List[int]] = {}
    for row in rows:
        if row["brute"]:
            truth.setdefault(str(row["n"]), []).append(row["m"])
    all_agree = all(row["agree"] for row in rows)
    payload = {"rows": rows, "truth_sets": truth, "all_agree": all_agree}

    def text() -> List[str]:
        lines = []
        for row in rows:
            lines.append(
                "n=%d m=%-3d order=%-6d arithmetic=%-5s brute=%-5s %s"
                % (
                    row["n"],
                    row["m"],
                    row["order"],
                    str(row["arithmetic"]).lower(),
                    str(row["brute"]).lower(),
                    "agree" if row["agree"] else "DISAGREE",
                )
            )
        for n, ms in sorted(truth.items()):
            lines.append("baer-star true for n=%s: {%s}" % (n, ", ".join(map(str, ms))))
        lines.append("agreement: %s" % ("exact" if all_agree else "BROKEN"))
        return lines

    _emit(args, payload, text)
    return 0 if all_agree else 5


def _cmd_corpus(args) -> int:
    exprs = corpus_by_name(args.profile)
    hashes = [descriptor_hash(parse_ring_expr(e)) for e in exprs]
    if len(set(hashes)) != len(hashes):
        raise VerificationFailed("corpus-duplicate-descriptor", args.profile)
    payload = [
        {"ring": e, "hash": h} for e, h in zip(exprs, hashes)
    ]
    _emit(args, payload, lambda: list(exprs))
    return 0


# ---- argument plumbing -----------------------------------------------------


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an int of at least ``low``; anything lower is a
    usage error (exit 2)."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value

    return integer


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--timings", action="store_true", help="include microsecond timings")
    p.add_argument("--jobs", type=int, default=1, help="worker processes for sweeps")
    p.add_argument(
        "--max-order",
        type=_int_at_least(1),
        default=None,
        help="raise or lower the element-count cap (at least 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="starbench",
        description="workbench for finite rings with involution",
    )
    sub = top.add_subparsers(dest="verb", metavar="verb")

    p = sub.add_parser("describe", help="order, unity, characteristic of a ring")
    p.add_argument("ring")
    p.add_argument("--validate", action="store_true", help="run the full axiom audit")
    _common_flags(p)
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("check", help="run property classifiers")
    p.add_argument("ring", nargs="?", default=None)
    p.add_argument("properties", nargs="*", metavar="property")
    p.add_argument("--all", action="store_true", help="every classifier")
    p.add_argument("--corpus", choices=sorted(CORPORA), default=None)
    _common_flags(p)
    p.set_defaults(func=_cmd_check)

    for kind, blurb in (
        ("rp", "right projection of an element"),
        ("lp", "left projection of an element"),
        ("cover", "central cover of an element"),
    ):
        p = sub.add_parser(kind, help=blurb)
        p.add_argument("ring")
        p.add_argument("element")
        _common_flags(p)
        p.set_defaults(func=lambda a, _k=kind: _element_command(a, _k))

    p = sub.add_parser("projections", help="list all projections with centrality")
    p.add_argument("ring")
    _common_flags(p)
    p.set_defaults(func=_cmd_projections)

    p = sub.add_parser("unitify", help="adjoin a unity and verify the embedding")
    p.add_argument("ring")
    p.add_argument("--K", required=True, help="scalar ring expression")
    p.add_argument("--action", choices=("natural",), default="natural")
    p.add_argument(
        "--verify",
        choices=("rickart", "pqbaer", "none"),
        default="none",
        help="theorem mode to machine-check (default: construction only)",
    )
    _common_flags(p)
    p.set_defaults(func=_cmd_unitify)

    p = sub.add_parser("verify", help="run a verification suite")
    vsub = p.add_subparsers(dest="suite", metavar="suite")
    q = vsub.add_parser("implications", help="cross-classifier laws over a corpus")
    q.add_argument("--corpus", choices=sorted(CORPORA), default="medium")
    _common_flags(q)
    q.set_defaults(func=_cmd_verify, suite="implications")
    q = vsub.add_parser("lemmas", help="pair-ring lemmas under domain hypotheses")
    q.add_argument("ring")
    q.add_argument("--K", required=True)
    q.add_argument("--action", choices=("natural",), default="natural")
    _common_flags(q)
    q.set_defaults(func=_cmd_verify, suite="lemmas")
    q = vsub.add_parser("crosscheck", help="ideal annihilator shortcut vs definition")
    q.add_argument("ring")
    _common_flags(q)
    q.set_defaults(func=_cmd_verify, suite="crosscheck")

    p = sub.add_parser("scan-cor", help="arithmetic vs brute Baer* over a matrix grid")
    p.add_argument("--n-max", type=_int_at_least(1), default=2, help="largest n (at least 1)")
    p.add_argument("--m-max", type=_int_at_least(2), default=7, help="largest m (at least 2)")
    _common_flags(p)
    p.set_defaults(func=_cmd_scan_cor)

    p = sub.add_parser("corpus", help="print a named descriptor list")
    p.add_argument("profile", choices=sorted(CORPORA))
    _common_flags(p)
    p.set_defaults(func=_cmd_corpus)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return 2
    if args.verb == "verify" and not getattr(args, "suite", None):
        sys.stderr.write(
            "error: verify needs a suite: implications, lemmas, or crosscheck\n"
        )
        return 2
    try:
        return args.func(args)
    except StarbenchError as exc:
        if getattr(args, "format", "text") == "json":
            sys.stdout.write(json.dumps({"error": exc.payload()}, indent=2) + "\n")
        else:
            sys.stderr.write("error: %s\n" % exc)
        return exc.exit_code


def main_entry() -> None:
    sys.exit(main())
