import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starbench
from starbench.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def run_fresh(*args):
    """The completed run of a fresh interpreter, ``python args...``, that
    imports this starbench."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(starbench.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def run_script(script):
    """Stdout of a fresh interpreter that runs ``script`` on this starbench."""
    proc = run_fresh("-c", script)
    proc.check_returncode()
    return proc.stdout


class TestPythonDashM:
    @pytest.mark.parametrize(
        "argv", [("describe", "Z(6)", "--format", "json"), ("check", "Z(4)", "baer-star")]
    )
    def test_runs_the_cli(self, capsys, argv):
        proc = run_fresh("-m", "starbench", *argv)
        code, out, _ = run(capsys, *argv)
        assert code in (0, 3) and out
        assert (proc.returncode, proc.stdout) == (code, out)

    def test_no_verb_is_a_usage_error(self):
        proc = run_fresh("-m", "starbench")
        assert proc.returncode == 2 and "usage:" in proc.stderr


class TestDescribe:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "describe", "Z(6)")
        assert code == 0
        lines = {l.split()[0]: l.split()[1] for l in out.splitlines() if l.split()}
        assert lines["order"] == "6"
        assert lines["characteristic"] == "6"

    def test_json_fields(self, capsys):
        code, payload, _ = run_json(capsys, "describe", "M(2,Z(3))")
        assert code == 0
        assert payload["order"] == 81
        assert payload["characteristic"] == 3
        assert payload["unity"] == ((1, 0), (0, 1)) or payload["unity"] == [[1, 0], [0, 1]]
        assert len(payload["hash"]) == 64

    def test_validate_flag(self, capsys):
        code, payload, _ = run_json(capsys, "describe", "Z(6)", "--validate")
        assert code == 0
        assert payload["validation"]["ok"] is True
        assert "mul-associative" in payload["validation"]["checks"]

    def test_validate_large_ring(self, capsys):
        code, payload, _ = run_json(capsys, "describe", "M(2, Z(6))", "--validate")
        assert code == 0
        assert payload["order"] == 1296
        _, small, _ = run_json(capsys, "describe", "M(2, Z(3))", "--validate")
        assert payload["validation"]["checks"] == small["validation"]["checks"]

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run(capsys, "describe", "Z(")
        assert code == 2
        assert "parse error" in err

    def test_parse_error_json_payload(self, capsys):
        code, payload, _ = run_json(capsys, "describe", "M(2 Z(3))")
        assert code == 2
        assert payload["error"]["type"] == "ParseError"
        assert payload["error"]["offset"] == 4


class TestCheck:
    def test_true_verdict_exit_0(self, capsys):
        code, out, _ = run(capsys, "check", "M(2,Z(3))", "baer-star")
        assert code == 0
        assert "baer-star" in out and "true" in out

    def test_false_verdict_exit_3(self, capsys):
        code, out, _ = run(capsys, "check", "Z(4)", "baer-star")
        assert code == 3
        assert "false" in out

    def test_witness_printed(self, capsys):
        code, payload, _ = run_json(capsys, "check", "sub(Z(9);3)", "weakly-rickart-star")
        assert code == 3
        rows = payload["reports"]
        assert rows[0]["verdict"] is False
        assert rows[0]["witness"]["x"] == 3

    def test_all_properties_by_default(self, capsys):
        # rp-not-cover is false on commutative rings, so the blanket check exits 3
        code, payload, _ = run_json(capsys, "check", "Z(6)")
        assert code == 3
        assert len(payload["reports"]) == 12
        false_props = [r["property"] for r in payload["reports"] if not r["verdict"]]
        assert false_props == ["rp-not-cover"]

    def test_several_named_properties(self, capsys):
        code, payload, _ = run_json(capsys, "check", "Z(6)", "rickart-star", "baer-star")
        assert code == 0
        assert [r["property"] for r in payload["reports"]] == ["rickart-star", "baer-star"]

    def test_unknown_property_exit_2(self, capsys):
        code, _, err = run(capsys, "check", "Z(6)", "super-baer")
        assert code == 2
        assert "super-baer" in err

    def test_corpus_mode(self, capsys):
        code, payload, _ = run_json(capsys, "check", "--corpus", "small", "rickart-star")
        assert code == 0
        assert isinstance(payload, list) and len(payload) == 24
        assert all(b["reports"][0]["property"] == "rickart-star" for b in payload)

    def test_corpus_parallel_output_identical(self, capsys):
        _, out1, _ = run(capsys, "check", "--corpus", "small", "baer-star", "--format", "json", "--jobs", "1")
        _, out2, _ = run(capsys, "check", "--corpus", "small", "baer-star", "--format", "json", "--jobs", "2")
        assert out1 == out2

    def test_max_order_guard_exit_4(self, capsys):
        code, payload, _ = run_json(capsys, "check", "M(2,Z(3))", "baer-star", "--max-order", "50")
        assert code == 4
        assert payload["error"]["type"] == "OrderCapExceeded"

    def test_corpus_cap_refusal_crosses_the_pool(self, capsys):
        # a worker's error comes back as its exit code and payload
        argv = ("check", "--corpus", "small", "--all", "--max-order", "10", "--format", "json")
        code1, out1, _ = run(capsys, *argv, "--jobs", "1")
        code2, out2, _ = run(capsys, *argv, "--jobs", "2")
        assert code1 == code2 == 4
        assert out1 == out2
        assert json.loads(out2)["error"]["type"] == "OrderCapExceeded"


class TestValidationCap:
    def test_call_based_audit_at_the_cap_passes(self, capsys):
        # Z(6000) is call-based, and 6000^2 is VALIDATION_TABLE_CAP itself
        code, payload, _ = run_json(capsys, "describe", "Z(6000)", "--validate")
        assert code == 0
        assert payload["tables"] is False
        assert payload["validation"] == {
            "ring": "Z(6000)",
            "order": 6000,
            "checks": [
                "zero-identity",
                "add-commutative",
                "add-inverse",
                "add-associative",
                "mul-associative",
                "distributive",
                "star-involutive",
                "star-additive",
                "star-anti-multiplicative",
                "unity",
            ],
            "ok": True,
        }

    def test_call_based_audit_past_the_cap_exits_4(self, capsys):
        # Z(6001) is call-based, and 6001^2 passes VALIDATION_TABLE_CAP
        code, payload, _ = run_json(capsys, "describe", "Z(6001)", "--validate")
        assert code == 4
        assert payload == {
            "error": {
                "type": "OrderCapExceeded",
                "message": "transient table order 36012001 exceeds the configured cap 36000000",
                "order": 36012001,
                "cap": 36000000,
            }
        }


class TestMaxOrder:
    @pytest.mark.parametrize("cap", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [("describe", "Z(6)"), ("check", "--corpus", "small", "proper")],
        ids=["describe", "check-corpus"],
    )
    def test_below_one_is_a_usage_error(self, capsys, argv, cap):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--max-order", cap])
        assert exc.value.code == 2
        assert "--max-order: must be at least 1" in capsys.readouterr().err

    def test_one_is_a_cap(self, capsys):
        code, payload, _ = run_json(capsys, "describe", "Z(6)", "--max-order", "1")
        assert code == 4
        assert payload["error"]["type"] == "OrderCapExceeded"


def cap_refusal(order):
    message = "ring order %s exceeds the configured cap 10000" % order
    return {"type": "OrderCapExceeded", "message": message, "order": order, "cap": 10000}


class TestOrdersTooLongToPrint:
    """An order of 10^4300 or more (over 4300 digits, which Python does not
    print by default) is never computed, and is shown as ">=10^4300"."""

    def test_an_order_of_4216_digits_is_printed(self, capsys):
        code, payload, _ = run_json(capsys, "describe", "M(94, Z(3))")
        assert (code, payload) == (4, {"error": cap_refusal(3**8836)})
        code, out, err = run(capsys, "describe", "M(94, Z(3))")
        assert (code, out, err) == (4, "", "error: %s\n" % cap_refusal(3**8836)["message"])

    @pytest.mark.parametrize(
        "text", ["M(95, Z(3))", "prod(M(70, Z(3)), M(70, Z(3)))", "M(100000, Z(3))"]
    )
    def test_a_longer_order_is_a_bound(self, capsys, text):
        code, payload, _ = run_json(capsys, "describe", text)
        assert (code, payload) == (4, {"error": cap_refusal(">=10^4300")})
        code, out, err = run(capsys, "describe", text)
        assert (code, out, err) == (4, "", "error: ring order >=10^4300 exceeds the configured cap 10000\n")

    def test_check_all_refuses_it(self, capsys):
        code, payload, _ = run_json(capsys, "check", "M(95, Z(3))", "--all")
        assert (code, payload) == (4, {"error": cap_refusal(">=10^4300")})

    def test_an_integer_of_more_than_4300_digits_is_a_parse_error(self, capsys):
        for digits in (4300, 4301):
            text = "Z(1%s)" % ("0" * (digits - 1))
            code, payload, _ = run_json(capsys, "describe", text)
            if digits == 4300:
                assert (code, payload["error"]["order"]) == (4, 10 ** (digits - 1))
            else:
                assert (code, payload["error"]["type"], payload["error"]["offset"]) == (2, "ParseError", 2)
                assert payload["error"]["expected"] == ["integer of at most 4300 digits"]

    def test_the_zero_matrix_ring_is_capped_by_its_entries(self, capsys):
        code, payload, _ = run_json(capsys, "describe", "M(100, Z(1))")
        assert (code, payload["order"]) == (0, 1)
        for size, entries in (("101", 10201), ("1" + "0" * 4000, ">=10^4300")):
            code, payload, _ = run_json(capsys, "describe", "M(%s, Z(1))" % size)
            assert (code, payload["error"]["order"]) == (4, entries)
            message = "matrix entry count %s exceeds the configured cap 10000" % entries
            assert payload["error"]["message"] == message

    def test_matrix_literals_of_any_length_are_reduced(self, capsys):
        big = "9" * 40  # 3 mod 4
        code, payload, _ = run_json(capsys, "describe", "sub(M(2, Z(4)); [[%s, 0], [0, -%s]])" % (big, big))
        _, reduced, _ = run_json(capsys, "describe", "sub(M(2, Z(4)); [[3, 0], [0, 1]])")
        assert code == 0
        assert (payload["order"], payload["unity"]) == (reduced["order"], reduced["unity"]) == (8, [[1, 0], [0, 1]])


_INTS = st.one_of(
    st.integers(-2, 12).map(str),
    st.integers(-(10**25), 10**25).map(str),
    st.tuples(st.sampled_from(["", "-"]), st.sampled_from([4299, 4300, 4301])).map(
        lambda p: p[0] + "7" * p[1]
    ),
)
_LITERALS = st.recursive(
    _INTS,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: "(%s, %s)" % p),
        st.lists(st.lists(_INTS, min_size=1, max_size=3).map(", ".join), min_size=1, max_size=3).map(
            lambda rows: "[%s]" % ", ".join("[%s]" % r for r in rows)
        ),
    ),
    max_leaves=4,
)
_EXPRS = st.recursive(
    _INTS.map(lambda m: "Z(%s)" % m),
    lambda inner: st.one_of(
        st.tuples(_INTS, inner).map(lambda p: "M(%s, %s)" % p),
        st.tuples(inner, inner).map(lambda p: "prod(%s, %s)" % p),
        st.tuples(inner, st.lists(_LITERALS, min_size=1, max_size=3)).map(
            lambda p: "sub(%s; %s)" % (p[0], ", ".join(p[1]))
        ),
    ),
    max_leaves=4,
)
# DSL text, and DSL text with one token-shaped piece inserted
_DSL_SHAPED = st.one_of(
    _EXPRS,
    st.tuples(_EXPRS, st.integers(0, 60), st.sampled_from(["(", ")", ",", ";", "[", "]", "Z", "M(", "x", "-", " "])).map(
        lambda p: p[0][: p[1]] + p[2] + p[0][p[1] :]
    ),
)


@settings(max_examples=150, deadline=None)
@given(_DSL_SHAPED)
def test_dsl_shaped_text_exits_0_2_or_4(text):
    """Any DSL-shaped text is described, refused as not a descriptor (2) or
    refused at a cap (4): never a traceback. The text follows "--", so
    text that starts with "-" stays text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["describe", "--max-order", "300", "--format", "json", "--", text])
    assert code in (0, 2, 4), text
    payload = json.loads(out.getvalue())
    assert ("error" in payload) == (code != 0)


def test_text_that_reads_as_an_option_exits_2(capsys):
    # without "--", argparse takes "-Z(0)" for an option and finds no
    # ring: a usage error, exit 2, with its usage on stderr and no JSON
    with pytest.raises(SystemExit) as exc:
        main(["describe", "-Z(0)", "--format", "json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: ")


# small rings the verbs answer, and literals that may name their elements
_SMALL_INTS = st.integers(-1, 6).map(str)
_SMALL_LITERALS = st.one_of(
    _SMALL_INTS,
    st.tuples(_SMALL_INTS, _SMALL_INTS).map(lambda p: "(%s, %s)" % p),
    st.lists(_SMALL_INTS, min_size=4, max_size=4).map(lambda e: "[[%s, %s], [%s, %s]]" % tuple(e)),
)
_SMALL_EXPRS = st.recursive(
    st.integers(1, 9).map(lambda m: "Z(%d)" % m),
    lambda inner: st.one_of(
        st.tuples(st.integers(1, 2), inner).map(lambda p: "M(%d, %s)" % p),
        st.tuples(inner, inner).map(lambda p: "prod(%s, %s)" % p),
        st.tuples(inner, _SMALL_LITERALS).map(lambda p: "sub(%s; %s)" % p),
    ),
    max_leaves=2,
)
_RING_TEXT = st.one_of(_SMALL_EXPRS, _DSL_SHAPED)
_LITERAL_TEXT = st.one_of(_SMALL_LITERALS, _LITERALS)

# every verb form that reads ring text: (verb words and options, positionals)
_VERB_FORMS = {
    "check": lambda ring, k, lit: (["check", "--all"], [ring]),
    "rp": lambda ring, k, lit: (["rp"], [ring, lit]),
    "lp": lambda ring, k, lit: (["lp"], [ring, lit]),
    "cover": lambda ring, k, lit: (["cover"], [ring, lit]),
    "projections": lambda ring, k, lit: (["projections"], [ring]),
    "unitify": lambda ring, k, lit: (["unitify", "--K=" + k], [ring]),
    "unitify-rickart": lambda ring, k, lit: (["unitify", "--K=" + k, "--verify", "rickart"], [ring]),
    "unitify-pqbaer": lambda ring, k, lit: (["unitify", "--K=" + k, "--verify", "pqbaer"], [ring]),
    "verify-lemmas": lambda ring, k, lit: (["verify", "lemmas", "--K=" + k], [ring]),
    "verify-crosscheck": lambda ring, k, lit: (["verify", "crosscheck"], [ring]),
}


@pytest.mark.parametrize("form", sorted(_VERB_FORMS))
@settings(max_examples=10, deadline=None)
@given(ring=_RING_TEXT, k=_RING_TEXT, literal=_LITERAL_TEXT)
def test_every_verb_exits_0_2_3_or_4(form, ring, k, literal):
    """Any small or DSL-shaped ring and scalar text, and any literal, is answered,
    refused as input (2), answered false or without a projection (3), or
    refused at a hypothesis or a cap (4): never a traceback, and never 5,
    which would be a claim of the package's own that came out false. The
    positionals follow "--", so text that starts with "-" stays text."""
    words, positionals = _VERB_FORMS[form](ring, k, literal)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(words + ["--max-order", "300", "--format", "json", "--"] + positionals)
    assert code in (0, 2, 3, 4), (form, ring, k, literal)
    json.loads(out.getvalue())


def run_at_cap(words, positionals, cap=None):
    """The exit code and JSON stdout of one verb, at ``--max-order cap``
    or, when none is passed, at the default cap."""
    capped = [] if cap is None else ["--max-order", str(cap)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(words + capped + ["--format", "json", "--"] + positionals)
    return code, out.getvalue()


# (ring, K, literal, L for R's verbs, L for the pair ring's): R's verbs
# build at most the structural order (a subring's parent's), and the
# unitify verbs and the lemmas the pair ring R x K, of order |R|.|K|
_CAP_INPUTS = [
    ("Z(6)", "Z(6)", "2", 6, 36),
    ("M(2, Z(2))", "Z(2)", "[[1,1],[0,0]]", 16, 32),
    ("sub(Z(9); 3)", "Z(9)", "3", 9, 27),
    ("Z(5)", "Z(5)", "1", 5, 25),
]
_PAIR_FORMS = {"unitify", "unitify-rickart", "unitify-pqbaer", "verify-lemmas"}


@pytest.mark.parametrize(
    "ring,k,lit,order,pair_order", _CAP_INPUTS, ids=[i[0] for i in _CAP_INPUTS]
)
@pytest.mark.parametrize("form", sorted(_VERB_FORMS))
def test_every_verb_is_capped_at_the_largest_order_it_builds(form, ring, k, lit, order, pair_order):
    """With L the largest order the verb builds, a cap of L - 1 refuses
    the run (4), at the cap or at a gate that refuses first, and caps of
    L and L + 1 give the default cap's exit code and stdout."""
    words, positionals = _VERB_FORMS[form](ring, k, lit)
    largest = pair_order if form in _PAIR_FORMS else order
    code, out = run_at_cap(words, positionals, largest - 1)
    assert code == 4, out
    assert json.loads(out)["error"]["type"] in ("OrderCapExceeded", "HypothesisNotMet")
    default = run_at_cap(words, positionals)
    assert run_at_cap(words, positionals, largest) == default
    assert run_at_cap(words, positionals, largest + 1) == default


class TestElementCommands:
    def test_rp_text(self, capsys):
        code, out, _ = run(capsys, "rp", "Z(6)", "2")
        assert code == 0
        assert "rp(2) = 4 in Z(6)" in out

    def test_rp_matrix_literal(self, capsys):
        code, payload, _ = run_json(capsys, "rp", "M(2,Z(3))", "[[0,1],[0,0]]")
        assert code == 0
        assert payload["operation"] == "rp"
        assert payload["result"] == [[0, 0], [0, 1]]

    def test_lp(self, capsys):
        code, out, _ = run(capsys, "lp", "Z(6)", "3")
        assert code == 0
        assert "lp(3) = 3" in out

    def test_cover(self, capsys):
        code, out, _ = run(capsys, "cover", "prod(Z(3),Z(3))", "(1,0)")
        assert code == 0
        assert "(1, 0)" in out

    def test_missing_projection_exit_3(self, capsys):
        code, payload, _ = run_json(capsys, "rp", "sub(Z(9);3)", "3")
        assert code == 3
        assert payload["error"]["type"] == "NoRightProjection"

    def test_bad_literal_exit_2(self, capsys):
        code, _, err = run(capsys, "rp", "Z(6)", "[[1,0],[0,1]]")
        assert code == 2

    def test_element_not_in_subring_exit_2(self, capsys):
        code, _, err = run(capsys, "rp", "sub(Z(9);3)", "4")
        assert code == 2


class TestProjections:
    def test_z6_rows(self, capsys):
        code, payload, _ = run_json(capsys, "projections", "Z(6)")
        assert code == 0
        rows = payload["projections"]
        assert [r["index"] for r in rows] == [0, 1, 3, 4]
        assert all(r["central"] for r in rows)

    def test_matrix_count(self, capsys):
        code, payload, _ = run_json(capsys, "projections", "M(2,Z(3))")
        assert code == 0
        centrals = [r for r in payload["projections"] if r["central"]]
        assert len(centrals) == 2


class TestUnitify:
    def test_describe_only(self, capsys):
        code, payload, _ = run_json(capsys, "unitify", "sub(Z(9);3)", "--K", "Z(9)", "--verify", "none")
        assert code == 0
        assert payload["kernel_order"] == 9
        assert payload["quotient_order"] == 3
        assert payload["injective"] is False

    def test_rickart_pass(self, capsys):
        code, out, _ = run(capsys, "unitify", "Z(6)", "--K", "Z(6)", "--verify", "rickart")
        assert code == 0
        assert "PASS" in out
        assert "K is not an integral domain" in out
        assert "preserved 6/6" in out

    def test_pqbaer_pass_preservation_table(self, capsys):
        code, out, _ = run(capsys, "unitify", "M(2,Z(3))", "--K", "Z(3)", "--verify", "pqbaer")
        assert code == 0
        assert "preserved 81/81" in out

    def test_json_report(self, capsys):
        code, payload, _ = run_json(capsys, "unitify", "M(2,Z(3))", "--K", "Z(6)", "--verify", "rickart")
        assert code == 0
        assert payload["verdict"] is True
        assert payload["flags"] == ["K-not-domain", "torsion-present"]
        assert payload["quotient_order"] == 81

    def test_hypothesis_gate_exit_4(self, capsys):
        code, payload, _ = run_json(capsys, "unitify", "sub(Z(9);3)", "--K", "Z(9)", "--verify", "rickart")
        assert code == 4
        assert payload["error"]["type"] == "HypothesisNotMet"

    def test_characteristic_mismatch_exit_4(self, capsys):
        code, payload, _ = run_json(capsys, "unitify", "Z(6)", "--K", "Z(4)")
        assert code == 4
        assert payload["error"]["type"] == "CharacteristicMismatch"

    # M(2, Z(7)) over Z(7): the pair ring has 7^5 = 16807 elements, and the
    # quotient (2401 cosets, 2401^2 past the table threshold) stays
    # call-based. The SHA-256 of the passing run's output was recorded by
    # the coset-by-coset formula check that preceded the one-pass one.
    def test_verify_at_the_pair_ring_cap(self, capsys):
        argv = ["unitify", "M(2, Z(7))", "--K", "Z(7)", "--verify", "pqbaer", "--format", "json"]
        assert main(argv + ["--max-order", "16806"]) == 4
        assert json.loads(capsys.readouterr().out) == {
            "error": {
                "type": "OrderCapExceeded",
                "message": "pair ring order 16807 exceeds the configured cap 16806",
                "order": 16807,
                "cap": 16806,
            }
        }
        assert main(argv + ["--max-order", "16807"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert (payload["kernel_order"], payload["quotient_order"], payload["verdict"]) == (7, 2401, True)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3dae1085be88dc057f08291226952c4539fc83bc37bad8894c5566ed6cae6afb"
        )


class TestVerify:
    def test_implications_corpus(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "implications", "--corpus", "small")
        assert code == 0
        assert payload["violations"] == []
        assert payload["rings"] == 24

    def test_lemmas_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "lemmas", "Z(3)", "--K", "Z(3)")
        assert code == 0

    def test_lemmas_torsion_gate(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "lemmas", "Z(6)", "--K", "Z(6)")
        assert code == 4
        assert payload["error"]["witness"] == {"lam": 2, "a": 3}

    def test_lemmas_domain_gate(self, capsys):
        # over the zero ring every action is torsion-free, so the domain
        # gate is the one that refuses; Z(1) has no zero divisors to name
        code, payload, _ = run_json(capsys, "verify", "lemmas", "Z(1)", "--K", "Z(6)")
        assert code == 4
        assert payload["error"]["witness"] == {"lam": 2, "mu": 3}
        code, payload, _ = run_json(capsys, "verify", "lemmas", "Z(1)", "--K", "Z(1)")
        assert code == 4
        assert payload["error"]["witness"] == {"order": 1}

    @pytest.mark.parametrize(
        "argv,hypothesis,witness",
        [
            (
                ["unitify", "Z(4)", "--K", "Z(4)", "--verify", "pqbaer"],
                "ring is weakly p.q.-Baer*",
                {"x": 2, "reason": "biconditional"},
            ),
            (
                ["unitify", "sub(Z(8); 2)", "--K", "Z(8)", "--verify", "pqbaer"],
                "ring is weakly p.q.-Baer*",
                {"x": 2, "reason": "no-central-cover"},
            ),
            # Only the zero ring reaches the domain gate: when |R| > 1, the
            # torsion-free gate before it already gives a domain, as
            # (lam mu).a = lam.(mu.a) != 0 for nonzero lam, mu and a.
            (
                ["verify", "lemmas", "Z(1)", "--K", "Z(4)"],
                "scalars form an integral domain",
                {"lam": 2, "mu": 2},
            ),
            (
                ["verify", "lemmas", "Z(1)", "--K", "Z(1)"],
                "scalars form an integral domain",
                {"order": 1},
            ),
        ],
        ids=["pqbaer-biconditional", "pqbaer-no-cover", "domain-Z(4)", "domain-Z(1)"],
    )
    def test_gate_refusal_names_hypothesis_and_witness(self, capsys, argv, hypothesis, witness):
        code, payload, _ = run_json(capsys, *argv)
        assert code == 4
        error = payload["error"]
        assert (error["type"], error["hypothesis"], error["witness"]) == (
            "HypothesisNotMet", hypothesis, witness
        )

    def test_crosscheck(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "crosscheck", "Z(6)")
        assert code == 0


class TestScanCor:
    def test_n1_truth_set(self, capsys):
        code, payload, _ = run_json(capsys, "scan-cor", "--n-max", "1", "--m-max", "12")
        assert code == 0
        assert payload["all_agree"] is True
        assert payload["truth_sets"]["1"] == [2, 3, 5, 6, 7, 10, 11]

    def test_n2_truth_set(self, capsys):
        code, payload, _ = run_json(capsys, "scan-cor", "--n-max", "2", "--m-max", "7")
        assert code == 0
        t = payload["truth_sets"]
        key = "2" if "2" in t else 2
        assert t[key] == [3, 7]

    def test_rows_carry_both_verdicts(self, capsys):
        code, payload, _ = run_json(capsys, "scan-cor", "--n-max", "1", "--m-max", "4")
        rows = payload["rows"]
        assert all(set(r) >= {"n", "m", "arithmetic", "brute", "agree"} for r in rows)
        assert all(r["agree"] for r in rows)

    def test_parallel_identical(self, capsys):
        _, out1, _ = run(capsys, "scan-cor", "--m-max", "6", "--format", "json", "--jobs", "1")
        _, out2, _ = run(capsys, "scan-cor", "--m-max", "6", "--format", "json", "--jobs", "2")
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--n-max", "0"), "--n-max: must be at least 1"),
            (("--m-max", "1"), "--m-max: must be at least 2"),
            (("--n-max", "-3", "--m-max", "-1"), "--n-max: must be at least 1"),
        ],
        ids=["n-max-0", "m-max-1", "both-negative"],
    )
    def test_empty_grid_is_a_usage_error(self, capsys, argv, message):
        # n runs from 1 and m from 2, so any lower bound leaves no ring to check
        with pytest.raises(SystemExit) as exc:
            main(["scan-cor", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestCorpus:
    @pytest.mark.parametrize("name,count", [("small", 24), ("medium", 41), ("all-cyclic", 29)])
    def test_profiles(self, capsys, name, count):
        code, payload, _ = run_json(capsys, "corpus", name)
        assert code == 0
        assert len(payload) == count

    def test_duplicate_free(self, capsys):
        code, payload, _ = run_json(capsys, "corpus", "medium")
        hashes = [r["hash"] for r in payload]
        assert len(set(hashes)) == len(hashes)

    def test_small_includes_spec_members(self, capsys):
        _, payload, _ = run_json(capsys, "corpus", "small")
        texts = [r["ring"] for r in payload]
        for needed in ["Z(2)", "Z(16)", "sub(Z(4); 2)", "sub(Z(9); 3)", "prod(Z(2), Z(3))"]:
            assert needed in texts

    def test_unknown_profile_exit_2(self, capsys):
        # argparse rejects the choice itself and exits with status 2
        with pytest.raises(SystemExit) as exc:
            main(["corpus", "huge"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestArgHandling:
    def test_no_verb_exit_2(self, capsys):
        assert run(capsys, )[0] == 2

    def test_text_errors_go_to_stderr(self, capsys):
        code, out, err = run(capsys, "describe", "Z(")
        assert out == ""
        assert err != ""

    def test_json_errors_go_to_stdout(self, capsys):
        code, payload, err = run_json(capsys, "describe", "Z(")
        assert payload["error"]["type"] == "ParseError"


class TestImports:
    def test_verbs_never_import_numpy_ma(self):
        # np.unique imports numpy.ma on its first call, a fixed cost of
        # about 15 ms in every process; the package keeps to flag arrays
        script = (
            "import sys\n"
            "from starbench.cli import main\n"
            "codes = [\n"
            "    main(['check', 'M(2, Z(3))', '--all']),\n"
            "    main(['unitify', 'M(2, Z(3))', '--K', 'Z(6)', '--verify', 'rickart']),\n"
            "    main(['unitify', 'sub(Z(9); 3)', '--K', 'Z(9)']),\n"
            "    main(['describe', 'M(2, Z(4))', '--validate']),\n"
            "]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n"
        )
        out = run_script(script)
        # check exits 3: M(2, Z(3)) is neither reduced nor abelian
        assert out.splitlines()[-1] == "[3, 0, 0, 0] False"


def peak_run(argv):
    """(exit code, JSON output, peak MB) of ``main(argv + ['--format',
    'json'])`` in a fresh interpreter. Linux keeps ru_maxrss across execve,
    so a child started from a large test process would report the parent's
    peak; VmHWM is the peak of the child's own address space."""
    script = (
        "import contextlib, io, json, resource\n"
        "from starbench.cli import main\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    code = main(%r + ['--format', 'json'])\n"
        "peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "try:\n"
        "    with open('/proc/self/status') as status:\n"
        "        hwm = [l for l in status if l.startswith('VmHWM:')][0]\n"
        "    peak_mb = int(hwm.split()[1]) / 1024\n"
        "except (OSError, IndexError):\n"
        "    pass\n"
        "print(json.dumps([code, json.loads(buf.getvalue()), peak_mb]))\n"
    ) % (list(argv),)
    return json.loads(run_script(script).splitlines()[-1])


class TestPeakMemory:
    def test_large_kernel_stays_small_in_memory(self):
        # sub(Z(4); 2) = {0, 2} has zero products, so (a, lam) lies in N
        # exactly when lam.2 = 0, i.e. lam is even: over Z(2000), |N| =
        # 2 x 1000. N's closure under + must not be checked over all |N|^2
        # pairs of members at once.
        code, payload, peak_mb = peak_run(["unitify", "sub(Z(4); 2)", "--K", "Z(2000)"])
        assert (code, payload["kernel_order"], payload["quotient_order"]) == (0, 2000, 2)
        assert peak_mb < 150, peak_mb

    def test_call_based_audit_scans_in_row_blocks(self):
        # the audit of the call-based M(2, Z(7)) (n = 2401) reads its rows
        # and columns from the backend a block at a time and builds no
        # table: it peaks near the 38 MB the ring itself takes, where the
        # two transient n^2 tables it once assembled (int32 then, 23 MB
        # each; int16 now halves that) took it to 86 MB
        code, payload, peak_mb = peak_run(["describe", "M(2, Z(7))", "--validate"])
        assert code == 0 and payload["validation"]["ok"], payload
        assert peak_mb < 60, peak_mb

    def test_verify_on_the_tabled_quotient_stays_small_in_memory(self):
        # M(2, Z(6)) over Z(6): R's tables and the quotient's twin (1296
        # elements each) are int16, 3.4 MB a table; with int32 tables the
        # verb peaked at 65 MB, where it peaks near 54 MB
        argv = ["unitify", "M(2, Z(6))", "--K", "Z(6)", "--verify", "pqbaer"]
        code, payload, peak_mb = peak_run(argv)
        assert code == 0 and payload["verdict"] and payload["quotient_order"] == 1296
        assert peak_mb < 62, peak_mb

    def test_verify_with_hundreds_of_projections_stays_small_in_memory(self):
        # Z(2)^9: all 512 elements are central projections, and so are the
        # 512 cosets of its quotient. Each formula row, eigen-projection row
        # and cover row picks its extremum among p = 512 projections; a test
        # that built a rows x p x p temporary would take 134 MB where the
        # verb peaks near 46 MB
        ring = "Z(2)"
        for _ in range(8):
            ring = "prod(%s, Z(2))" % ring
        code, payload, peak_mb = peak_run(["unitify", ring, "--K", "Z(2)", "--verify", "pqbaer"])
        assert code == 0 and payload["verdict"] and payload["quotient_order"] == 512
        assert peak_mb < 70, peak_mb

    def test_projections_of_a_boolean_ring_stay_small_in_memory(self):
        # Z(2)^11: all 2048 elements are projections. The order, the fixers
        # and eR come from one pass over the projections' rows, a block at a
        # time; building the order from p^2-entry int64 products took the
        # verb to 308 MB, where it peaks near 60 MB
        ring = "Z(2)"
        for _ in range(10):
            ring = "prod(%s, Z(2))" % ring
        code, payload, peak_mb = peak_run(["projections", ring])
        assert code == 0 and payload["count"] == 2048
        assert all(row["central"] for row in payload["projections"])
        assert peak_mb < 100, peak_mb

    def test_check_all_at_the_element_cap_stays_small_in_memory(self):
        # M(2, Z(10)) has 10,000 elements, the default cap. Every scan
        # keeps r(xR) as one bitset per x, and no classifier unpacks them
        # into an n x n bool matrix, which once took this verb to 269 MB
        code, payload, peak_mb = peak_run(["check", "M(2, Z(10))", "--all"])
        verdicts = {r["property"]: r["verdict"] for r in payload["reports"]}
        false = {"proper", "reduced", "abelian", "rickart-star", "weakly-rickart-star", "baer-star"}
        assert code == 3 and verdicts == {p: p not in false for p in verdicts}, verdicts
        assert len(verdicts) == 12
        assert peak_mb < 100, peak_mb
