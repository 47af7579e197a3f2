"""The error contract: each StarbenchError subclass's exit code, against
the table in the cli module docstring, and its JSON payload, key order
included."""

import json
import re

import pytest

from starbench import cli
from starbench import errors as E
from starbench.cli import _RemoteFailure


def every_error_class(cls=E.StarbenchError):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(every_error_class(sub))
    return out


def documented_exit_codes():
    """Class name -> exit code, read from the cli docstring's table."""
    table = cli.__doc__.split("Exit codes are a contract", 1)[1].split("``--jobs N``")[0]
    out = {}
    for code, entry in re.findall(r"^    (\d)  (.*?)(?=^    \d  |\Z)", table, re.M | re.S):
        for name in re.findall(r"\b([A-Z][a-z]+[A-Z]\w*)\b", entry):
            out[name] = int(code)
    return out


# one instance of each class and json.dumps of its payload()
PAYLOADS = {
    "StarbenchError": (
        E.StarbenchError("boom"),
        '{"type": "StarbenchError", "message": "boom"}',
    ),
    "DescriptorError": (
        E.DescriptorError("bad modulus 0"),
        '{"type": "DescriptorError", "message": "bad modulus 0"}',
    ),
    "LiteralError": (
        E.LiteralError("7 is not an element"),
        '{"type": "LiteralError", "message": "7 is not an element"}',
    ),
    "ParseError": (
        E.ParseError(2, ["integer", "')'"], "end of input"),
        '{"type": "ParseError", "message": "parse error at offset 2: expected integer'
        ' or \')\', found end of input", "offset": 2, "expected": ["integer", "\')\'"],'
        ' "found": "end of input"}',
    ),
    "OrderCapExceeded": (
        E.OrderCapExceeded(10201, 10000),
        '{"type": "OrderCapExceeded", "message": "ring order 10201 exceeds the'
        ' configured cap 10000", "order": 10201, "cap": 10000}',
    ),
    "AxiomViolation": (
        E.AxiomViolation("star-involutive", (3,)),
        '{"type": "AxiomViolation", "message": "axiom \'star-involutive\' fails at'
        ' witness (3,)", "axiom": "star-involutive", "witness": [3]}',
    ),
    "ActionAxiomViolation": (
        E.ActionAxiomViolation("additive-in-scalar", (1, 3, 1)),
        '{"type": "ActionAxiomViolation", "message": "axiom \'additive-in-scalar\''
        ' fails at witness (1, 3, 1)", "axiom": "additive-in-scalar",'
        ' "witness": [1, 3, 1]}',
    ),
    "CharacteristicMismatch": (
        E.CharacteristicMismatch(6, 4),
        '{"type": "CharacteristicMismatch", "message": "natural action needs'
        ' char(R) | m; got characteristic 6, modulus 4"}',
    ),
    "NoRightProjection": (
        E.NoRightProjection(2),
        '{"type": "NoRightProjection", "message": "no right projection exists for 2"}',
    ),
    "NoLeftProjection": (
        E.NoLeftProjection(2),
        '{"type": "NoLeftProjection", "message": "no left projection exists for 2"}',
    ),
    "NoCentralCover": (
        E.NoCentralCover(2),
        '{"type": "NoCentralCover", "message": "no central cover exists for 2"}',
    ),
    "NoGreatestElement": (
        E.NoGreatestElement([1, 3]),
        '{"type": "NoGreatestElement", "message": "candidate projection set has no'
        ' greatest element: [1, 3]"}',
    ),
    "FamilyCapExceeded": (
        E.FamilyCapExceeded(16),
        '{"type": "FamilyCapExceeded", "message": "annihilator family exceeds the'
        ' cap of 16 sets"}',
    ),
    "HypothesisNotMet": (
        E.HypothesisNotMet("the module action is torsion-free", {"lam": 2, "a": 3}),
        '{"type": "HypothesisNotMet", "message": "hypothesis not met: the module'
        ' action is torsion-free (witness {\'lam\': 2, \'a\': 3})", "hypothesis":'
        ' "the module action is torsion-free", "witness": {"lam": 2, "a": 3}}',
    ),
    "InvolutionNotWellDefined": (
        E.InvolutionNotWellDefined((1, 2)),
        '{"type": "InvolutionNotWellDefined", "message": "kernel is not closed'
        ' under the involution; witness (1, 2)"}',
    ),
    "FormulaMismatch": (
        E.FormulaMismatch(2, 1, 3),
        '{"type": "FormulaMismatch", "message": "formula gives 1 but exhaustive'
        ' search gives 3 at 2"}',
    ),
    "VerificationFailed": (
        E.VerificationFailed("ideal-annihilator-shortcut", (1, 2)),
        '{"type": "VerificationFailed", "message": "verification failed:'
        ' ideal-annihilator-shortcut (witness (1, 2))",'
        ' "claim": "ideal-annihilator-shortcut", "witness": [1, 2]}',
    ),
}

# _RemoteFailure carries a worker's code and payload, so it has neither
# of its own
ERROR_CLASSES = [c for c in every_error_class() if c is not _RemoteFailure]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_exit_code_is_declared_and_documented(cls):
    assert "exit_code" in vars(cls), "%s declares no exit_code" % cls.__name__
    assert cls.exit_code == documented_exit_codes()[cls.__name__]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_payload_is_pinned(cls):
    exc, expected = PAYLOADS[cls.__name__]
    assert type(exc) is cls
    assert json.dumps(exc.payload()) == expected


def test_documented_classes_exist():
    assert set(documented_exit_codes()) == {c.__name__ for c in ERROR_CLASSES}


def test_none_witness_is_left_out():
    assert E.HypothesisNotMet("ring is weakly Rickart*").payload() == {
        "type": "HypothesisNotMet",
        "message": "hypothesis not met: ring is weakly Rickart*",
        "hypothesis": "ring is weakly Rickart*",
    }
    assert "witness" not in E.VerificationFailed("corpus-duplicate").payload()


def test_remote_failure_takes_the_workers_code_and_payload():
    info = json.loads(PAYLOADS["OrderCapExceeded"][1])
    exc = _RemoteFailure(4, info)
    assert exc.exit_code == 4
    assert exc.payload() is info
    assert str(exc) == info["message"]
