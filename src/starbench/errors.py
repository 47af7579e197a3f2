"""Exception hierarchy for the workbench.

Each class states its CLI contract once: ``exit_code``, the exit status
when it escapes a verb (table in the cli module docstring; 5 unless the
class says otherwise), and ``payload_fields``, the attributes its JSON
object carries after ``type`` and ``message``, in that order (tuples as
lists, ``None`` left out).
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple


class StarbenchError(Exception):
    """Base class: the exit code and the JSON payload of every error."""

    exit_code = 5
    payload_fields: Tuple[str, ...] = ()

    def payload(self) -> dict:
        out = {"type": type(self).__name__, "message": str(self)}
        for name in self.payload_fields:
            value = getattr(self, name)
            if value is not None:
                out[name] = list(value) if isinstance(value, tuple) else value
        return out


class DescriptorError(StarbenchError):
    """A ring descriptor violates a constructor invariant (bad modulus, ...)."""

    exit_code = 2


class LiteralError(StarbenchError):
    """An element literal does not denote an element of the ring."""

    exit_code = 2


class ParseError(StarbenchError):
    """Syntax error in the ring-expression DSL.

    ``offset`` is the byte offset of the offending token in the input and
    ``expected`` lists the token descriptions that would have been accepted.
    """

    exit_code = 2
    payload_fields = ("offset", "expected", "found")

    def __init__(self, offset: int, expected: Sequence[str], found: str):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        want = " or ".join(self.expected) if self.expected else "nothing"
        super().__init__(
            "parse error at offset %d: expected %s, found %s"
            % (offset, want, found)
        )


# The most decimal digits of an integer that is read or printed: Python
# converts no longer decimal text to an int, nor an int to text, by default
# (sys.int_info.default_max_str_digits). A cap is read from decimal text,
# so every cap lies below ORDER_BOUND.
MAX_DIGITS = 4300
ORDER_BOUND = 10**MAX_DIGITS


class OrderCapExceeded(StarbenchError):
    """A size past its cap: the order of a ring (``measure``) by default.
    A size of ORDER_BOUND or more, which is too long to print, is shown,
    in the message and the payload alike, as the string ">=10^4300"."""

    exit_code = 4
    payload_fields = ("order", "cap")

    def __init__(self, order: int, cap: int, what: str = "ring", measure: str = "order"):
        self.order = order if order < ORDER_BOUND else ">=10^%d" % MAX_DIGITS
        self.cap = cap
        super().__init__(
            "%s %s %s exceeds the configured cap %d" % (what, measure, self.order, cap)
        )


class AxiomViolation(StarbenchError):
    """A structural *-ring axiom failed; ``witness`` are element literals."""

    exit_code = 5
    payload_fields = ("axiom", "witness")

    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness
        super().__init__("axiom %r fails at witness %r" % (axiom, witness))


class ActionAxiomViolation(AxiomViolation):
    """A scalar-action axiom failed during exhaustive validation."""

    exit_code = 4


class CharacteristicMismatch(StarbenchError):
    exit_code = 4

    def __init__(self, characteristic: int, modulus: int):
        self.characteristic = characteristic
        self.modulus = modulus
        super().__init__(
            "natural action needs char(R) | m; got characteristic %d, modulus %d"
            % (characteristic, modulus)
        )


class NoRightProjection(StarbenchError):
    exit_code = 3

    def __init__(self, element: Any):
        self.element = element
        super().__init__("no right projection exists for %r" % (element,))


class NoLeftProjection(StarbenchError):
    exit_code = 3

    def __init__(self, element: Any):
        self.element = element
        super().__init__("no left projection exists for %r" % (element,))


class NoCentralCover(StarbenchError):
    exit_code = 3

    def __init__(self, element: Any):
        self.element = element
        super().__init__("no central cover exists for %r" % (element,))


class NoGreatestElement(StarbenchError):
    exit_code = 3

    def __init__(self, candidates: Sequence[Any]):
        self.candidates = tuple(candidates)
        super().__init__(
            "candidate projection set has no greatest element: %r"
            % (list(candidates),)
        )


class FamilyCapExceeded(StarbenchError):
    exit_code = 4

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__("annihilator family exceeds the cap of %d sets" % cap)


class HypothesisNotMet(StarbenchError):
    """A precondition of a verification routine does not hold for the input."""

    exit_code = 4
    payload_fields = ("hypothesis", "witness")

    def __init__(self, hypothesis: str, witness: Any = None):
        self.hypothesis = hypothesis
        self.witness = witness
        msg = "hypothesis not met: %s" % hypothesis
        if witness is not None:
            msg += " (witness %r)" % (witness,)
        super().__init__(msg)


class InvolutionNotWellDefined(StarbenchError):
    """The kernel ideal is not star-closed, so the quotient has no involution."""

    exit_code = 4

    def __init__(self, witness: Any):
        self.witness = witness
        super().__init__(
            "kernel is not closed under the involution; witness %r" % (witness,)
        )


class FormulaMismatch(StarbenchError):
    """The closed-form projection formula disagreed with the brute-force scan."""

    exit_code = 5

    def __init__(self, element: Any, formula_result: Any, brute_result: Any):
        self.element = element
        self.formula_result = formula_result
        self.brute_result = brute_result
        super().__init__(
            "formula gives %r but exhaustive search gives %r at %r"
            % (formula_result, brute_result, element)
        )


class VerificationFailed(StarbenchError):
    """A theorem-level claim checked exhaustively came out false."""

    exit_code = 5
    payload_fields = ("claim", "witness")

    def __init__(self, claim: str, witness: Any = None):
        self.claim = claim
        self.witness = witness
        msg = "verification failed: %s" % claim
        if witness is not None:
            msg += " (witness %r)" % (witness,)
        super().__init__(msg)
