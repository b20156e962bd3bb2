"""Exception types shared across the library."""


class KemplabError(Exception):
    """Base class for all library errors."""


class AxiomViolation(KemplabError):
    """A group axiom failed; carries the axiom name and a witness tuple."""

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"group axiom '{axiom}' failed at {witness}")


class NotNormal(KemplabError):
    """Subgroup is not normal; carries a conjugating witness element."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"subgroup not normal, witness g={witness}")


class GroupMismatch(KemplabError):
    """Operands belong to different group models."""


class EmptyInput(KemplabError):
    """An operation required a nonempty set."""


class PreconditionError(KemplabError):
    """A documented precondition failed; carries the precondition name."""

    def __init__(self, name, detail=""):
        self.name = name
        super().__init__(f"precondition '{name}' failed" + (f": {detail}" if detail else ""))


class AmbiguousSign(KemplabError):
    """Norm of a product fell between the sum and difference windows."""


class NoCharacterWithinBound(KemplabError):
    """No (nontrivial) character matched the almost homomorphism within bound."""


class NoStructureFound(KemplabError):
    """Structured branch of an inverse theorem found no dilation.

    On valid inputs this falsifies the implementation, not the theorem,
    so it is surfaced loudly instead of being folded into Escape.
    """


class MinimumResolution(KemplabError):
    """The grid is too coarse for the requested construction."""


class StageError(KemplabError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage, detail=""):
        self.stage = stage
        super().__init__(f"pipeline stage '{stage}' failed" + (f": {detail}" if detail else ""))


class ParseError(KemplabError):
    """A harness file or flag failed to parse; carries the 1-based line
    number, None for a flag."""

    def __init__(self, lineno, detail):
        self.lineno = lineno
        super().__init__(detail if lineno is None else f"line {lineno}: {detail}")
