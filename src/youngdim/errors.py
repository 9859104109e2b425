"""Exception types shared across the package.

A class that also derives from `InputError` reports bad input: the
command line prints its message on one `error:` line and exits 2, as it
does for an `OSError`.  Any other exception is an internal failure and
exits 3.  Each class keeps its builtin base (`ValueError` or
`RuntimeError`), which library callers catch.
"""


class InputError(Exception):
    """Marker base: the input was bad, not the program."""


class UsageError(InputError, ValueError):
    """Command-line arguments that conflict."""


class PartitionError(InputError, ValueError):
    """Invalid partition data."""


class NonMonotoneRows(PartitionError):
    """Row lengths increase somewhere in the sequence."""


class NegativeRowLength(PartitionError):
    """A row length is negative."""


class PartitionParseError(PartitionError):
    """Partition text that cannot be parsed."""


class BoxOutsideDiagram(ValueError):
    """A queried box is not a cell of the diagram."""


class NotAddable(ValueError):
    """The box cannot be appended while keeping a valid diagram."""


class NotRemovable(ValueError):
    """The box is not a removable corner of the diagram."""


class EmptyDiagramError(InputError, ValueError):
    """The operation is undefined for the empty diagram."""


class SizeBoundExceeded(InputError, ValueError):
    """The diagram is larger than the configured bound for this routine."""


class InvariantViolation(RuntimeError):
    """Internal failure: an invariant the algorithms guarantee did not hold."""


class NonDivisibleHookProduct(RuntimeError):
    """Internal failure: n! was not divisible by the hook product."""


class InvalidK(InputError, ValueError):
    """Shake step count out of range."""


class InvalidM(InputError, ValueError):
    """Candidate pool or branch count out of range."""


class InvalidPath(InputError, ValueError):
    """A growth path contains a step that is not a valid box addition."""


class InvalidDepth(InputError, ValueError):
    """Search depth below 1."""


class NoCoreChild(InputError, RuntimeError):
    """No addable box keeps the diagram inside the core subgraph."""


class AsymmetricBoxesNotIsolated(ValueError):
    """Some row or column carries more than one asymmetric box."""


class InvalidResultShape(RuntimeError):
    """Internal failure: a transform produced a non-diagram box set."""


class BalanceNotApplicable(InputError, ValueError):
    """The chosen line has no column excess to move."""


class ShapeBlocked(InputError, RuntimeError):
    """A transform step would pass through an invalid intermediate shape."""

    def __init__(self, message, diagram=None):
        super().__init__(message)
        self.diagram = diagram


class DegenerateOverlap(ValueError):
    """The two added boxes are mirror images, so the pair is degenerate."""


class EmptySearchSpace(InputError, RuntimeError):
    """The search frontier emptied before reaching the target level."""


class CoreMembershipError(InputError, ValueError):
    """Neither the diagram nor its conjugate lies in the core subgraph."""


class NotAGrowthSequence(InputError, ValueError):
    """Sequence elements are not consecutive sizes starting at 1."""


class RecordSchemaError(InputError, ValueError):
    """A record line failed schema validation."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class KeyMismatch(InputError, ValueError):
    """Two record sets do not cover the same sizes."""
