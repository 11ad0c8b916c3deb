"""Exception types shared across the package."""


class MecaError(Exception):
    """Base class for all package errors.

    ``lanes`` is set when the error was raised on a stack of matrices (one per
    training lane, stacked along axis 0): the indices of the failed lanes.  It
    is None for an error on a single matrix.
    """

    def __init__(self, *args, lanes: tuple[int, ...] | None = None):
        super().__init__(*args)
        self.lanes = lanes


class NonSymmetricError(MecaError):
    """Matrix asymmetry exceeds tolerance."""


class NoConvergenceError(MecaError):
    """The LAPACK eigensolver failed to converge."""


class DegenerateMatrixError(MecaError):
    """Matrix cannot be made positive definite."""


class DimMismatchError(MecaError):
    """Operands have incompatible dimensions."""


class BadShapeError(MecaError):
    """Array shape violates an operation's contract."""


class TooFewSamplesError(MecaError):
    """Batch has fewer samples than the operation requires."""


class BadParamsError(MecaError):
    """Generator parameters out of range."""


class ConfigInvalidError(MecaError):
    """Training configuration violates its invariants."""


class InsufficientRecordsError(MecaError):
    """Not enough successful sweep records for the requested statistic."""


class BadMagicError(MecaError):
    """IDX file magic number not recognized."""


class TruncatedFileError(MecaError):
    """IDX file shorter than its declared payload."""


class CountMismatchError(MecaError):
    """IDX image and label counts disagree."""


class EmptyDatasetError(MecaError):
    """Dataset file declares or holds no samples."""


class ParseError(MecaError):
    """Malformed CSV content."""
