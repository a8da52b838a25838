"""Exception hierarchy shared by all mscca modules."""


class MsccaError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(MsccaError):
    """Inputs have inconsistent or non-rectangular shapes."""


class MissingValueError(MsccaError):
    """An empty cell was found where a category label is required."""


class AssignmentError(MsccaError):
    """A cluster index is outside the range allowed for its class."""


class SpecError(MsccaError):
    """A cluster-count specification or solver option is invalid."""


class SymmetryError(MsccaError):
    """A matrix expected to be symmetric is not."""


class EigenSolverError(MsccaError):
    """LAPACK failed on an eigenproblem (no convergence, say)."""


class MassError(MsccaError):
    """A mass (frequency weight) that must be positive is zero or negative."""


class EmptyClusterError(MsccaError):
    """An operation requiring non-empty clusters met an empty one."""


class ProjectorError(MsccaError):
    """A row-constraint projector could not be formed (rank-deficient source)."""


class DegenerateGeometryError(MsccaError):
    """A configuration is identically zero where a direction is needed."""


class ConfigError(MsccaError):
    """Bad flags, unreadable input, malformed design files."""


class ExportError(MsccaError):
    """Requested export cannot be produced (for example SVG with p != 2)."""
