"""Exception types raised across the package.

Everything derives from :class:`ChronoscopeError` so callers (notably the
CLI) can treat any data/validation problem uniformly.
"""


class ChronoscopeError(Exception):
    """Base class for all errors raised by this package."""


# --- URL / domain parsing ---

class MalformedUrl(ChronoscopeError):
    """URL has no usable hostname, or the hostname cannot be reduced to a
    third-level domain."""


class OutOfScopeTld(ChronoscopeError):
    """Hostname is not under the policy's country-code TLD."""


class UnknownSld(ChronoscopeError):
    """Second-level domain is not registered in the policy."""


class PolicyFileError(ChronoscopeError):
    """Suffix policy file is empty or malformed."""


# --- input lines ---

class MalformedLine(ChronoscopeError):
    """A line of a link log or of a side input (partition, ranking, node
    list, geo points, node pages) is not valid UTF-8, has the wrong fields,
    or has a field that does not parse or repeats an earlier line's."""


class SnapshotFormatError(ChronoscopeError):
    """Snapshot file has a missing/unsupported header or a bad record."""


# --- metrics ---

class EmptyFilter(ChronoscopeError):
    """Node filter for an induced-subgraph computation is empty."""


class ConvergenceFailure(ChronoscopeError):
    """An iterative solver hit its iteration cap before converging."""


class LengthMismatch(ChronoscopeError):
    """Paired vectors have different lengths."""


class DegenerateInput(ChronoscopeError):
    """A rank correlation input is constant or too short to rank."""


class InsufficientOverlap(ChronoscopeError):
    """Fewer than two nodes are present on both sides of a comparison."""


class EmptyGraph(ChronoscopeError):
    """Induced subgraph carries no edge weight."""


class TooFewMembers(ChronoscopeError):
    """A group needs at least two members for a density to be defined."""


# --- gravity ---

class MissingCoordinates(ChronoscopeError):
    """A node in the analysis set has no geographic coordinates."""


class InsufficientData(ChronoscopeError):
    """Fewer points than the moving-average window after filtering."""


class NonPositiveValue(ChronoscopeError):
    """A zero or negative value reached a logarithmic fit."""


class DegenerateDesign(ChronoscopeError):
    """All regressor values are equal; the slope is undefined."""


# --- synthetic data ---

class InvalidSpec(ChronoscopeError):
    """Generator parameters are missing or out of range."""

