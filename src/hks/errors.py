"""Exception types shared across the simulator, one per failure contract."""


class HksError(Exception):
    """Base class for all simulator errors."""


class InvalidInputError(HksError, ValueError):
    """Non-finite values, bad temperatures, malformed weights."""


class ShapeError(HksError, ValueError):
    """Vector/matrix length mismatch."""


class FormatError(HksError, ValueError):
    """Unrecognized file magic or header."""


class ConsistencyError(HksError, ValueError):
    """Mutually inconsistent inputs, e.g. image/label count mismatch."""


class TruncatedFileError(HksError, IOError):
    """File ended before the declared payload."""


class InfeasiblePartitionError(HksError, ValueError):
    """Partition constraints cannot be satisfied by the dataset."""


class EmptyShardError(HksError, ValueError):
    """A client shard with no samples cannot be split."""


class EmptyDatasetError(HksError, ValueError):
    """Evaluation requires at least one sample."""


class DegenerateInputError(HksError, ValueError):
    """Input collapses under the requested transform (e.g. zero projection)."""


class MissingSampleError(HksError, KeyError):
    """Client or row not present in the cache or tree."""


class InsufficientDataError(HksError, ValueError):
    """Fewer records than requested clusters."""


class StaleHierarchyError(HksError, RuntimeError):
    """Cluster tree predates the sample or is absent when required."""


class ModeError(HksError, RuntimeError):
    """Operation needs a capability the current mode disabled (e.g. labels)."""


class UndefinedMetricError(HksError, ValueError):
    """Metric requested over an empty report list."""


class ConfigError(HksError, ValueError):
    """Invalid, unknown, or constraint-violating configuration key."""


class DivergenceError(HksError, ArithmeticError):
    """Local training produced non-finite parameters or logits."""
