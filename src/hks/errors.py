"""Exception types shared across the simulator, one per failure contract.

Each type's `exit_code` is the command line's exit code for it."""


class HksError(Exception):
    """Base class for all simulator errors."""

    exit_code = 20


class InvalidInputError(HksError, ValueError):
    """Non-finite or out-of-range values, such as features too large to
    hash; and states that only a direct library call creates: mismatched
    shapes, a cluster tree from another cache, a label read from a
    label-free cache, a metric over no rounds."""

    exit_code = 17


class FormatError(HksError, ValueError):
    """Unrecognized file magic or header."""

    exit_code = 3


class ConsistencyError(HksError, ValueError):
    """Mutually inconsistent inputs, e.g. image/label count mismatch."""

    exit_code = 4


class TruncatedFileError(HksError, IOError):
    """File ended before the declared payload."""

    exit_code = 5


class InfeasiblePartitionError(HksError, ValueError):
    """Partition constraints cannot be satisfied by the dataset."""

    exit_code = 6


class EmptyShardError(HksError, ValueError):
    """A client shard with no samples cannot be split."""

    exit_code = 7


class EmptyDatasetError(HksError, ValueError):
    """A dataset, file or test set with no samples where one is required."""

    exit_code = 8


class DegenerateInputError(HksError, ValueError):
    """Input collapses under the requested transform (e.g. zero projection)."""

    exit_code = 9


class InsufficientDataError(HksError, ValueError):
    """Fewer records than requested clusters."""

    exit_code = 11


class ConfigError(HksError, ValueError):
    """Invalid, unknown, or constraint-violating configuration key."""

    exit_code = 2


class DivergenceError(HksError, ArithmeticError):
    """Local training produced non-finite parameters or logits."""

    exit_code = 18
