"""Exception types raised by the hyperprop library.

Everything derives from :class:`HyperpropError`, so callers (notably the
CLI) can treat any library-level failure as a single category while tests
can still pin the precise condition.
"""


class HyperpropError(Exception):
    """Base class for all hyperprop errors."""


class EmptyGraphError(HyperpropError):
    """The incidence stream contained no (node, edge) pairs."""


class ShapeError(HyperpropError):
    """A signal or score array does not match the expected dimensions."""


class InvalidConfigError(HyperpropError):
    """A propagation or task configuration violates its constraints."""


class MissingClassError(HyperpropError):
    """A training set lacks examples of one of the required classes."""


class InvalidFoldsError(HyperpropError):
    """Fold count outside the valid range for the number of items."""


class UnknownClassError(HyperpropError):
    """The requested positive class does not occur in the labels."""


class DegenerateLabelsError(HyperpropError):
    """A metric is undefined because only one class is present."""


class ParseError(HyperpropError):
    """An input file is malformed; the message carries the line number."""


class MissingColumnError(ParseError):
    """A required column is absent from an input file header."""


class UnknownNodeError(HyperpropError):
    """A file references a node identifier outside the node universe."""


class MissingLabelError(HyperpropError):
    """A node in the universe has no label in the label file."""
