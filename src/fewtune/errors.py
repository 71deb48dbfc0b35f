"""Exception hierarchy shared across the package.

Exit-code mapping in the CLI relies on these base classes: ParameterError
maps to 2, like argparse's own usage errors, DataError to 3 and
ContractError to 4. The checks of HyperParams, EpisodeShape, BackboneSpec,
DomainSpec, check_meta_train and diffcore.check_sgd start each ParameterError
message with the name of the offending field or argument, which the CLI
swaps for the flag that sets it.
"""


class FewtuneError(Exception):
    """Base class for all package errors."""


class ShapeError(FewtuneError):
    """Operand shapes are incompatible with the requested operation."""


class ParameterError(FewtuneError):
    """A configuration value is outside its documented domain."""


class ContractError(FewtuneError):
    """A caller violated an operation's contract."""


class DegenerateBatchError(ContractError):
    """Batch statistics requested on a batch with fewer than two rows."""


class QueryIsolationError(ContractError):
    """The real query set was read while fine-tuning had it locked."""


class DivergenceError(ContractError):
    """A training loss or parameter stopped being finite."""


class DataError(FewtuneError):
    """A dataset could not be loaded or cannot serve the request."""


class CapacityError(DataError):
    """A dataset lacks the classes or images an episode shape requires."""


class DataLoadError(DataError):
    """A dataset directory or image file could not be decoded."""
