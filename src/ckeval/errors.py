"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: UsageError -> 1, InputError (and
subclasses) -> 2, anything else -> 3.
"""


class CkevalError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(CkevalError):
    """Bad command-line arguments or an invalid selection."""


class InputError(CkevalError):
    """An input file or document is missing, unreadable, or malformed."""


class SchemaError(InputError):
    """A structured document violates its schema.

    ``path`` names the offending location, e.g. ``classes[2].methods[0].arity``.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class InheritanceCycleError(InputError):
    """The extends relation contains a cycle."""

    def __init__(self, cycle: list[str]):
        super().__init__("inheritance cycle: " + " -> ".join(cycle + cycle[:1]))
        self.cycle = cycle


class DuplicateClassError(InputError):
    def __init__(self, name: str, where: str = ""):
        super().__init__(f"duplicate class name: {name}" + (where and f", {where}"))
        self.name = name


class RuleError(InputError):
    """A rules document is malformed or internally inconsistent."""


class RuleOverlapError(RuleError):
    """Two rules of the same metric match a common value."""

    def __init__(self, metric: str, first: str, second: str, value: float):
        super().__init__(
            f"rules {first!r} and {second!r} for {metric} overlap at value {value:g}"
        )
        self.metric = metric
        self.first = first
        self.second = second
        self.value = value
