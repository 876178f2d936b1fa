"""Exception types, and the base of the package's value classes.

Value lives here because this is the lowest module a solve loads: core and
the solver modules build their value classes on it, and ValidationIssue,
which InvalidInstance carries, is one of them.
"""

from __future__ import annotations


class Fresh:
    """A field default made anew for each instance by calling make()."""

    def __init__(self, make):
        self.make = make


class Value:
    """Base of the value classes: the fields are the class's annotations.

    A subclass lists its fields as annotations, in order, each with an
    optional default; a Fresh default is made anew for each instance.  The
    base reads them once per class and generates no code.  An instance
    takes its fields by position or by keyword, equals only an instance of
    the same class with equal fields, and has the repr Name(field=value, ...).
    A frozen class, the default, hashes by its fields and refuses assignment
    and deletion; a class declared with frozen=False is mutable and
    unhashable.  The fields live in the instance __dict__, so pickle and copy
    work as for any plain object.
    """

    _fields: tuple[str, ...] = ()
    _names: frozenset[str] = frozenset()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields += own
        cls._names = frozenset(cls._fields)
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        # The common call names every field by keyword; its dict becomes the
        # instance's own, which is what makes construction cheap.
        if args or kwargs.keys() != self._names:
            kwargs = self._bind(args, kwargs)
        _set_dict(self, kwargs)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> dict:
        """The field values of a call, with defaults, or the TypeError of a bad call."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} positional arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        if not kwargs.keys() <= cls._names.difference(values):
            name = next(name for name in kwargs if name in values or name not in cls._names)
            problem = "multiple values for argument" if name in values else "an unexpected keyword argument"
            raise TypeError(f"{cls.__name__}() got {problem} {name!r}")
        values.update(kwargs)
        for name in fields:
            if name not in values:
                if name not in cls._defaults:
                    raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
                default = cls._defaults[name]
                values[name] = default.make() if isinstance(default, Fresh) else default
        return values

    def _values(self) -> tuple:
        values = self.__dict__
        return tuple([values[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


# Sets an instance's __dict__ without passing through the frozen __setattr__.
_set_dict = Value.__dict__["__dict__"].__set__


class ValidationIssue(Value):
    """One structural defect found while validating an instance.

    code is one of "duplicate-id", "dangling-reference", "negative-quantity".
    """

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class GroupPBError(Exception):
    """Base class for all package-specific errors."""


class InvalidInstance(GroupPBError):
    """Raised when instance validation finds structural defects."""

    def __init__(self, issues: list[ValidationIssue]):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in issues))


class ParseError(GroupPBError):
    """Instance text is not well-formed JSON."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        super().__init__(message)


class SchemaError(GroupPBError):
    """Instance JSON is well-formed but does not match the expected shape."""


class UnknownProject(GroupPBError):
    """A bundle references a project id absent from the instance."""


class NotHierarchical(GroupPBError):
    """An operation requiring a nested-or-disjoint group family got one with conflicts."""


class InvalidDeletion(GroupPBError):
    """A deletion set does not make the remaining instance hierarchical."""


class InvalidGraph(GroupPBError):
    """A graph input has self-loops, duplicate edges, or bad vertex ids."""


class OddTotal(GroupPBError):
    """Number-partition input whose total is odd admits no perfect split."""


class TooLarge(GroupPBError):
    """Exhaustive enumeration refused because the input exceeds its size cap."""


class TableTooLarge(GroupPBError):
    """A dynamic-programming table would exceed the configured cell cap."""


class SearchBudgetExceeded(GroupPBError):
    """Estimated enumeration work exceeds the configured node cap."""


class UtilityFloorsUnsupported(GroupPBError):
    """Raised by optimized solvers when the instance carries per-group utility floors."""
