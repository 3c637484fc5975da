"""Exception types raised by the library, and `check_fields`, which checks
each field of a config dataclass against its declared type and bounds.

Every contract violation maps to one of these classes so callers (and the
command line layer) can translate failures into machine-readable reports.
"""

import copyreg
import dataclasses
import functools
import numbers
import operator
import sys
import types
import typing


class TabrepError(Exception):
    """Base class for all library errors."""

    code = "error"

    def __reduce__(self):
        # unpickled from the message and attributes, without calling a
        # subclass's __init__, whose arguments differ from `args`
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class TableIOError(TabrepError):
    code = "io-error"


class SchemaError(TabrepError):
    code = "schema-error"


class ParseError(TabrepError):
    code = "parse-error"


class InterleavedTableError(TabrepError):
    code = "interleaved-table"


class MissingDateIndexError(TabrepError):
    code = "missing-date-index"


class EmptyTableError(TabrepError):
    code = "empty-table"


class MixedKindFeatureError(TabrepError):
    code = "mixed-kind-feature"

    def __init__(self, feature: str, kinds: set[str]):
        self.feature = feature
        self.kinds = kinds
        super().__init__(f"feature {feature!r} mixes cell kinds {sorted(kinds)}")


class ShapeMismatchError(TabrepError):
    code = "shape-mismatch"

    def __init__(self, op: str, *shapes):
        self.shapes = shapes
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")


class NonScalarLossError(TabrepError):
    code = "non-scalar-loss"


class NotRecordingError(TabrepError):
    code = "not-recording"


class NonFiniteGradientError(TabrepError):
    code = "non-finite-gradient"

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"non-finite gradient on parameter {name!r}; step aborted")


class IdOutOfRangeError(TabrepError):
    code = "id-out-of-range"


class LengthMismatchError(TabrepError):
    code = "length-mismatch"


class AllMaskedError(TabrepError):
    code = "all-masked-input"


class SchemaMismatchError(TabrepError):
    code = "schema-mismatch"


class AllTermsDisabledError(TabrepError):
    code = "all-terms-disabled"


class NoLabeledCustomersError(TabrepError):
    code = "no-labeled-customers"


class UnknownTaskError(TabrepError):
    code = "unknown-task"


class PositionOutOfRangeError(TabrepError):
    code = "position-out-of-range"


class InvalidCellCoordinatesError(TabrepError):
    code = "invalid-cell-coordinates"


class SingleClassError(TabrepError):
    code = "single-class-input"


class InfeasibleConfigError(TabrepError):
    code = "infeasible-config"


class ConfigError(TabrepError):
    code = "config-error"


class WorkerExitError(TabrepError):
    code = "worker-exit"


# Bounds in a config field's metadata: `lo`/`hi` inclusive, `above`/`below`
# exclusive, `length` of a string. Fields with one rule share its dict.
NON_NEGATIVE, AT_LEAST_ONE, AT_LEAST_TWO, POSITIVE = {"lo": 0}, {"lo": 1}, {"lo": 2}, {"above": 0}
PROBABILITY, RATE, OPEN_UNIT = {"lo": 0, "hi": 1}, {"lo": 0, "below": 1}, {"above": 0, "below": 1}
_BOUNDS = {"lo": (">=", operator.ge), "hi": ("<=", operator.le), "above": (">", operator.gt),
           "below": ("<", operator.lt), "length": ("of length", lambda s, n: len(s) == n)}
_type_hints = functools.cache(typing.get_type_hints)     # read once per config class


def check_fields(config) -> None:
    """Raise `ConfigError` naming the first field of the dataclass `config`
    whose value does not fit its annotation and the bounds in its metadata:
    `int` is no `bool`, `float` takes an int, a number is finite, and the
    bounds hold for each number a container holds."""
    hints = _type_hints(type(config))
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not _fits(value, hints[f.name], f.metadata):
            rule = " and ".join(f"{_BOUNDS[key][0]} {bound}" for key, bound in f.metadata.items())
            raise ConfigError(f"{f.name} must be {f.type} {rule}".rstrip() + f", got {value!r}")


class Checked:
    """Base of the config dataclasses: building one runs `check_fields`."""
    __post_init__ = check_fields


def _fits(value, hint, bounds) -> bool:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(_fits(value, arg, bounds) for arg in args)
    if origin is dict:
        return isinstance(value, dict) and all(_fits(k, args[0], {}) and _fits(v, args[1], bounds)
                                               for k, v in value.items())
    if origin is tuple and args[1:] != (...,):
        return (isinstance(value, tuple) and len(value) == len(args)
                and all(_fits(v, arg, bounds) for v, arg in zip(value, args)))
    if origin is list or origin is tuple:
        return isinstance(value, origin) and all(_fits(v, args[0], bounds) for v in value)
    if hint is int or hint is float:
        kind, big = numbers.Integral if hint is int else numbers.Real, sys.float_info.max
        if isinstance(value, bool) or not (isinstance(value, kind) and -big <= value <= big):
            return False
    elif hint is str:
        if not isinstance(value, str):
            return False
    else:
        return isinstance(value, hint)      # None or a config dataclass
    return all(_BOUNDS[key][1](value, bound) for key, bound in bounds.items())
