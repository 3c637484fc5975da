"""Exception types raised by the library.

Every contract violation maps to one of these classes so callers (and the
command line layer) can translate failures into machine-readable reports.
"""


class TabrepError(Exception):
    """Base class for all library errors."""

    code = "error"


class TableIOError(TabrepError):
    code = "io-error"


class SchemaError(TabrepError):
    code = "schema-error"


class ParseError(TabrepError):
    code = "parse-error"


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
