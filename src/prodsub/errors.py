"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all engine-level failures."""


class IrregularPoint(EngineError):
    """The induced metric is not finite or fails the regularity (det g) test."""


class NullFrame(EngineError):
    """Gram-Schmidt hit a (near-)null vector while building a frame."""


class StencilError(EngineError):
    """``jets.fd_gradient`` met a non-finite field value."""


class InvalidFrame(EngineError):
    """A codimension-2 normal frame was requested where it does not exist
    (wrong codimension, or H = 0)."""


class ChartError(EngineError):
    """Chart construction failed a parameter constraint or a membership,
    minimality or parallelism oracle."""


class SceneError(EngineError):
    """A scene file failed schema validation or refers to unknown names."""


class RowFailure(Exception):
    """args: the first failing row of a batch kernel and the error that row
    raises; a caller reports the row or raises the error itself."""
