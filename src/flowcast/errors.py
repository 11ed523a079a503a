"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Raised when tensor shapes are incompatible with an operation."""


class ConfigError(ValueError):
    """Raised for invalid or inconsistent model/run configuration."""


class InvalidGraphError(ValueError):
    """Raised when a static adjacency matrix cannot yield a valid Laplacian."""


class ParseError(ValueError):
    """Raised on malformed input files; message carries line/column context."""


class InsufficientDataError(ValueError):
    """Raised when a series segment is too short to produce a single window."""


class MissingGradientError(RuntimeError):
    """Raised when an optimizer step finds a parameter without a gradient."""

    def __init__(self, name: str):
        super().__init__(f"parameter '{name}' has no gradient; run backward() first")
        self.name = name


class TrainingDiverged(RuntimeError):
    """Raised when the training loss, or a parameter after an update, becomes
    NaN/Inf; ``parameter`` names the first non-finite parameter."""

    def __init__(self, epoch: int, loss: float, parameter: str | None = None):
        what = f"loss={loss}" if parameter is None else \
            f"parameter '{parameter}' is not finite after an update, loss={loss}"
        super().__init__(f"training diverged at epoch {epoch} ({what})")
        self.epoch = epoch
        self.loss = loss
        self.parameter = parameter


class ForecastNotFinite(TrainingDiverged):
    """Raised when a model's test forecasts, or their metrics, are not
    finite: a divergence no loss or parameter check caught, so ``epoch``,
    ``loss`` and ``parameter`` are None."""

    def __init__(self):
        RuntimeError.__init__(self, "the test forecasts or their metrics are not finite")
        self.epoch = self.loss = self.parameter = None
