"""Exception types shared across the engine."""


class HessError(Exception):
    """Base class for all engine errors."""


class EnvelopeViolation(HessError):
    """A storage step would leave the energy envelope."""


class ExclusivityViolation(HessError):
    """Charge and discharge power requested simultaneously."""


class LoadOutOfRange(HessError):
    """Device load ratio outside its admissible operating range."""


class AlignmentError(HessError):
    """Series lengths or time spans do not line up."""


class ParseError(HessError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GapError(HessError):
    """Non-uniform or missing timestamps in an ingested series."""

    def __init__(self, message: str, epoch_s: float | None = None):
        self.epoch_s = epoch_s
        if epoch_s is not None:
            message = f"at epoch {epoch_s:.0f}: {message}"
        super().__init__(message)


class ConfigError(HessError):
    """Configuration rejected before the run started."""


class QpInfeasible(HessError):
    """A solve the run cannot absorb in-band, such as a terminal-row solve
    that ran out of iterations; the CLI exits with code 4."""


class LedgerClosureError(HessError):
    """Power accounting failed to close; the run must abort."""
