"""Exception taxonomy shared across the package.

CLI exit-code mapping: ConfigError / DataError / EvaluationError exit 2;
DimensionError / TrainingError / VerificationError, and any other
TadaError, exit 3.
"""


class TadaError(Exception):
    pass


class DimensionError(TadaError):
    """Shape mismatch in a tensor op; message names the op and offending axes."""


class ConfigError(TadaError):
    """Bad run configuration: unknown key, wrong type, inconsistent dims."""


class DataError(TadaError):
    """Malformed event data, schema violation, or impossible split."""


class TrainingError(TadaError):
    """Non-finite loss or gradient during optimization."""


class EvaluationError(TadaError):
    """Metric undefined for the given labels (e.g. single-class AUROC)."""


class VerificationError(TadaError):
    """Gradient verification could not run (e.g. non-deterministic function)."""
