"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Array dimensions disagree with what an operation requires."""


class NumericError(ArithmeticError):
    """Non-finite values reached an operation boundary.

    `windows`, when set, is the range of batch rows of the inference
    chunk that raised.
    """

    def __init__(self, message: str = "", windows: range = None):
        super().__init__(message)
        self.windows = windows


class DataFormatError(ValueError):
    """Malformed input file (CSV, checkpoint)."""


class ConfigError(ValueError):
    """Invalid configuration value or key.

    `problems` holds one message per failed rule; the error reads them
    joined with "; ".
    """

    def __init__(self, *problems):
        super().__init__("; ".join(problems))
        self.problems = problems


class MissingLabelsError(ValueError):
    """Labeled data was required but labels are absent."""


def check_rules(rules) -> None:
    """Raise one ConfigError listing the message of every (holds, message)
    rule that does not hold.

    Each message starts with the field it is about, so a config reader
    can put its file and section in front of it.
    """
    failed = [message for holds, message in rules if not holds]
    if failed:
        raise ConfigError(*failed)
