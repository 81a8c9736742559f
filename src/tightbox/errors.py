"""Exception types shared across the package."""


class TightboxError(Exception):
    """Base class for all package errors."""


class MalformedFileError(TightboxError):
    """A map or mask file could not be decoded.

    ``code`` identifies the failure class: "bad_header", "truncated",
    "dimension_overflow" or "out_of_range".
    """

    def __init__(self, path, code, message):
        super().__init__(f"{path}: {message}")
        self.path = str(path)
        self.code = code


class ParseError(TightboxError):
    """A CSV file contained invalid rows. Nothing is returned partially.

    ``failures`` is a list of (line_number, message) pairs covering every
    bad row, not just the first.
    """

    def __init__(self, path, failures):
        lines = "; ".join(f"line {n}: {msg}" for n, msg in failures)
        super().__init__(f"{path}: {lines}")
        self.path = str(path)
        self.failures = failures


class BundleValidationError(TightboxError):
    """A scene bundle failed validation.

    ``failures`` lists every problem found, not just the first.
    """

    def __init__(self, path, failures):
        super().__init__(f"{path}: " + "; ".join(failures))
        self.path = str(path)
        self.failures = failures
