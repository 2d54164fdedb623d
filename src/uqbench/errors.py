"""Error taxonomy shared across the package.

ConfigError: malformed inputs, presets, or parameters (CLI exit code 2).
CapError:    a computation stepped outside its truncation window or degree
             cap; raised eagerly, results are never silently truncated
             (CLI exit code 3).
ObstructionError: an order-by-order deformation solver found no solution
             inside its window; carries the failing order (CLI exit code 1).
Mathematical check failures are ordinary return values (False / reports),
not exceptions; the CLI maps them to exit code 1.
"""


class ConfigError(ValueError):
    """Malformed root datum, preset, parameter set, or request."""


class CapError(RuntimeError):
    """A degree cap or truncation window was exceeded."""


class ObstructionError(RuntimeError):
    """A cochain equation has no solution inside the window.

    `order` is the hbar-order at which the solve failed (None for a bare
    coboundary_solve call outside any series iteration).
    """

    def __init__(self, message: str, order: int | None = None):
        super().__init__(message)
        self.order = order
