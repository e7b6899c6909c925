"""nhsf: exact structure-function spaces for nonholonomic flag manifolds."""

ENGINE_VERSION = "1.0.0"


class InvariantError(AssertionError):
    """An internal invariant failed: a bug in nhsf, never bad input."""


class InputError(ValueError):
    """Bad input: a Cartan type, node list, budget or bound nhsf cannot take."""
