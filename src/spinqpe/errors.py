"""Exception types shared across the package.

The package raises no Python warnings. A condition worth noting but not
fatal is returned as a value, and a record carries it as a note in its
`warnings` list."""


class ConfigurationError(ValueError):
    """A structurally invalid request: duplicate qubits, control equal to
    target, overlapping decode windows, mismatched rotation axes, and
    similar misconfigurations."""


class SingularConfigurationError(ConfigurationError):
    """A configuration that is well formed but mathematically uninformative,
    e.g. an amplitude product so small that an inversion formula blows up."""


class InconsistentAmplitudesError(ConfigurationError):
    """Reconstructed quantities violate their algebraic constraints by more
    than sampling noise can explain."""


class UndefinedPhaseError(ConfigurationError):
    """The argument of a vanishing overlap, or an arctangent form evaluated
    outside its domain."""


class AngleParseError(ValueError):
    """Malformed angle expression; carries the offending position."""

    def __init__(self, text: str, position: int, message: str) -> None:
        self.text = text
        self.position = position
        super().__init__(f"{message} (position {position} in {text!r})")

