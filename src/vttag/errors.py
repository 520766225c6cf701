"""Exception hierarchy shared across the package."""


class VttagError(Exception):
    """Base class for all domain errors raised by this package."""


class GenerationExhausted(VttagError):
    """Family generation ran out of candidate budget before accepting any code."""

    def __init__(self, examined: int):
        super().__init__(f"no admissible code found after examining {examined} candidates")
        self.examined = examined


class DegenerateProjection(VttagError):
    """Vehicle frame cannot be projected to a planar pose (forward axis near vertical)."""


class ScenarioError(VttagError):
    """Scenario configuration failed validation."""
