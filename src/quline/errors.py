"""Exception hierarchy shared across the library."""

import numpy as np


class QulineError(Exception):
    """Base class for all library errors."""


class DomainError(QulineError):
    """An event left the open region on which a chart or model is defined."""


class ToleranceError(QulineError):
    """A numerical routine could not meet its requested tolerance."""

    def __init__(self, message, achieved=None, requested=None):
        super().__init__(message)
        self.achieved = achieved
        self.requested = requested


class HilbertSpaceMismatch(QulineError):
    """States live in different Hilbert spaces (event or 4-momentum labels differ)."""


class WavevectorMismatch(HilbertSpaceMismatch):
    """Interferometer arms recombine with unequal wavevectors."""


class AdaptationSingular(DomainError):
    """Photon direction antiparallel to the tetrad z-axis, outside the domain of
    the adaptation rotation."""


class DegenerateSetup(QulineError):
    """Measurement construction degenerates (vanishing rest-frame field, null axis, ...)."""


class OrthogonalStates(QulineError):
    """Relative phase of (numerically) orthogonal states is undefined."""


class ComplexVelocity(DomainError):
    """Energy conservation admits no real speed (particle cannot reach the height)."""


class ScenarioError(QulineError):
    """Scenario file failed to parse or validate."""

    def __init__(self, message, block=None):
        if block:
            message = f"[{block}] {message}"
        super().__init__(message)
        self.block = block


class ScenarioParseError(ScenarioError):
    """File unreadable or structurally malformed (YAML / schema level)."""


class ScenarioReferenceError(ScenarioError):
    """A schedule entry or block names an object that is not defined."""


def reject_where(bad, exc, message, **inputs):
    """Raise ``exc`` if ``bad`` holds anywhere, naming ``inputs`` (broadcast
    against ``bad``) at the first element where it does."""
    if np.any(bad):
        first = np.argmax(bad)
        at = ", ".join(f"{name}={float(np.broadcast_to(value, np.shape(bad)).flat[first])!r}"
                       for name, value in inputs.items())
        raise exc(f"{message} ({at})")
