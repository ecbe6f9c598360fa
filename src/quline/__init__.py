"""quline: localized qubit states transported along worldlines in curved spacetimes.

Core pieces:

* :mod:`quline.geometry`       tetrad spacetime models and connections
* :mod:`quline.worldline`      trajectory integration (Lorentz force, null geodesics)
* :mod:`quline.spin_algebra`   SL(2,C) kernel shared by everything above it
* :mod:`quline.fermion`        spin transport (covariant and rest-frame forms)
* :mod:`quline.photon`         polarization transport and Jones extraction
* :mod:`quline.measurement`    covariant observables, projectors, probabilities
* :mod:`quline.interferometry` phase recipe and the neutron-interferometer formulas
* :mod:`quline.composite`      N-slot multi-qubit states and teleportation built on them
* :mod:`quline.scenario`       declarative batch scenarios (used by the CLI)
"""

__version__ = "0.1.0"

from .errors import QulineError

__all__ = ["QulineError"]
