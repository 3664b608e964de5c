"""fibercert: exact fibered-cone reconstruction and curve-graph
translation-length upper-bound certificates from lifted train-track maps.

Import library names from their modules: ``geometry``, ``laurent``,
``trackmap``, ``lattice``, ``cones``, ``pipeline``, ``dataio``, ``errors``
and ``cli``, for example ``fibercert.pipeline.certify``.
"""

from .pipeline import TOOL_VERSION as __version__
