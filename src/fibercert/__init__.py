"""fibercert: exact fibered-cone reconstruction and curve-graph
translation-length upper-bound certificates from lifted train-track maps."""

from .cones import (
    DualConeModel,
    EpsilonBound,
    FiberedConeModel,
    epsilon_of_subcone,
    estimate_dual_cone,
    fibered_cone_from_dual,
    subcone_models,
)
from .errors import (
    BudgetError,
    CapabilityError,
    PowerCapError,
    RankMismatchError,
    SubconeError,
    ValidationError,
)
from .lattice import (
    BaseHull,
    DeepPoint,
    FiberedClass,
    Obstacles,
    PerpLattice,
    deep_point,
    perp_basis,
    systole,
)
from .laurent import (
    CharPoly,
    DegreeData,
    LaurentMatrix,
    LaurentPoly,
    char_poly,
    degree_extrema,
    mat_pow,
)
from .pipeline import (
    BoundCertificate,
    GammaWord,
    VerifyResult,
    certify,
    decompose,
    enumerate_words,
    normalized_bound,
    sweep,
    verify_certificate,
)
from .trackmap import (
    Edge,
    LiftedGraphMap,
    SupportPolytope,
    build_transition_matrix,
    omega_of_word,
    oracle_iterate,
    support_of_power,
)

__version__ = "0.1.0"
