"""nilforge: exact arithmetic in small free nilpotent groups and their finite
p-group quotients, with exhaustive isomorphism and orbit verification."""

__version__ = "1.1.0"

from .hall import (
    BasisError,
    BasisSymbol,
    FreeEndomorphism,
    FreeNilElement,
    GroupWord,
    IntMatrix,
    NilpotentBasis,
    abelianization_matrix,
    builtin_basis,
    collect,
    commutator,
    inverse,
    multiply,
    power,
)
from .series import TruncatedSeries, magnus_embed, word_series
from .quotients import (
    ConsistencyReport,
    FiniteQuotient,
    InfiniteIndexError,
    PcElement,
    QuotientError,
    RelatorSet,
    consistency_check,
    make_quotient,
    standard_quotient,
    standard_relators,
)
from .lab import (
    FrattiniMatrix,
    SeriesInvariants,
    is_isomorphic,
    isomorphism_det_scan,
    maximal_subgroups,
    series_invariants,
    subgroup_functors,
)
from .orbits import (
    HypothesisNotMet,
    OrbitCertificate,
    OrbitContradiction,
    PsiBatch,
    PsiParams,
    lifts_to_aut,
    membership_criterion,
    orbit_decision,
    orbit_witness,
    power_lemma_check,
    psi_congruence_suite,
    psi_transports,
    sample_psi_params,
    transports,
)
from .dh import (
    CharacteristicReport,
    DhContradiction,
    DhOrbitCertificate,
    MatrixLiftCandidate,
    StructureReport,
    characteristic_check,
    cubic_condition,
    dh_orbit_decision,
    find_valid_r,
    matrix_lift_search,
    scaling_isomorphism,
    verify_structure,
)
from .reports import CampaignConfig, ClaimEntry, UsageError, VerificationReport
from .cache import cache_load, cache_store, cached_quotient
