"""toriclift: exact combinatorial decision procedures for toric varieties
presented as fans — quotient presentations, lifting of toric morphisms to
those presentations, and toric isomorphism testing.

All arithmetic is exact integer arithmetic; no floating point anywhere.
"""

__version__ = "0.1.0"

from .divisors import (
    DivisorSubgroup,
    EnoughDivisorsReport,
    SubgroupValidationError,
    cox_subgroup,
    divisor_subgroup,
    enough_divisors,
    kajiwara_subgroup,
    principal_basis,
)
from .fan import (
    DegenerateFanError,
    Fan,
    FanValidationError,
    TorusFactorSplit,
    split_torus_factor,
    validate_fan,
)
from .fanfile import (
    FanDocument,
    FanFileError,
    parse_fan_file,
    read_fan_document,
    validate_document,
)
from .isomorphism import (
    FanIso,
    IsoReport,
    fan_isomorphic,
    toric_isomorphism,
    verify_fan_iso,
)
from .lattice import (
    FgAbGroup,
    IntMatrix,
    ResourceLimitError,
    hermite_row_basis,
    hilbert_basis,
    smith_normal_form,
)
from .lifting import (
    LiftingReport,
    MorphismValidationError,
    ToricMorphism,
    classify_liftings,
    solve_geometric_pullback,
    validate_toric_morphism,
)
from .presentation import Presentation, presentation_from_subgroup

__all__ = [
    "__version__",
    "DegenerateFanError",
    "DivisorSubgroup",
    "EnoughDivisorsReport",
    "Fan",
    "FanDocument",
    "FanFileError",
    "FanIso",
    "FanValidationError",
    "FgAbGroup",
    "IntMatrix",
    "IsoReport",
    "LiftingReport",
    "MorphismValidationError",
    "Presentation",
    "ResourceLimitError",
    "SubgroupValidationError",
    "ToricMorphism",
    "TorusFactorSplit",
    "classify_liftings",
    "cox_subgroup",
    "divisor_subgroup",
    "enough_divisors",
    "fan_isomorphic",
    "hermite_row_basis",
    "hilbert_basis",
    "kajiwara_subgroup",
    "parse_fan_file",
    "presentation_from_subgroup",
    "principal_basis",
    "read_fan_document",
    "smith_normal_form",
    "solve_geometric_pullback",
    "split_torus_factor",
    "toric_isomorphism",
    "validate_document",
    "validate_fan",
    "validate_toric_morphism",
    "verify_fan_iso",
]
