"""Labelling properties and the property classes of Figure 1."""

from repro.properties.base import (
    AndProperty,
    FunctionProperty,
    LabellingProperty,
    NotProperty,
    OrProperty,
    TrivialProperty,
    property_from_function,
)
from repro.properties.classes import (
    classify_property,
    is_invariant_under_scaling,
    ism_counterexample,
)
from repro.properties.cutoff import (
    CutoffProperty,
    admits_cutoff_at,
    admits_cutoff_up_to,
    counterexample_to_cutoff,
    cutoff_table_property,
    is_cutoff_one,
    is_trivial_up_to,
    support_property,
)
from repro.properties.presburger import (
    LinearSet,
    SemilinearProperty,
    SemilinearSet,
    majority_semilinear,
    modulo_semilinear,
    threshold_semilinear,
)
from repro.properties.threshold import (
    DivisibilityProperty,
    LinearThresholdProperty,
    ModuloProperty,
    PrimeSizeProperty,
    at_least_k_property,
    exists_label_property,
    majority_property,
    parity_property,
)

__all__ = [
    "AndProperty",
    "CutoffProperty",
    "DivisibilityProperty",
    "FunctionProperty",
    "LabellingProperty",
    "LinearSet",
    "LinearThresholdProperty",
    "ModuloProperty",
    "NotProperty",
    "OrProperty",
    "PrimeSizeProperty",
    "SemilinearProperty",
    "SemilinearSet",
    "TrivialProperty",
    "admits_cutoff_at",
    "admits_cutoff_up_to",
    "at_least_k_property",
    "classify_property",
    "counterexample_to_cutoff",
    "cutoff_table_property",
    "exists_label_property",
    "is_cutoff_one",
    "is_invariant_under_scaling",
    "is_trivial_up_to",
    "ism_counterexample",
    "majority_property",
    "majority_semilinear",
    "modulo_semilinear",
    "parity_property",
    "property_from_function",
    "support_property",
    "threshold_semilinear",
]
