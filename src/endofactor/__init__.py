"""Exact transfer factors for classical groups over local fields.

The package computes the explicit endoscopic transfer factor of a matched
pair of regular semisimple class parameters, in exact arithmetic (the
Delta_IV term is omitted throughout), and independently re-derives the
identity chain behind the odd twisted case for cross-examination.

Layers, bottom up: ``localfield`` (p-adic towers, Hilbert symbols, the
brute-force norm oracle), ``etale`` (quadratic etale algebras and
characteristic polynomials), ``forms`` (quadratic-form invariants),
``params`` (descriptors, endoscopic data, validation, matching),
``factor`` (the formulary engine), ``verify`` (the identity chain), and
``cli``/``document`` (the JSON batch interface).
"""

from .errors import EndofactorError
from .localfield import (
    BaseField,
    ExtensionTower,
    FieldElement,
    brute_force_norm_oracle,
    hilbert_symbol,
    is_square,
    make_extension,
    norm_test,
    square_class,
    trivial_tower,
    valuation,
)
from .etale import (
    EtaleElement,
    QuadraticEtale,
    UnitaryBaseData,
    charpoly_over,
    quadratic_field,
    split_algebra,
    tau,
)
from .forms import (
    FormInvariants,
    QuadraticSpace,
    invariants,
    isomorphic,
    symmetrize_twisted,
    trace_form_gram,
)
from .params import (
    EndoscopicDatum,
    GroupDescriptor,
    IndexEntry,
    RegularParam,
    TameCharacter,
    check_regularity,
    match_stable_classes,
    stable_class_of,
    validate_endoscopic,
    validate_group,
    validate_param,
)
from .factor import (
    CharPolyPack,
    FactorTrace,
    UnitCircleValue,
    build_charpoly_pack,
    compute_C,
    compute_delta,
    eval_character,
    special_case_indicator,
    swapped_delta,
)
from .verify import (
    LieParam,
    cayley,
    cayley_inv,
    check_Aij_is_norm,
    check_Bi_Ci_consistency,
    check_cD_square_class,
    delta_I_lie,
    eta_from_nu,
    li_identity_1,
    li_identity_2,
    make_lie_param,
)
from .document import InstanceDocument, dump_document, load_document

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
