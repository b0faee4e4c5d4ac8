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

The names of ``__all__`` resolve on first use: ``import endofactor`` loads
no submodule, and reading ``endofactor.compute_delta`` (or running
``from endofactor import *``) imports the submodules that hold the names
asked for.
"""

import sys

# Each public name, under the submodule that defines it.
_EXPORTS = {
    "errors": "EndofactorError",
    "localfield": "BaseField ExtensionTower FieldElement brute_force_norm_oracle "
                  "hilbert_symbol is_square make_extension norm_test square_class "
                  "trivial_tower valuation",
    "etale": "EtaleElement QuadraticEtale UnitaryBaseData charpoly_over "
             "quadratic_field split_algebra tau",
    "forms": "FormInvariants QuadraticSpace invariants isomorphic "
             "symmetrize_twisted trace_form_gram",
    "params": "EndoscopicDatum GroupDescriptor IndexEntry RegularParam TameCharacter "
              "check_regularity match_stable_classes "
              "validate_endoscopic validate_group validate_param",
    "factor": "CharPolyPack FactorTrace UnitCircleValue build_charpoly_pack compute_C "
              "compute_delta eval_character special_case_indicator swapped_delta",
    "verify": "LieParam cayley cayley_inv check_Aij_is_norm check_Bi_Ci_consistency "
              "check_cD_square_class eta_from_nu li_identity_1 "
              "li_identity_2 make_lie_param",
    "document": "InstanceDocument dump_document load_document",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    """A public name not read before: import its submodule and return it."""
    home = name if name in _EXPORTS else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own machinery, so that -X importtime reports it
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    return module if home == name else getattr(module, name)
