"""Model checking for depth-bounded epistemic logic and its
public-announcement extensions."""

from .model import (EQUIVALENCE, REFLEXIVE, Model, ModelError, PointedModel,
                    canonical_json, is_unambiguous, load_model, model_size,
                    save_model, validate)
from .semantics import (FragmentError, ModeError, SemanticsKind, check,
                        check_labeling, check_naive, holds_everywhere,
                        update, update_adpal, update_dpal, update_edpal)
from .syntax import (And, Announce, Atom, DepthAtLeast, DepthExact, Formula,
                     Fragment, Know, KnowInf, Not, ParseError, TOP, dual,
                     f_transform, iff, implies, in_fragment, modal_depth,
                     or_, parse, size, to_text, translate_edpal)

__version__ = "0.1.0"

__all__ = [
    "EQUIVALENCE", "REFLEXIVE", "Model", "ModelError", "PointedModel",
    "canonical_json", "is_unambiguous", "load_model", "model_size",
    "save_model", "validate",
    "FragmentError", "ModeError", "SemanticsKind", "check", "check_labeling",
    "check_naive", "holds_everywhere", "update", "update_adpal",
    "update_dpal", "update_edpal",
    "And", "Announce", "Atom", "DepthAtLeast", "DepthExact", "Formula",
    "Fragment", "Know", "KnowInf", "Not", "ParseError", "TOP", "dual",
    "f_transform", "iff", "implies", "in_fragment", "modal_depth", "or_",
    "parse", "size", "to_text", "translate_edpal",
]
