"""State models (Soteria Sec. 4.2): (Q, Sigma, delta) per app or environment.

States are tuples of device-attribute values (numeric attributes appear as
abstract regions); transitions are labelled with the triggering event and
any residual predicate the checker could not decide statically.
"""

from repro.model.statemodel import State, StateAttribute, StateModel, Transition
from repro.model.extractor import ModelExtractor, extract_model
from repro.model.union import (
    build_union_model,
    build_union_skeleton,
    estimate_union_states,
)
from repro.model.kripke import KripkeStructure, build_kripke
from repro.model.encoder import SymbolicUnionModel, encode_union

__all__ = [
    "State",
    "StateAttribute",
    "StateModel",
    "Transition",
    "ModelExtractor",
    "extract_model",
    "build_union_model",
    "build_union_skeleton",
    "estimate_union_states",
    "build_kripke",
    "KripkeStructure",
    "SymbolicUnionModel",
    "encode_union",
]
