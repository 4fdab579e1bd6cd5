"""Exact computations with smooth complete toric fans, curve classes and
toric quasimaps: basepoint degrees, epic embeddings into products of
projective spaces, the map-to-quasimap contraction and its surjectivity
witnesses."""

from .basepoint import INF, OrderVector, degree_at_point, length_at_point
from .classes import (CurveClass, DivisorClass, beta_a_sigma, factorizations,
                      is_ample, is_effective, is_fano, is_nef, length,
                      nef_hilbert_basis, wall_curve_classes)
from .contraction import (StableMapTree, contract, contraction_condition, graft,
                          prune, rational_tails, surjectivity_witness)
from .embedding import (EmbeddingSpec, apply_ibar, build_epic_embedding,
                        epic_check, fibre_enumeration, pullback_pic,
                        pushforward_curves, validate_embedding)
from .fan import Fan, dual_basis, locate_cones, primitive_collections, validate_fan
from .forms import BinaryForm, Place, ProjPoint
from .quasimap import (BasepointPlace, Quasimap, basepoints, degrees,
                       equal_quasimaps, regular_extension, stability,
                       validate_quasimap)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
