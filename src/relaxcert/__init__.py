"""Exact construction and certification of small polyhedral relaxations
of lattice point sets, over real algebraic coefficient fields."""

from .construct import (RelaxationBundle, composed_simplex_relaxation,
                        cube_simplex_split, free_join_compose, pipeline_run,
                        relaxation_bound_table, simplex5_relaxation, simplex_points,
                        stretched_simplex_relaxation)
from .cover import (Chain, build_full_cover, chains_to_permutations, dominating_family,
                    enumerate_simplicial_lower_facets, enumerate_simplicial_upper_facets,
                    exact_min_cover, symmetric_chain_cover)
from .errors import (CertificationError, DegenerateSimplexError, PreconditionError,
                     ResourceLimitError, ValidationError)
from .field import FieldContext, FieldElement, make_context
from .lift import (AffineFunction, FacetSimplex, HeightFunction, affine_interpolant,
                   check_facets, check_upper_facet, facet_inequality_from_simplex,
                   facets_from_simplices, perturb_heights, staircase_height)
from .poly import Box, LinearSystem, PointSet
from .verify import (Certificate, box_check, certify_mixed,
                     recession_ray_rationality)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
