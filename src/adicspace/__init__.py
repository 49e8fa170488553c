"""adicspace: ordered Bratteli diagrams, edge labelings, and dimension spaces."""

__version__ = "0.1.0"

from .bratteli import (FinitePath, OrderedBratteliDiagram, circulant_diagram,
                       cylinder_measure, enumerate_paths, morse_diagram,
                       odometer_diagram, predecessor, successor, validate_diagram)
from .dimspace import DimensionSpace, build_matrices, check_harmonic, horizon_norm, \
    partial_product, state_eval
from .intervals import RatInterval
from .labeling import cocycle, label_edges, path_bsum
from .laurent import LaurentMatrix, LaurentPoly, mat_mul
from .rotation import CFExpansion, GrowthRule, alpha_n, rank_one_gap, \
    rank_one_polys, rotation_diagram, summability_report
from .stacking import Tower, build_tower, compare_with_rotation, tower_map
from .walk import WalkState, exact_distribution, simulate, step_distribution, tv_distance
