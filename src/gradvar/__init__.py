"""Gradually varied fitting of scattered samples on graph domains.

Core idea: quantize real sample values into a chain of levels, extend
the resulting indices across the whole graph so adjacent vertices never
differ by more than one level, then optionally smooth the output by
harmonic relaxation or iterated derivative refitting.  Moving least
squares and Shepard interpolation are included as pointwise baselines
for comparison on identical inputs.
"""

from .baselines import (DomainFit, GaussianWeight, InversePowerWeight,
                        MlsConfig, MlsResult, SamplePoints, ShepardConfig,
                        evaluate_on_domain, mls_fit, shepard)
from .domain import (UNREACHABLE, DistanceField, Domain, GridSpec,
                     bfs_distances, build_graph, build_grid, load_mesh)
from .fields import ScalarField
from .fileio import (FieldCsv, ParsedSamples, atomic_write_bytes,
                     atomic_write_text, read_edge_list, read_field_csv,
                     read_samples_csv, sample_coords, snap_to_vertices,
                     write_level_csv, write_metrics_json, write_scalar_csv)
from .gvf import (EnvelopePair, FeasibilityCheck, GuidingSet, GvfFit,
                  InfeasibleError, LevelField, LevelTable, Witness,
                  check_feasibility, envelopes, fit_gvf, gvf_extend,
                  lipschitz_delta, quantize, to_scalar)
from .metrics import Metrics, compute_metrics
from .render import (read_pgm16, read_ppm, render_heatmap, render_heightmesh,
                     render_pgm16)
from .smoothing import (GradientField, RelaxReport, discrete_gradient,
                        harmonic_relax, smooth_reconstruct, total_variation)

__version__ = "0.1.0"

__all__ = [
    "UNREACHABLE", "Domain", "GridSpec", "DistanceField",
    "build_grid", "build_graph", "load_mesh", "bfs_distances",
    "ScalarField",
    "LevelTable", "GuidingSet", "LevelField", "EnvelopePair", "Witness",
    "FeasibilityCheck", "InfeasibleError", "GvfFit",
    "lipschitz_delta", "quantize", "check_feasibility", "envelopes",
    "gvf_extend", "to_scalar", "fit_gvf",
    "RelaxReport", "GradientField",
    "harmonic_relax", "discrete_gradient", "smooth_reconstruct",
    "total_variation",
    "SamplePoints", "GaussianWeight", "InversePowerWeight", "MlsConfig",
    "ShepardConfig", "MlsResult", "DomainFit",
    "mls_fit", "shepard", "evaluate_on_domain",
    "Metrics", "compute_metrics",
    "render_heatmap", "render_pgm16", "render_heightmesh", "read_ppm",
    "read_pgm16",
    "ParsedSamples", "FieldCsv",
    "read_samples_csv", "snap_to_vertices", "sample_coords",
    "write_level_csv", "write_scalar_csv", "read_field_csv",
    "write_metrics_json", "read_edge_list",
    "atomic_write_bytes", "atomic_write_text",
    "__version__",
]
