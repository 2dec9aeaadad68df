"""Oscillation dynamics on directed networks.

Laplacian construction and symmetrizable decomposition, wave-equation mode
solutions and numeric integration, oscillation-energy node centrality,
critical-perturbation detection, and the spectral-analysis pipeline for
low-frequency-mode dominance in activity time series.
"""

from .dynamics import (
    EnergyReport,
    InitialCondition,
    ModalSolution,
    Trajectory,
    betweenness_weights,
    epsilon_sweep,
    evaluate_states,
    integrate_numeric,
    modal_solve,
    node_energies,
    oscillation_centrality,
    total_energy_series,
)
from .graph import (
    LaplacianMatrix,
    OneWaySplit,
    SymmetrizableDecomposition,
    WeightedDigraph,
    canonical_split,
    check_symmetrizable,
    compose_epsilon,
    laplacian_of,
    left_null_vector,
    scaled_laplacian,
    undirected_graph,
)
from .ingest import (
    bin_counts,
    fuse_trends,
    graph_from_edge_csv,
    parse_model,
    slice_period,
)
from .signal import (
    Spectrum,
    TimeSeries,
    analyze_period,
    beat_demo,
    dft_spectrum,
    estimate_beat_frequency,
    low_freq_share,
    smooth_series,
    smooth_spectrum,
    square_series,
)
from .spectral import (
    EigenSystem,
    critical_epsilon,
    eigen_gap,
    eigendecompose,
    spectrum_is_real,
)

__version__ = "0.1.0"
