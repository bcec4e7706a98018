"""Koopman-mode decomposition toolkit for gridded snapshot data."""

from .dmd import (DmdOptions, DmdResult, TruncatedSvd, column_normalize,
                  exact_dmd, fit_coefficients_multi, modified_options,
                  truncated_svd)
from .errors import ConfigError, DataFormatError, KoopmodeError, NumericalError
from .fileio import read_mode_matrix, write_mode_matrix, write_snapshots
from .grids import (ChannelSpec, GridLayout, SnapshotMatrix, SurfaceSlice,
                    VelocityField, VerticalSection, extract_slice,
                    scalar_layout, stack_observables, velocity_layout)
from .modes import (EllipseParams, ModeInfo, half_doubling_time, period,
                    polar_mode, tidal_ellipse, two_layer_wave_speed,
                    write_mode_table)
from .oracle import (GroundTruth, ModeSpec, OracleSpec, compare_spectra,
                     generate, tidal_preset, tidal_spec, TIDAL_PERIODS_HOURS)
from .ranking import (KdeDensity, LeaveOneOutResult, LooFailure, LooTrial,
                      build_mode_table, cluster_eigenvalues, component_rms,
                      half_life_cutoff, kde_eval, kde_grid, leave_one_out,
                      persistence_filter, rms_contribution, robustness_scores)
from .rom import (ErrorCurve, RomModel, RomSelection, build_rom, error_curve,
                  reconstruct_rom, select_modes)

__version__ = "0.1.0"
