"""Vibration spectra and nonlinear response of cantilever-array resonators."""

from .model import (AlternatingProfile, BoundaryCondition, Config, ConfigError,
                    DeviceGeometry, DimensionlessParams, DiscreteProfile,
                    TabulatedProfile, UniformProfile, dimensionless,
                    load_config, preset_device)
from .beam import BeamMode, beam_modes, beam_roots
from .kernel import (CantileverShape, PoleProximityError, band_edge_gammas,
                     shear_kernel)

__version__ = "0.1.0"
