"""Three-qubit autonomous refrigerator: steady states, thermometry, sweeps."""

from .analysis import (
    CALIBRATED_COUPLING,
    CalibrationResult,
    Direction,
    InsulationResult,
    PlateauResult,
    SweepRecord,
    ThresholdMode,
    calibrate_coupling,
    cooling_threshold,
    find_plateau,
    insulation_limit,
    solve_for_readout,
    sweep_hot_temperature,
)
from .liouvillian import FridgeConfig, default_config
from .reservoirs import (
    ReservoirSpec,
    Role,
    Statistics,
    lindblad_rates,
    occupation,
    temperature_from_occupation,
)
from .thermometry import (
    QubitReadout,
    TemperatureSentinel,
    effective_temperature,
    temperature_as_float,
)

__version__ = "0.1.0"
