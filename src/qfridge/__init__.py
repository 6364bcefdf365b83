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
from .liouvillian import (
    DensityMatrix,
    FridgeConfig,
    Liouvillian,
    build_liouvillian,
    default_config,
    free_hamiltonian,
    interaction_hamiltonian,
    qubit_liouvillian,
    thermal_product,
    thermal_qubit,
)
from .reservoirs import (
    LindbladRates,
    ReservoirSpec,
    Role,
    Statistics,
    lindblad_rates,
    occupation,
    temperature_from_occupation,
)
from .steady_state import (
    SteadyStateResult,
    propagate,
    solve_direct,
    steady_state_by_propagation,
    trace_distance,
)
from .thermometry import (
    QubitReadout,
    TemperatureSentinel,
    effective_temperature,
    insulated_limit_temperature,
    read_qubit,
    reduced_qubit_state,
    temperature_as_float,
)

__version__ = "0.1.0"
