"""Physical and cost models for the five storage technologies."""

from .storage import EssState, ess_step, saturate_block
from .flywheel import FessParams, fess_standby_loss, fess_lcoe
from .battery import (
    BatteryDegParams,
    battery_soh,
    stress_factors,
    rainflow_cycles,
    battery_damage,
    bess_cycle_cost,
)
from .hydrogen import (
    AweParams,
    PemfcParams,
    awe_cell_voltage,
    faradaic_efficiency,
    awe_hydrogen,
    pemfc_voltage,
    pemfc_discharge_efficiency,
    FARADAY,
    MOLAR_MASS_H2,
    LHV_H2,
    HHV_H2,
    LHV_VOLTAGE,
    HHV_VOLTAGE,
)
from .methanol import MeohParams, meoh_conversion, TurbineParams, turbine_efficiency
