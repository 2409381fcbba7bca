"""Hierarchical multi-timescale MPC dispatch for hybrid energy storage."""

from .config import EngineConfig, load_config, validate
from .engine import prepare_scenario, run, write_report
from .metrics import SimulationReport
from .scenario import ScenarioConfig, synthesize
from .timeseries import TimeSeries

__version__ = "0.1.0"
