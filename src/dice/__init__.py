"""Desk-scale deterministic simulator of the DICE roaming-settlement protocol."""

from .channel import BalanceProof, ChannelManager, PaymentChannel
from .harness import (
    MetricsReport,
    RequirementsVerdict,
    ScenarioConfig,
    check_requirements,
    run_scenario,
    verify_ledger,
)
from .ledger import Block, Ledger, QueryFilter, Transaction, ValidityReport
from .protocol import DiceEngine, RoamerSession
from .settlement import (
    ChargingModel,
    Fixed,
    Parity,
    PerUnit,
    RedemptionClaim,
    make_claim,
    price,
    redeem,
    validate_provenance,
)
from .tokenbank import TokenBank, TokenLot, Wallet
from .workload import (
    CalibrationStats,
    SessionEventTrace,
    WorkloadConfig,
    calibration_report,
    generate,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceProof", "ChannelManager", "PaymentChannel",
    "MetricsReport", "RequirementsVerdict",
    "ScenarioConfig", "check_requirements", "run_scenario", "verify_ledger",
    "Block", "Ledger", "QueryFilter", "Transaction", "ValidityReport",
    "DiceEngine", "RoamerSession",
    "ChargingModel", "Fixed", "Parity", "PerUnit", "RedemptionClaim",
    "make_claim", "price", "redeem", "validate_provenance",
    "TokenBank", "TokenLot", "Wallet",
    "CalibrationStats", "SessionEventTrace", "WorkloadConfig",
    "calibration_report", "generate",
    "__version__",
]
