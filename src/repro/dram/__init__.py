"""DDR3 DRAM model: banks, channels, controllers, access schedulers."""

from repro.dram.bank import Bank
from repro.dram.controller import MemoryController, DramSystem
from repro.dram.schedulers import (
    FrFcfsScheduler, CpuPriorityScheduler, SmsScheduler, DynPrioScheduler,
)

__all__ = [
    "Bank", "MemoryController", "DramSystem",
    "FrFcfsScheduler", "CpuPriorityScheduler", "SmsScheduler",
    "DynPrioScheduler",
]
