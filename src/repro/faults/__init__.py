"""Deterministic fault injection for the execution layer.

See :mod:`repro.faults.plan` for the fault model. The package exists so
tests and the CI chaos job can drive every supervision path of
:class:`~repro.exec.executor.PersistentProcessExecutor` —
crash/hang/ring-fault recovery, restart budgets, the degradation to
the serial executor — reproducibly::

    from repro.faults import FaultPlan, fault_plan

    with fault_plan(FaultPlan().crash(0, 3).hang(1, 4, seconds=10.0)):
        ...  # streams recover, posteriors stay bit-identical
"""

from repro.faults.plan import (
    FAULTS,
    CoordinatorFaultState,
    Fault,
    FaultPlan,
    FaultSwitch,
    InjectedFault,
    RingCorruption,
    WorkerFaultState,
    clear_fault_plan,
    fault_plan,
    install_fault_plan,
    load_env_plan,
)

__all__ = [
    "FAULTS",
    "Fault",
    "FaultPlan",
    "FaultSwitch",
    "InjectedFault",
    "RingCorruption",
    "WorkerFaultState",
    "CoordinatorFaultState",
    "install_fault_plan",
    "clear_fault_plan",
    "fault_plan",
    "load_env_plan",
]
