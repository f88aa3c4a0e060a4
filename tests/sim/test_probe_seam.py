"""Every probe reaches the request path through one seam.

``HeterogeneousSystem.tap_send`` is the only place an agent's
``llc_send`` changes: fault injectors, the invariant monitor and the
trace recorder all tap it, each outside the ones bound before it, so
attaching one never switches another off.
"""

from repro.config import default_config
from repro.faults import FaultPlan, RequestFault
from repro.guard import InvariantMonitor
from repro.mixes import mix
from repro.sim.metrics import collect
from repro.sim.system import HeterogeneousSystem
from repro.tracing import TraceRecorder


def _run(record: bool, faulted: bool = True):
    m = mix("W8")
    cfg = default_config(scale="smoke", n_cpus=m.n_cpus, seed=1)
    monitor = InvariantMonitor()
    plan = FaultPlan(RequestFault("delay", side="cpu", nth=50,
                                  delay_ticks=5000)) if faulted else None
    system = HeterogeneousSystem(cfg, m, monitor=monitor, faults=plan)
    rec = TraceRecorder.attach(system) if record else None
    system.run()
    return collect(system), monitor.report(), plan, rec


def test_recorder_composes_with_monitor_and_faults():
    result, report, plan, _ = _run(record=False)
    rec_result, rec_report, rec_plan, rec = _run(record=True)
    assert rec_result == result
    assert rec_report == report
    assert plan.fired() == rec_plan.fired() == 1
    assert report.issued > 0
    # outermost tap: it sees every request the agents sent, as the
    # monitor (inside it, outside the delay) counts them
    assert len(rec.trace()) == report.issued + report.issued_writes
    clean, _, _, _ = _run(record=False, faulted=False)
    assert rec_result != clean


def test_taps_nest_and_repoint_every_agent():
    m = mix("W8")
    cfg = default_config(scale="smoke", n_cpus=m.n_cpus, seed=1)
    system = HeterogeneousSystem(cfg, m)
    seen = []

    def tap(send, side):
        def tapped(req, _send=send):
            seen.append(side)
            _send(req)
        return tapped

    system.tap_send(tap)
    cpu_send = system.cores[0].llc_send
    gpu_send = system.gpu.llc_send
    assert cpu_send is not gpu_send
    assert all(core.llc_send is cpu_send for core in system.cores)
    system.tap_send(lambda send, side: send)      # a no-op tap
    assert system.cores[0].llc_send is cpu_send
    assert system.gpu.llc_send is gpu_send
    system.run()
    assert {"cpu", "gpu"} <= set(seen)
