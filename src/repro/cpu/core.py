"""Trace-driven interval model of one out-of-order CPU core.

The core consumes a synthetic memory-operation trace.  Non-memory work
retires at ``ipc`` (min of the profile's IPC and the issue width);
private L1/L2 caches are functional with small hit penalties; LLC-bound
loads overlap up to the profile's MLP limit (the ROB/dependence proxy),
and *serial* (pointer-chase) loads block issue entirely.  Stores drain
through a finite write buffer.

This is the standard interval-style approximation: it reproduces the two
first-order couplings the paper's mechanism exploits — CPU performance
falls when (a) its LLC misses rise (capacity stolen) and (b) its DRAM
latency rises (bandwidth stolen).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import hotpath
from repro.config import CpuCoreConfig
from repro.cpu.branch import BranchModel
from repro.cpu.trace import TraceGenerator
from repro.mem.cache import Cache
from repro.mem.request import MemRequest
from repro.sim.engine import Simulator
from repro.sim.stats import StatSet

#: memops processed per activation before yielding to the event loop
CHUNK = 256
#: max ticks the core may run ahead of global time before yielding
QUANTUM = 1024


class CpuCore:
    def __init__(self, sim: Simulator, cfg: CpuCoreConfig, core_id: int,
                 trace: TraceGenerator,
                 llc_send: Callable[[MemRequest], None],
                 target_instructions: int,
                 on_target_reached: Optional[Callable[[int], None]] = None,
                 warmup_instructions: int = 0):
        self.sim = sim
        self.cfg = cfg
        self.core_id = core_id
        self.name = f"cpu{core_id}"
        self.trace = trace
        self.llc_send = llc_send
        self.warmup_instructions = warmup_instructions
        self.target_instructions = warmup_instructions + target_instructions
        self.measured_instructions = target_instructions
        self.warm_time: Optional[int] = None
        self.on_target_reached = on_target_reached

        self.l1i = Cache(cfg.l1i)
        self.l1d = Cache(cfg.l1d)
        self.l2 = Cache(cfg.l2)
        self.ipc = min(cfg.issue_width, trace.profile.ipc_base)
        self.mlp = min(cfg.mlp_limit, trace.profile.mlp)
        self.branches = BranchModel(trace.profile.spec_id)

        self._time = 0.0              # local core time in ticks
        self._batch = None
        self._idx = 0
        self._ifetch = None
        self._ifetch_idx = 0
        self._fetch_debt = 0
        #: batched trace walk (see :mod:`repro.hotpath`): the NumPy
        #: batch arrays are converted to plain Python lists once per
        #: refill, so the per-memop loop indexes native ints/bools
        #: instead of materialising a NumPy scalar per field per memop.
        #: ``tolist()`` is exact for int64/bool, so both walks consume
        #: identical values (``tests/sim/test_hotpath_golden.py``).
        self._batched = hotpath.use_batching()
        self._gaps: Optional[list] = None
        self._addrs: Optional[list] = None
        self._writes: Optional[list] = None
        self._serial: Optional[list] = None
        self.outstanding = 0          # in-flight LLC loads
        self.wb_used = 0              # in-flight LLC stores
        #: line addresses with a fill in flight (L1-MSHR merge: repeat
        #: accesses to these lines must not issue duplicate LLC requests)
        self._inflight: set[int] = set()
        self._stall: Optional[str] = None
        self._running = False
        self.instructions = 0
        self.done = False
        self.finish_time: Optional[int] = None
        #: span tracer (None unless the system wires one) — samples
        #: this core's LLC-bound requests at the issue boundary
        self.tracer = None

        # next-line stream prefetcher state (L2 prefetcher): detects
        # ascending line streaks among L2 misses and runs ahead of them,
        # converting stream demand misses into L2 hits — streaming apps
        # are bandwidth-bound, not latency-bound, like real hardware
        self._pf_last_line = -2
        self._pf_streak = 0
        self._pf_depth = 4
        self._pf_outstanding = 0
        self._pf_max_outstanding = 8

        self.stats = StatSet(self.name)
        s = self.stats
        self._c_inst = s.counter("instructions")
        self._c_llc_loads = s.counter("llc_loads")
        self._c_llc_stores = s.counter("llc_stores")
        self._c_llc_ifetch = s.counter("llc_ifetch")
        self._c_prefetches = s.counter("llc_prefetches")
        self._stalls = {k: s.counter(f"stall_{k}")
                        for k in ("mlp", "serial", "wb", "ifetch")}

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self._time = float(self.sim.now)
        self._schedule()

    def _schedule(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.at(max(int(self._time), self.sim.now), self._activate)

    def _activate(self) -> None:
        self._running = False
        if self._stall is not None:
            return
        self._time = max(self._time, float(self.sim.now))
        self._run_chunk()

    # -- the interval loop ----------------------------------------------------

    def _refill(self) -> None:
        b = self._batch = self.trace.next_batch(4096)
        self._idx = 0
        if self._batched:
            self._gaps = b.gaps.tolist()
            self._addrs = b.addrs.tolist()
            self._writes = b.writes.tolist()
            self._serial = b.serial.tolist()
        self._ifetch = self.trace.ifetch_addresses(4096)
        if self._batched:
            self._ifetch = self._ifetch.tolist()
        self._ifetch_idx = 0

    def _run_chunk(self) -> None:
        if self._batched:
            return self._run_chunk_batched()
        sim_now = self.sim.now
        deadline = sim_now + QUANTUM
        for _ in range(CHUNK):
            if self._stall is not None:
                return
            if self._batch is None or self._idx >= self._batch.n:
                self._refill()
            b = self._batch
            i = self._idx
            self._idx += 1
            gap = int(b.gaps[i])
            self._retire(gap + 1)
            self._time += (gap + 1) / self.ipc
            self._time += self.branches.charge(gap + 1)
            self._fetch_debt += gap + 1

            if self._fetch_debt >= 16:
                self._fetch_debt -= 16
                self._do_ifetch()
                if self._stall is not None:
                    return

            addr = int(b.addrs[i])
            write = bool(b.writes[i])
            serial = bool(b.serial[i])
            self._access_data(addr, write, serial)
            if self._stall is not None:
                return
            if self._time > deadline:
                break
        self._schedule_at_time()

    def _run_chunk_batched(self) -> None:
        """The default trace walk: identical op sequence to
        :meth:`_run_chunk`'s legacy loop, but indexing the plain-list
        copies of the batch arrays — native ints/bools, no NumPy scalar
        extraction per field per memop — with the loop-invariant method
        and field lookups hoisted out of the loop.  Every arithmetic
        operation (including the two separate float adds into
        ``_time``) is kept in the legacy order so both walks stay
        bit-identical."""
        deadline = self.sim.now + QUANTUM
        gaps = self._gaps
        addrs = self._addrs
        writes = self._writes
        serial = self._serial
        n_batch = 0 if self._batch is None else self._batch.n
        retire = self._retire
        charge = self.branches.charge
        access = self._access_data
        ipc = self.ipc
        for _ in range(CHUNK):
            if self._stall is not None:
                return
            i = self._idx
            if i >= n_batch:
                self._refill()
                gaps = self._gaps
                addrs = self._addrs
                writes = self._writes
                serial = self._serial
                n_batch = self._batch.n
                i = 0
            self._idx = i + 1
            g1 = gaps[i] + 1
            retire(g1)
            self._time += g1 / ipc
            self._time += charge(g1)
            debt = self._fetch_debt + g1

            if debt >= 16:
                self._fetch_debt = debt - 16
                self._do_ifetch()
                if self._stall is not None:
                    return
            else:
                self._fetch_debt = debt

            access(addrs[i], writes[i], serial[i])
            if self._stall is not None:
                return
            if self._time > deadline:
                break
        self._schedule_at_time()

    def _schedule_at_time(self) -> None:
        if not self._running:
            self._running = True
            self.sim.at(max(int(self._time), self.sim.now), self._activate)

    def _retire(self, n: int) -> None:
        self.instructions += n
        self._c_inst.value += n
        if self.warm_time is None and \
                self.instructions >= self.warmup_instructions:
            self.warm_time = int(self._time)
        if not self.done and self.instructions >= self.target_instructions:
            self.done = True
            self.finish_time = int(self._time)
            if self.on_target_reached is not None:
                self.on_target_reached(self.core_id)

    # -- private cache walk ------------------------------------------------

    def _do_ifetch(self) -> None:
        if self._ifetch is None or self._ifetch_idx >= len(self._ifetch):
            self._ifetch = self.trace.ifetch_addresses(4096)
            if self._batched:
                self._ifetch = self._ifetch.tolist()
            self._ifetch_idx = 0
        addr = int(self._ifetch[self._ifetch_idx])
        self._ifetch_idx += 1
        if self.l1i.lookup(addr) is not None:
            return
        if self.l2.lookup(addr) is not None:
            self._time += self.cfg.l2.latency
            self._fill(self.l1i, addr)
            return
        line_addr = addr & ~(self.l1i.line_bytes - 1)
        if line_addr in self._inflight:
            return                    # fill already on its way
        self._inflight.add(line_addr)
        addr = line_addr
        # ifetch LLC miss: front end stalls until the line returns
        self._c_llc_ifetch.value += 1
        self._stall = "ifetch"
        self._stalls["ifetch"].value += 1
        req = MemRequest(addr, False, self.name, "inst",
                         on_done=self._ifetch_done,
                         created_at=int(self._time))
        self._send(req)

    def _ifetch_done(self, req: MemRequest) -> None:
        self._inflight.discard(req.addr)
        self._fill(self.l2, req.addr)
        self._fill(self.l1i, req.addr)
        if self._stall == "ifetch":
            self._stall = None
            self._time = max(self._time, float(self.sim.now))
            self._schedule_at_time()

    def _access_data(self, addr: int, write: bool, serial: bool) -> None:
        if self.l1d.lookup(addr, write=write) is not None:
            return
        line = self.l2.lookup(addr, write=write)
        if line is not None:
            self._time += self.cfg.l2.latency
            self._fill(self.l1d, addr, dirty=write)
            return
        line_addr = addr & ~(self.l1d.line_bytes - 1)
        self._train_prefetcher(line_addr)
        if line_addr in self._inflight:
            return                    # merged onto the in-flight fill
        self._inflight.add(line_addr)
        if write:
            self._issue_store(line_addr)
        else:
            self._issue_load(line_addr, serial)

    def _train_prefetcher(self, line_addr: int) -> None:
        line = line_addr >> 6
        if line == self._pf_last_line + 1:
            self._pf_streak += 1
        elif line != self._pf_last_line:
            self._pf_streak = 0
        self._pf_last_line = line
        if self._pf_streak < 2:
            return
        for d in range(1, self._pf_depth + 1):
            if self._pf_outstanding >= self._pf_max_outstanding:
                return
            pf_addr = line_addr + d * 64
            if pf_addr in self._inflight:
                continue
            if self.l2.probe(pf_addr) is not None:
                continue
            self._inflight.add(pf_addr)
            self._pf_outstanding += 1
            self._c_prefetches.value += 1
            req = MemRequest(pf_addr, False, self.name, "prefetch",
                             on_done=self._prefetch_done,
                             created_at=int(self._time))
            self._send(req)

    def _prefetch_done(self, req: MemRequest) -> None:
        self._pf_outstanding -= 1
        self._inflight.discard(req.addr)
        # prefetches fill the L2 only (no L1 pollution)
        self._fill(self.l2, req.addr)

    def _issue_load(self, addr: int, serial: bool) -> None:
        self._c_llc_loads.value += 1
        self.outstanding += 1
        req = MemRequest(addr, False, self.name, "load",
                         on_done=self._load_done,
                         created_at=int(self._time))
        if serial:
            req.meta = {"serial": True}
            self._stall = "serial"
            self._stalls["serial"].value += 1
        elif self.outstanding >= self.mlp:
            self._stall = "mlp"
            self._stalls["mlp"].value += 1
        self._send(req)

    def _load_done(self, req: MemRequest) -> None:
        self.outstanding -= 1
        self._inflight.discard(req.addr)
        self._fill_both(req.addr, dirty=False)
        if self._stall == "serial" and req.meta and req.meta.get("serial"):
            self._resume()
        elif self._stall == "mlp" and self.outstanding < self.mlp:
            self._resume()

    def _issue_store(self, addr: int) -> None:
        self._c_llc_stores.value += 1
        if self.wb_used >= self.cfg.write_buffer:
            self._stall = "wb"
            self._stalls["wb"].value += 1
        self.wb_used += 1
        req = MemRequest(addr, False, self.name, "store",
                         on_done=self._store_done,
                         created_at=int(self._time))
        self._send(req)

    def _store_done(self, req: MemRequest) -> None:
        self.wb_used -= 1
        self._inflight.discard(req.addr)
        self._fill_both(req.addr, dirty=True)
        if self._stall == "wb" and self.wb_used < self.cfg.write_buffer:
            self._resume()

    def _resume(self) -> None:
        self._stall = None
        self._time = max(self._time, float(self.sim.now))
        self._schedule_at_time()

    def _send(self, req: MemRequest) -> None:
        when = max(int(self._time), self.sim.now)
        tr = self.tracer
        if tr is not None:
            tr.maybe_start(req, when)
            if req.span is not None:
                tr.gauge_record("cpu_outstanding", when, self.outstanding)
        self.sim.at_call(when, self.llc_send, req)

    # -- fills, evictions, inclusion ---------------------------------------

    def _fill(self, cache: Cache, addr: int, dirty: bool = False) -> None:
        ev = cache.allocate(addr, write=dirty, owner=self.name)
        if ev is None:
            return
        if cache is self.l2:
            # L2 is inclusive of L1s here: evicting L2 drops L1 copies
            l1_line = self.l1d.invalidate(ev.addr)
            dirty_out = ev.dirty or (l1_line is not None and l1_line.dirty)
            self.l1i.invalidate(ev.addr)
            if dirty_out:
                wb = MemRequest(ev.addr, True, self.name, "writeback",
                                created_at=self.sim.now)
                self._send(wb)
        elif cache is self.l1d and ev.dirty:
            self.l2.allocate(ev.addr, write=True, owner=self.name)

    def _fill_both(self, addr: int, dirty: bool) -> None:
        self._fill(self.l2, addr, dirty=dirty)
        self._fill(self.l1d, addr, dirty=dirty)

    def back_invalidate(self, addr: int) -> bool:
        """Inclusive-LLC back-invalidation of this core's private copies.

        Returns True if a private copy was dirty — the LLC merges that
        into the line it is writing back to DRAM.
        """
        l1 = self.l1d.invalidate(addr)
        l2 = self.l2.invalidate(addr)
        self.l1i.invalidate(addr)
        return (l1 is not None and l1.dirty) or (l2 is not None and l2.dirty)

    # -- metrics ---------------------------------------------------------------

    def guard_state(self) -> dict:
        """Occupancy/stall snapshot for the invariant monitor."""
        return {"outstanding": self.outstanding, "mlp": self.mlp,
                "wb_used": self.wb_used,
                "wb_cap": self.cfg.write_buffer,
                "prefetches": self._pf_outstanding,
                "inflight_lines": len(self._inflight),
                "stall": self._stall, "done": self.done}

    @property
    def cycles_to_target(self) -> Optional[int]:
        return self.finish_time

    def ipc_achieved(self) -> float:
        """IPC over the measured (post-warm-up) region."""
        if self.finish_time is None:
            return 0.0
        start = self.warm_time or 0
        cycles = self.finish_time - start
        if cycles <= 0:
            return 0.0
        return self.measured_instructions / cycles
