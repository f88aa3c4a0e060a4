"""A live terminal view of a running daemon's metrics.

Polls ``GET /metrics`` (Prometheus text) and ``GET /healthz`` (JSON)
over whatever rendezvous the daemon listens on — the Unix socket works
because the daemon sniffs HTTP on every connection, so no TCP listener
is required — and renders a compact dashboard: liveness, job flow,
cache effectiveness, admission-gate state, and request latency
percentiles recovered from the histogram buckets.

``once=True`` prints a single frame and returns; otherwise the view
refreshes every ``interval`` seconds until Ctrl-C.  The Prometheus parser here is also the reference parser the
metrics tests use — it understands exactly what
:meth:`repro.metrics.registry.MetricsRegistry.render` emits.
"""

from __future__ import annotations

import json
import socket
import sys
import time
from typing import Dict, List, Optional, Tuple

__all__ = ["fetch", "hist_quantile", "parse_prometheus", "render_frame",
           "run_top", "sample_value"]


def _parse_address(address: str):
    """``host:port`` -> TCP tuple, anything else -> unix socket path
    (the daemon client's address rule)."""
    if ":" in address:
        host, _, port = address.rpartition(":")
        if port.isdigit():
            return (host or "127.0.0.1", int(port))
    return address


def fetch(address: str, path: str,
          timeout: float = 5.0) -> Tuple[int, bytes]:
    """One ``GET path`` against the daemon; returns (status, body).

    Speaks just enough HTTP/1.1 for the daemon's adapter: the daemon
    always sends ``Connection: close``, so the body is read to EOF.
    """
    addr = _parse_address(address)
    if isinstance(addr, tuple):
        sock = socket.create_connection(addr, timeout=timeout)
    else:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(addr)
        except OSError:
            sock.close()
            raise
    try:
        sock.sendall((f"GET {path} HTTP/1.1\r\nHost: repro\r\n"
                      "Connection: close\r\n\r\n").encode("latin-1"))
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        sock.close()
    data = b"".join(chunks)
    head, _, body = data.partition(b"\r\n\r\n")
    try:
        status = int(head.split(None, 2)[1])
    except (IndexError, ValueError):
        raise OSError(f"bad HTTP response from {address!r}")
    return status, body


# -- Prometheus text parsing --------------------------------------------------

def _parse_labels(raw: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    for part in raw.split(","):
        if not part:
            continue
        name, _, value = part.partition("=")
        labels[name.strip()] = value.strip().strip('"')
    return labels


def parse_prometheus(text: str) -> Dict[str, dict]:
    """Parse exposition text into ``{family: {help, type, samples}}``.

    ``samples`` is a list of ``(sample_name, labels_dict, value)`` —
    histogram ``_bucket``/``_sum``/``_count`` series stay under their
    family name, exactly inverse to
    :meth:`~repro.metrics.registry.MetricsRegistry.render`.
    """
    families: Dict[str, dict] = {}

    def family(name: str) -> dict:
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in families:
                base = name[:-len(suffix)]
                break
        return families.setdefault(
            base, {"help": "", "type": "untyped", "samples": []})

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            family(name)["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            family(name)["type"] = kind.strip()
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            name, _, rest = line.partition("{")
            raw_labels, _, value = rest.rpartition("} ")
            labels = _parse_labels(raw_labels)
        else:
            name, _, value = line.rpartition(" ")
            labels = {}
        try:
            num = float(value)
        except ValueError:
            continue
        family(name)["samples"].append((name, labels, num))
    return families


def sample_value(families: Dict[str, dict], name: str,
                 default: float = 0.0, **labels) -> float:
    """Sum of a family's plain samples matching the given labels."""
    fam = families.get(name)
    if fam is None:
        return default
    total, seen = 0.0, False
    for sample, lab, value in fam["samples"]:
        if sample != name:
            continue                   # histogram series
        if all(lab.get(k) == v for k, v in labels.items()):
            total += value
            seen = True
    return total if seen else default


def hist_quantile(families: Dict[str, dict], name: str, q: float,
                  **labels) -> Optional[float]:
    """Quantile estimate from cumulative ``_bucket`` samples (the
    bucket upper edge at which the cumulative count crosses ``q``)."""
    fam = families.get(name)
    if fam is None:
        return None
    buckets: List[Tuple[float, float]] = []
    for sample, lab, value in fam["samples"]:
        if sample != name + "_bucket":
            continue
        if not all(lab.get(k) == v for k, v in labels.items()):
            continue
        le = lab.get("le", "+Inf")
        edge = float("inf") if le == "+Inf" else float(le)
        buckets.append((edge, value))
    if not buckets:
        return None
    buckets.sort()
    total = buckets[-1][1]
    if total <= 0:
        return None
    want = q * total
    for edge, cum in buckets:
        if cum >= want:
            return edge
    return buckets[-1][0]              # pragma: no cover


# -- rendering ----------------------------------------------------------------

def _fmt_ns(ns: Optional[float]) -> str:
    if ns is None:
        return "-"
    if ns >= 1e9:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.1f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f}us"
    return f"{ns:.0f}ns"


def render_frame(families: Dict[str, dict], health: dict) -> str:
    """One dashboard frame from a /metrics parse and a /healthz body."""
    pool = health.get("pool") or {}
    state = "DRAINING" if health.get("draining") else (
        "ok" if health.get("ok") else "DEGRADED")
    lines = [
        f"repro service  pid {health.get('pid', '?')}  "
        f"uptime {health.get('uptime', 0):.0f}s  [{state}]",
        f"pool   {pool.get('alive', '?')}/{pool.get('size', '?')} alive"
        f"  {pool.get('busy', 0)} busy"
        f"  {pool.get('recycled', 0)} recycled"
        f"  queue {health.get('queue_depth', 0)}",
    ]

    def v(name: str, **labels) -> int:
        return int(sample_value(families, name, **labels))

    queued = v("repro_jobs_queued_total")
    done_ok = v("repro_jobs_done_total", ok="true")
    done_fail = v("repro_jobs_done_total", ok="false")
    lines.append(
        f"jobs   {queued} queued  {v('repro_jobs_started_total')} "
        f"started  {done_ok} done  {done_fail} failed  "
        f"{v('repro_jobs_coalesced_total')} coalesced  "
        f"{v('repro_jobs_interrupted_total')} interrupted")
    lines.append(
        f"cache  {v('repro_cache_hits_total', layer='memory')} mem + "
        f"{v('repro_cache_hits_total', layer='disk')} disk hits  "
        f"{v('repro_cache_misses_total')} misses  "
        f"{v('repro_cache_stores_total')} stores  "
        f"{v('repro_jobs_cache_served_total')} served-no-worker")
    w_g = sample_value(families, "repro_gate_w_g_ms")
    lines.append(
        f"gate   W_G {w_g:.0f}ms  N_G {v('repro_gate_n_g')}  "
        f"{v('repro_admission_deferred_total')} deferred")
    p50 = hist_quantile(families, "repro_request_ns", 0.5,
                        transport="socket")
    p99 = hist_quantile(families, "repro_request_ns", 0.99,
                        transport="socket")
    run50 = hist_quantile(families, "repro_worker_run_ns", 0.5)
    lines.append(
        f"lat    request p50 {_fmt_ns(p50)}  p99 {_fmt_ns(p99)}  "
        f"worker-run p50 {_fmt_ns(run50)}")
    drain = health.get("last_drain")
    if drain:
        lines.append(f"drain  last: {json.dumps(drain, sort_keys=True)}")
    return "\n".join(lines)


def run_top(address: str, interval: float = 2.0,
            once: bool = False, out=None, fetch_fn=None) -> int:
    """Show the daemon at ``address`` until Ctrl-C (or once).

    Degrades gracefully when the daemon disappears mid-scrape or
    between refreshes: the last-seen frame stays on screen under a
    ``STALE`` banner and the view keeps retrying every ``interval``
    until the daemon answers again (or Ctrl-C).  ``fetch_fn`` is an
    injection seam for tests (same signature as :func:`fetch`).
    """
    out = out or sys.stdout
    fetch_fn = fetch_fn or fetch
    last_frame: Optional[str] = None
    last_seen = 0.0
    try:
        while True:
            try:
                _, metrics_body = fetch_fn(address, "/metrics")
                _, health_body = fetch_fn(address, "/healthz")
                health = json.loads(health_body.decode("utf-8"))
                frame = render_frame(
                    parse_prometheus(metrics_body.decode("utf-8")),
                    health)
                last_frame, last_seen = frame, time.time()
            except (OSError, ValueError) as e:
                if last_frame is None:
                    frame = f"no daemon at {address!r}: {e}"
                    if once:
                        print(frame, file=out)
                        return 1
                else:
                    age = max(0.0, time.time() - last_seen)
                    frame = (f"[STALE {age:.0f}s] daemon unreachable "
                             f"at {address!r}: {e} — retrying; "
                             f"last-seen data below\n{last_frame}")
            if once:
                print(frame, file=out)
                return 0
            out.write("\x1b[2J\x1b[H" + frame + "\n")
            out.flush()
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
