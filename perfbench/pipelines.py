"""The four benchmark workloads: inputs, one timed pass, output checks.

Each workload is built once from the workload seed (``__init__``: the
profiles and configs, counted as set-up), then runs any number of
passes.  ``run`` is one pass: it calls into the program's layers, each
call wrapped in a span of the recorder it is given, and returns the
outputs.  ``check`` tests the outputs against properties computed apart
from the program and raises :class:`CheckFailed` on the first one that
does not hold.  ``layer_metrics`` turns one traced pass's span durations
and outputs into per-layer rates.

Packet synthesis runs the stock week (``olygamer_week()``, downloads
on) at the program's default seed, ``SYNTHESIS_SEED``, on every run:
the week behind ``nat_map`` and ``route_cache`` and the 64-server
facility behind ``fleet_loop``'s ingress.  With downloads on, synthesis
raises "time went backwards" in the shared download token bucket on
some seeds, and a benchmark operation may not fail on some seeds only.
The workload seed drives every other input: the NAT device, the web
stream, the closed loop, the 512-server fleet with its pools and RTTs,
and the facility's hops.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.natanalysis import NatAnalysis
from repro.experiments import paperdata
from repro.facilitynet.pipeline import rack_ingress_traces, run_hops
from repro.facilitynet.report import ingress_envelope
from repro.facilitynet.topology import build_topology, provision_from_envelope
from repro.fleet.profiles import hosting_facility
from repro.gameserver.config import olygamer_week
from repro.gameserver.server import run_closed_loop
from repro.matchmaking import PoolConfig, RttMatrix, simulate_matchmaking
from repro.router.cache import EvictionPolicy, RouteCache, simulate_cache
from repro.router.device import DeviceProfile
from repro.router.livedevice import LiveForwardingDevice
from repro.router.nat import NatDevice
from repro.trace.packet import Direction
from repro.workloads.scenarios import clear_scenario_cache, olygamer_scenario
from repro.workloads.web import (
    WebTrafficModel,
    generate_web_packets,
    interleave_streams,
)


class CheckFailed(AssertionError):
    """An output check did not hold."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


#: Seed of every packet synthesis (see the module docstring).
SYNTHESIS_SEED = 0


def week_scenario():
    """The paper's week, uncached, so the pass pays for its synthesis."""
    clear_scenario_cache()
    return olygamer_scenario(SYNTHESIS_SEED)


class NatMap:
    """Table IV: one 30-minute map through the pps-bound NAT device."""

    name = "nat_map"
    WINDOW = (3600.0, 5400.0)
    #: The tolerance factor table4 applies to the incoming loss row.
    INCOMING_LOSS_TOLERANCE = 1.8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.device_profile = DeviceProfile()

    def run(self, rec) -> dict:
        scenario = week_scenario()
        with rec.span("gameserver.population"):
            population = scenario.population
        with rec.span("gameserver.generator"):
            trace = scenario.packet_window(*self.WINDOW)
        with rec.span("router.device"):
            result = NatDevice(self.device_profile, seed=self.seed + 100).run(trace)
        with rec.span("core.natanalysis"):
            analysis = NatAnalysis.from_result(result)
        return {
            "sessions": len(population.sessions),
            "packets": len(trace),
            "forwarding": result.forwarding,
            "analysis": analysis,
        }

    def check(self, out: dict) -> None:
        fwd = out["forwarding"]
        forwarded = fwd.fates == 1
        departures = fwd.departures[forwarded]
        arrivals = fwd.timestamps[forwarded]
        expect(bool(np.all(np.diff(departures) >= 0.0)),
               "forwarded departures decrease (one lookup engine is FIFO)")
        expect(bool(np.all(departures > arrivals)),
               "a forwarded packet departs before it arrives")

        inbound = fwd.directions == np.int8(Direction.IN)
        if fwd.stall_windows:
            starts = np.array([s for s, _ in fwd.stall_windows])
            ends = np.maximum.accumulate(np.array([e for _, e in fwd.stall_windows]))
            t = fwd.timestamps[inbound & forwarded]
            index = np.searchsorted(starts, t, side="right") - 1
            inside = (index >= 0) & (t < ends[np.maximum(index, 0)])
            expect(not bool(inside.any()),
                   f"{int(inside.sum())} inbound packets forwarded inside a stall")

        def loss(mask: np.ndarray) -> float:
            offered = int((fwd.fates[mask] >= 0).sum())
            return int((fwd.fates[mask] == 0).sum()) / offered

        incoming, outgoing = loss(inbound), loss(~inbound)
        analysis = out["analysis"]
        expect(abs(analysis.incoming_loss_rate - incoming) < 1e-12,
               "NatAnalysis incoming loss disagrees with the device fates")
        paper = paperdata.NAT_INCOMING_LOSS
        tol = self.INCOMING_LOSS_TOLERANCE
        expect(paper / tol <= incoming <= paper * tol,
               f"inbound loss {incoming:.4f} outside Table IV tolerance")
        expect(incoming > outgoing,
               f"inbound loss {incoming:.5f} <= outbound {outgoing:.5f}")

    def layer_metrics(self, out: dict, spans: Dict[str, float]) -> dict:
        return {
            "gameserver.population.sessions_per_s": _rate(
                out["sessions"], spans["gameserver.population"]),
            "gameserver.generator.pps": _rate(
                out["packets"], spans["gameserver.generator"]),
            "router.device.pps": _rate(out["packets"], spans["router.device"]),
        }


def reference_hits(keys, sizes, capacity: int, size_threshold=None) -> int:
    """Hit count of a plain dict LRU; with ``size_threshold``, packets
    above it never evict (size-preferential)."""
    entries: dict = {}
    hits = 0
    for key, size in zip(keys.tolist(), sizes.tolist()):
        if key in entries:
            hits += 1
            del entries[key]
        elif len(entries) >= capacity:
            if size_threshold is not None and size > size_threshold:
                continue
            del entries[next(iter(entries))]
        entries[key] = True
    return hits


class RouteCacheStudy:
    """§IV-B: a game window plus an equal Zipf web stream, four policies."""

    name = "route_cache"
    WINDOW = (3600.0, 4500.0)
    CAPACITY = 64

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.web_model = WebTrafficModel()

    def run(self, rec) -> dict:
        scenario = week_scenario()
        with rec.span("gameserver.population"):
            population = scenario.population
        with rec.span("gameserver.generator"):
            trace = scenario.packet_window(*self.WINDOW)
        with rec.span("workloads.web"):
            game_keys = trace.dst_addrs.astype(np.int64)
            game_sizes = trace.payload_sizes.astype(np.int64)
            rng = np.random.default_rng(self.seed + 7)
            web_keys, web_sizes = generate_web_packets(
                self.web_model, game_keys.size, rng)
            keys, sizes, labels = interleave_streams(
                rng, game_keys, game_sizes, web_keys, web_sizes)
        stats = {}
        for policy in EvictionPolicy:
            with rec.span(f"router.cache.{policy.name.lower()}"):
                cache = RouteCache(self.CAPACITY, policy=policy)
                stats[policy] = simulate_cache(keys, sizes, cache, labels=labels)
        return {
            "sessions": len(population.sessions),
            "packets": len(trace),
            "keys": keys,
            "sizes": sizes,
            "stats": stats,
            "size_threshold": cache.size_threshold,
        }

    def check(self, out: dict) -> None:
        n = out["keys"].size
        stats = out["stats"]
        for policy, s in stats.items():
            expect(s.hits + s.misses == n,
                   f"{policy.value}: hits + misses != {n} packets")
        lru = stats[EvictionPolicy.LRU]
        size_pref = stats[EvictionPolicy.SIZE_PREFERENTIAL]
        expect(lru.hits == reference_hits(out["keys"], out["sizes"], self.CAPACITY),
               "LRU hits differ from the dict reference")
        expect(size_pref.hits == reference_hits(
                   out["keys"], out["sizes"], self.CAPACITY, out["size_threshold"]),
               "size-preferential hits differ from the dict reference")
        expect(size_pref.class_hit_rate("game") >= lru.class_hit_rate("game"),
               "size-preferential game hit rate below LRU's")

    def layer_metrics(self, out: dict, spans: Dict[str, float]) -> dict:
        cache_s = sum(spans[f"router.cache.{p.name.lower()}"] for p in EvictionPolicy)
        return {
            "gameserver.population.sessions_per_s": _rate(
                out["sessions"], spans["gameserver.population"]),
            "gameserver.generator.pps": _rate(
                out["packets"], spans["gameserver.generator"]),
            "router.cache.accesses_per_s": _rate(
                out["keys"].size * len(EvictionPolicy), cache_s),
        }


class ClosedLoop:
    """Live clients and server, on a clean path and behind the live device."""

    name = "closed_loop"
    N_CLIENTS = 20
    DURATION_S = 240.0
    #: The tolerance factor closedloop applies to the clean-path rate.
    RATE_TOLERANCE = 1.25

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.profile = olygamer_week()
        self.device_profile = DeviceProfile()

    def _device(self, scheduler):
        return LiveForwardingDevice(
            scheduler, self.device_profile, seed=self.seed + 50,
            horizon=self.DURATION_S + 10.0)

    def run(self, rec) -> dict:
        with rec.span("gameserver.server.clean"):
            clean = run_closed_loop(
                self.profile, self.N_CLIENTS, self.DURATION_S, seed=self.seed)
        with rec.span("gameserver.server.behind"):
            behind = run_closed_loop(
                self.profile, self.N_CLIENTS, self.DURATION_S, seed=self.seed,
                transport_factory=self._device)
        return {"clean": clean, "behind": behind}

    def check(self, out: dict) -> None:
        clean = out["clean"]
        expect(clean["server"].timeouts == 0, "timeouts on the clean path")
        p = self.profile
        expected = self.N_CLIENTS * (
            1.0 / p.client_update_interval
            + p.ticks_per_second * p.snapshot_send_probability)
        pps = len(clean["trace"]) / self.DURATION_S
        tol = self.RATE_TOLERANCE
        expect(expected / tol <= pps <= expected * tol,
               f"clean path {pps:.1f} pps vs rate model {expected:.1f} pps")
        s = out["behind"]["device"].stats
        expect(s.offered_in == s.forwarded_in + s.dropped_in,
               "inbound offered != forwarded + dropped")
        expect(s.offered_out == s.forwarded_out + s.dropped_out,
               "outbound offered != forwarded + dropped")
        expect(s.dropped_in / s.offered_in > s.dropped_out / s.offered_out,
               "inbound loss not above outbound loss")

    def layer_metrics(self, out: dict, spans: Dict[str, float]) -> dict:
        events = sum(out[k]["scheduler"].executed_count for k in ("clean", "behind"))
        s = out["behind"]["device"].stats
        return {
            "sim.engine.events": events,
            "sim.engine.events_per_s": _rate(
                events,
                spans["gameserver.server.clean"] + spans["gameserver.server.behind"]),
            "router.livedevice.pps": _rate(
                s.offered_in + s.offered_out, spans["gameserver.server.behind"]),
        }


class FleetLoop:
    """Matchmaking saturated and with headroom, then a facility's hops."""

    name = "fleet_loop"
    HORIZON_S = 1800.0
    SESSION = dict(epoch_length=60.0, session_duration_mean=900.0,
                   session_duration_min=5.0)
    POOL_SIZE = 1_000_000
    N_SERVERS = 512
    SATURATED_DEMAND = 32.0
    HEADROOM_DEMAND = 1.5
    FACILITY_SERVERS = 64
    FACILITY_RACKS = 8
    WINDOW = (1500.0, 1530.0)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        base = olygamer_week()
        self.fleet = hosting_facility(
            n_servers=self.N_SERVERS, duration=self.HORIZON_S, seed=seed,
            base_profile=base)
        self.saturated = PoolConfig.for_fleet(
            self.fleet, pool_size=self.POOL_SIZE,
            demand_ratio=self.SATURATED_DEMAND, **self.SESSION)
        self.headroom = PoolConfig.for_fleet(
            self.fleet, pool_size=self.POOL_SIZE,
            demand_ratio=self.HEADROOM_DEMAND, **self.SESSION)
        self.rtt = RttMatrix.for_fleet(
            self.fleet, self.saturated.region_profile, seed=seed)
        self.facility = hosting_facility(
            n_servers=self.FACILITY_SERVERS, duration=self.HORIZON_S,
            seed=SYNTHESIS_SEED, base_profile=base)
        self.facility_pool = PoolConfig.for_fleet(
            self.facility, demand_ratio=self.HEADROOM_DEMAND, **self.SESSION)
        self.facility_rtt = RttMatrix.for_fleet(
            self.facility, self.facility_pool.region_profile, seed=SYNTHESIS_SEED)
        self.shape = build_topology(
            self.FACILITY_SERVERS, self.FACILITY_RACKS,
            per_server_pps=1.0, per_server_bps=1.0)

    def run(self, rec) -> dict:
        with rec.span("matchmaking.saturated"):
            saturated = simulate_matchmaking(
                self.fleet, "latency_aware", self.saturated, rtt=self.rtt)
        with rec.span("matchmaking.headroom"):
            headroom = simulate_matchmaking(
                self.fleet, "latency_aware", self.headroom, rtt=self.rtt)
        with rec.span("matchmaking.facility"):
            assigned = simulate_matchmaking(
                self.facility, "latency_aware", self.facility_pool,
                rtt=self.facility_rtt)
        with rec.span("fleet.ingress"):
            ingress = rack_ingress_traces(
                self.facility, self.shape, *self.WINDOW, workers=1,
                assignments=assigned.sessions)
        with rec.span("facilitynet.hops"):
            envelope = ingress_envelope(ingress, *self.WINDOW, percentile=100.0)
            topology = provision_from_envelope(
                envelope, n_servers=self.FACILITY_SERVERS,
                n_racks=self.FACILITY_RACKS, rack_oversubscription=0.5,
                core_oversubscription=0.7, uplink_oversubscription=3.2)
            hops = run_hops(topology, ingress, *self.WINDOW, seed=self.seed)
        return {
            "saturated": saturated,
            "headroom": headroom,
            "assigned": assigned,
            "ingress_packets": sum(len(trace) for trace in ingress),
            "hops": hops,
        }

    def check(self, out: dict) -> None:
        for key in ("saturated", "headroom", "assigned"):
            r = out[key]
            expect(bool(np.all(r.occupancy <= np.asarray(r.capacities)[:, None])),
                   f"{key}: occupancy above capacity")
            expect(sum(len(s) for s in r.sessions) == r.admission.admitted,
                   f"{key}: placed sessions != admitted")
            starts = np.array([x.start for s in r.sessions for x in s])
            expect(bool(np.all((starts >= 0.0) & (starts < self.HORIZON_S))),
                   f"{key}: a session starts outside the horizon")
        for key, fleet, pool, rtt in (
            ("headroom", self.fleet, self.headroom, self.rtt),
            ("assigned", self.facility, self.facility_pool, self.facility_rtt),
        ):
            least = simulate_matchmaking(fleet, "least_loaded", pool, rtt=rtt)
            aware = out[key].all_session_rtts().mean()
            expect(aware <= least.all_session_rtts().mean(),
                   f"{key}: latency_aware mean RTT above least_loaded's")
        hops = out["hops"]
        expect(hops.hop("core").offered
               == sum(r.forwarded for r in hops.tier("rack")),
               "core offered != sum of rack forwarded")
        expect(hops.uplink.offered == hops.hop("core").forwarded,
               "uplink offered != core forwarded")

    def layer_metrics(self, out: dict, spans: Dict[str, float]) -> dict:
        hops = out["hops"]
        return {
            "matchmaking.saturated.attempts_per_s": _rate(
                out["saturated"].admission.attempts, spans["matchmaking.saturated"]),
            "matchmaking.headroom.attempts_per_s": _rate(
                out["headroom"].admission.attempts, spans["matchmaking.headroom"]),
            "fleet.ingress.pps": _rate(out["ingress_packets"], spans["fleet.ingress"]),
            "facilitynet.hops.pps": _rate(
                sum(h.offered for h in hops.hops), spans["facilitynet.hops"]),
        }


WORKLOADS = {cls.name: cls for cls in (NatMap, RouteCacheStudy, ClosedLoop, FleetLoop)}
