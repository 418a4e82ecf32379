"""
Deterministic intersection traffic
==================================

Spawn mixed traffic at a four-arm intersection and watch the population,
turnover and spacing behave. The stream is a pure function of the seed:
running this twice prints identical numbers.
"""

from collections import Counter

from twinroute import default_config, init_traffic, advance_traffic

cfg = default_config(duration=120.0, vehicle_count=20, connected_fraction=0.5, seed=11)
state = init_traffic(cfg)

populations = []
connected = Counter()
maneuvers = Counter()
seen = set()

for step in range(int(cfg.duration / cfg.dt)):
    state, snap = advance_traffic(state, cfg.dt)
    populations.append(len(snap.vehicles))
    for vehicle in state.active:
        if vehicle.id not in seen:
            seen.add(vehicle.id)
            connected[vehicle.connected] += 1
            maneuvers[vehicle.plan.maneuver.value] += 1

print(f"{len(seen)} vehicles passed through over {cfg.duration:.0f} s")
print(f"population: peak {max(populations)}, mean {sum(populations)/len(populations):.1f} "
      f"(cap {cfg.vehicle_count})")
print(f"connected: {connected[True]} CAVs / {connected[False]} unconnected")
print("maneuvers:", dict(maneuvers))

# same-lane spacing stays above the configured minimum gap
corridors = {}
for v, progress in zip(state.active, state.progress):
    if progress < v.plan.entry_end_s:
        corridors.setdefault((v.plan.entry_arm, v.plan.lane), []).append(progress)
spacings = []
for positions in corridors.values():
    positions.sort()
    spacings += [b - a for a, b in zip(positions, positions[1:])]
if spacings:
    print(f"tightest same-lane spacing right now: {min(spacings):.2f} m "
          f"(min gap {cfg.mobility.min_gap} m)")
