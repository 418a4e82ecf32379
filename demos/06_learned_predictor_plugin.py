"""
Plugging in an external trajectory model
========================================

The predictive strategy accepts any external model through a text
exchange, one per planning epoch: every vehicle's history rows go to the
child process on stdin in the trace schema, one group of rows per
vehicle, `<horizon_steps> <dt>` arrive as the two final argv values, and
the model prints `horizon_steps` rows per group, in the order the groups
came, in the same schema. This demo writes a tiny constant-velocity
"model" to disk, forecasts two vehicles with it in one exchange, and
exits 1 unless its forecast equals the built-in constant-velocity
predictor's.
"""

import sys
import tempfile
from pathlib import Path

from twinroute import LearnedPredictor, NodeId, Tracks, VehicleState, WorldSnapshot, predict
from twinroute.prediction import ConstantVelocityPredictor

# a model groups the rows it reads by vehicle id and answers each group
MODEL = '''\
import math, sys
steps, dt = int(sys.argv[1]), float(sys.argv[2])
groups = {}
for line in sys.stdin.read().splitlines():
    if line.strip():
        row = line.split(",")
        groups.setdefault(row[2], []).append(row)
for rows in groups.values():
    ts, t, vid, conn, x, y, heading, speed = rows[-1]
    x, y, heading, speed = float(x), float(y), float(heading), float(speed)
    vx, vy = speed * math.cos(heading), speed * math.sin(heading)
    for j in range(1, steps + 1):
        px, py = x + vx * j * dt, y + vy * j * dt
        print(f"{int(ts)+j},{float(t)+dt*j!r},{vid},{conn},{px!r},{py!r},{heading!r},{speed!r}")
'''

model_path = Path(tempfile.mkdtemp(prefix="twinroute-model-")) / "model.py"
model_path.write_text(MODEL)


def vehicle(index, x, y, heading, speed):
    return VehicleState(NodeId.vehicle(index), (x, y, 0.0), heading, speed, (4.5, 1.8, 1.5), 1.6, True)


# two snapshots of two vehicles, one eastbound and one northbound
history = [
    WorldSnapshot.from_vehicles(
        k, [vehicle(0, 1.2 * k, 0.0, 0.0, 12.0), vehicle(1, 5.0, -30.0 + 0.8 * k, 1.5707963267948966, 8.0)],
        (0.0, 0.0, 6.0),
    )
    for k in range(2)
]
tracks = Tracks.observed(history, depth=None)  # every observed row of every vehicle

dt = 0.5
external, held = predict(tracks, horizon=2.0, dt=dt, predictor=LearnedPredictor(("python3", str(model_path))))
builtin, _ = predict(tracks, horizon=2.0, dt=dt, predictor=ConstantVelocityPredictor())

print("external model vs built-in constant velocity, one exchange for both vehicles:")
# a forecast is one (x, y, heading) row per vehicle per future step
for k, (a, b) in enumerate(zip(external.tolist(), builtin.tolist()), start=1):
    for vid, (ra, rb) in zip(tracks.ids, zip(a, b)):
        match = "ok" if ra == rb else "DIFFERS"
        ours, theirs = f"({ra[0]:6.2f}, {ra[1]:6.2f})", f"({rb[0]:6.2f}, {rb[1]:6.2f})"
        print(f"  +{k * dt:.1f} s {vid}: {ours} m vs {theirs} m  {match}")
if held.any() or external.tolist() != builtin.tolist():
    sys.exit("the external model's forecast differs from the built-in predictor's")

# in a scenario file the same plug-in reads:
#   prediction:
#     predictor: learned
#     learned_command: [python3, /path/to/model.py]
