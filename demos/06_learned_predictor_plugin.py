"""
Plugging in an external trajectory model
========================================

The predictive strategy accepts any external model through a text
exchange: history rows go to the child process on stdin in the trace
schema, `<horizon_steps> <dt>` arrive as the two final argv values, and
the model prints one row per future step in the same schema. This demo
writes a tiny constant-velocity "model" to disk, runs it, and exits 1
unless its forecast equals the built-in constant-velocity predictor's.
"""

import sys
import tempfile
from pathlib import Path

from twinroute import LearnedPredictor, NodeId, VehicleState, predict
from twinroute.prediction import ConstantVelocityPredictor

MODEL = '''\
import math, sys
steps, dt = int(sys.argv[1]), float(sys.argv[2])
rows = [line.split(",") for line in sys.stdin.read().splitlines() if line.strip()]
ts, t, vid, conn, x, y, heading, speed = rows[-1]
x, y, heading, speed = float(x), float(y), float(heading), float(speed)
for j in range(1, steps + 1):
    px = x + speed * math.cos(heading) * dt * j
    py = y + speed * math.sin(heading) * dt * j
    print(f"{int(ts)+j},{float(t)+dt*j!r},{vid},{conn},{px!r},{py!r},{heading!r},{speed!r}")
'''

model_path = Path(tempfile.mkdtemp(prefix="twinroute-model-")) / "model.py"
model_path.write_text(MODEL)

history = [
    VehicleState(NodeId.vehicle(0), (x, 0.0, 0.0), 0.0, 12.0,
                 (4.5, 1.8, 1.5), 1.6, True)
    for x in (0.0, 1.2)
]

dt = 0.5
external = predict(history, horizon=2.0, dt=dt,
                   predictor=LearnedPredictor(("python3", str(model_path))))
builtin = predict(history, horizon=2.0, dt=dt, predictor=ConstantVelocityPredictor())

print("external model vs built-in constant velocity:")
# a forecast is one (x, y, heading) row per future step
for k, (a, b) in enumerate(zip(external.states, builtin.states), start=1):
    match = "ok" if a == b else "DIFFERS"
    print(f"  +{k * dt:.1f} s: {a[0]:6.2f} m vs {b[0]:6.2f} m  {match}")
if external.states != builtin.states:
    sys.exit("the external model's forecast differs from the built-in predictor's")

# in a scenario file the same plug-in reads:
#   prediction:
#     predictor: learned
#     learned_command: [python3, /path/to/model.py]
