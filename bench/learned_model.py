"""Constant-velocity stand-in for an external learned trajectory model.

Implements twinroute's learned-predictor exchange: history rows
``timestep,sim_time,id,connected,x,y,heading,speed`` arrive on stdin and
``<horizon_steps> <dt>`` are the last two argv values. Rows may carry
several vehicle ids; they are grouped by id and ``horizon_steps`` rows are
printed per id, ids in order of first appearance. The single-id exchange
the predictor uses today is the special case of one group.

Positions follow the built-in ``ConstantVelocityPredictor`` term for term
(``x + vx * j * dt``), so the forecasts match it bit for bit.
"""

import math
import sys


def forecast(lines, steps, dt):
    groups = {}
    for line in lines:
        if line.strip():
            row = line.split(",")
            groups.setdefault(row[2], []).append(row)
    out = []
    for vid, rows in groups.items():
        ts, t, _, conn, x, y, heading, speed = rows[-1]
        x, y, heading, speed = float(x), float(y), float(heading), float(speed)
        vx = speed * math.cos(heading)
        vy = speed * math.sin(heading)
        for j in range(1, steps + 1):
            px = x + vx * j * dt
            py = y + vy * j * dt
            out.append(
                f"{int(ts) + j},{float(t) + dt * j!r},{vid},{conn},"
                f"{px!r},{py!r},{heading!r},{speed!r}"
            )
    return out


if __name__ == "__main__":
    rows = forecast(sys.stdin.read().splitlines(), int(sys.argv[-2]), float(sys.argv[-1]))
    sys.stdout.write("".join(r + "\n" for r in rows))
