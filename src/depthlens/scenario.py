"""Closed-loop braking sandbox: how a corrupted depth reading plays out.

One ego vehicle approaches a stationary leader in 1-D. Each tick applies
three rules in order:

* perceive: the true gap times the optics depth ratio, plus optional noise,
  floored at zero;
* brake: slam maximum deceleration once the perceived gap is at or inside
  the stopping distance plus a safety margin, and stay latched (no
  limit-cycle chatter at the threshold under noise);
* integrate, semi-implicitly: speed first, clamped at zero, then the gap
  with the new speed.

The collision check runs after the gap update each tick. A depth ratio above
one makes the obstacle look farther than it is, so braking starts late and
the run ends in a collision; a ratio below one triggers a premature stop.
Ratio one is the benign baseline. Runs with zero noise are bit-reproducible;
noisy runs are reproducible from the recorded seed.

Because the brake latches, a run has exactly two phases: a cruise at
constant speed up to the onset tick, then braking at full deceleration until
the car stops or hits. ``run_scenario`` computes each phase as arrays, in
blocks of ``_BLOCK`` ticks: time, speed and gap are ``np.add.accumulate`` /
``np.subtract.accumulate`` chains, which add left to right and so equal the
scalar ``t += dt`` and ``gap -= speed * dt`` chains bit for bit, and the
noise is drawn a block at a time, which yields the same stream as one draw
per tick. The tick log is one structured array (``TICK_DTYPE``), and
``ticks_to_csv`` formats it column by column and writes it to its file a
block of ``_CSV_ROWS`` rows at a time, so the text held at once is one
block's, not the log's.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import check_finite, check_positive

# The smallest noise seed; the CLI's --seed reads it.
MIN_SEED = 0


@dataclass(frozen=True)
class ScenarioConfig:
    initial_gap_m: float
    ego_speed_mps: float
    max_decel_mps2: float
    safety_margin_m: float
    depth_ratio: float = 1.0
    dt_s: float = 0.01
    noise_sigma_m: float = 0.0
    max_sim_time_s: float = 60.0
    seed: int = 0

    def __post_init__(self):
        check_positive(initial_gap=self.initial_gap_m, ego_speed=self.ego_speed_mps,
                       max_decel=self.max_decel_mps2, safety_margin=self.safety_margin_m,
                       depth_ratio=self.depth_ratio, dt=self.dt_s,
                       max_sim_time=self.max_sim_time_s)
        check_finite(noise_sigma=self.noise_sigma_m)
        if self.noise_sigma_m < 0:
            raise ValueError(f"noise sigma must be non-negative, got {self.noise_sigma_m}")
        if self.seed < MIN_SEED:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.dt_s > 0.05:
            raise ValueError(f"dt must be <= 0.05 s, got {self.dt_s}")


# One row per tick; ``ticks.tolist()`` gives plain tuples in this order.
TICK_DTYPE = np.dtype([("time_s", np.float64), ("true_gap_m", np.float64),
                       ("perceived_gap_m", np.float64), ("speed_mps", np.float64),
                       ("accel_cmd_mps2", np.float64), ("braking", np.bool_)])

# Ticks per array block: memory is bounded by this and by the log, not by
# the horizon.
_BLOCK = 4096

# The most ticks a run logs (a 43 MB log); a run that would log more raises.
# Else a dt too fine for the horizon fills memory, and one too small to move
# the gap never ends.
MAX_TICKS = 2 ** 20

# Rows per block of CSV text written at once; larger blocks hold more text
# and write no faster.
_CSV_ROWS = 256


class OutcomeKind(Enum):
    STOPPED = "stopped"
    COLLISION = "collision"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class Outcome:
    kind: OutcomeKind
    final_gap_m: float | None = None
    impact_speed_mps: float | None = None

    @classmethod
    def stopped(cls, final_gap_m: float) -> "Outcome":
        return cls(OutcomeKind.STOPPED, final_gap_m=final_gap_m)

    @classmethod
    def collision(cls, impact_speed_mps: float) -> "Outcome":
        return cls(OutcomeKind.COLLISION, impact_speed_mps=impact_speed_mps)

    @classmethod
    def timeout(cls) -> "Outcome":
        return cls(OutcomeKind.TIMEOUT)


def _chain(op, first: float, step, n: int) -> np.ndarray:
    """``first`` and the ``n`` values of ``x = op(x, step)`` after it, one
    element of ``step`` (or the scalar) per application, in order."""
    out = np.empty(n + 1)
    out[0] = first
    out[1:] = step
    return op.accumulate(out, out=out)


def _first(hits: np.ndarray) -> int:
    """Index of the first True, or ``len(hits)`` if there is none."""
    i = int(hits.argmax())
    return i if hits[i] else len(hits)


def run_scenario(cfg: ScenarioConfig) -> tuple[Outcome, np.ndarray]:
    """Run perceive -> brake -> integrate until collision, stop or timeout;
    return the outcome and the tick log (a ``TICK_DTYPE`` array).

    Each pass covers the rest of the current noise block in one phase and
    ends at the first event, in the tick loop's order: the time check before
    a tick, braking onset on it, collision and stop after it. Gap, speed
    and dt are positive on every tick run, so ``gap * ratio`` is never -0.0
    and neither is its sum with the noise: the floor sees no signed zero.
    A run that would log more than ``MAX_TICKS`` ticks raises ``ValueError``.
    """
    rng = np.random.default_rng(cfg.seed) if cfg.noise_sigma_m > 0 else None
    dt = cfg.dt_s
    speed = cfg.ego_speed_mps
    # A square past the float range is inf, so the first tick brakes; ** raises.
    threshold = speed * speed / (2.0 * cfg.max_decel_mps2) + cfg.safety_margin_m
    gap = cfg.initial_gap_m
    braking = False
    t = 0.0
    log, logged = [], 0
    done = _BLOCK  # ticks of the current noise block already run
    while True:
        if done == _BLOCK:
            noise = (rng.normal(0.0, cfg.noise_sigma_m, size=_BLOCK)
                     if rng is not None else None)
            done = 0
        m = _BLOCK - done
        accel = -cfg.max_decel_mps2 if braking else 0.0
        # inf and NaN as in float math, also in the ticks past the block's event
        with np.errstate(over="ignore", invalid="ignore"):
            speeds = np.maximum(_chain(np.add, speed, accel * dt, m), 0.0)
            gaps = _chain(np.subtract, gap, speeds[1:] * dt, m)
            times = _chain(np.add, t, dt, m)
            seen = gaps[:-1] * cfg.depth_ratio
            if noise is not None:
                seen += noise[done:]
        np.fmax(seen, 0.0, out=seen)  # NaN floors to 0.0, as in max(0.0, nan)

        late = _first(times[:-1] >= cfg.max_sim_time_s)
        onset = m if braking else _first(seen <= threshold)
        end = _first((gaps[1:] <= 0) | (speeds[1:] == 0)) + 1
        n = min(late, onset, end)
        logged += n
        if logged > MAX_TICKS:
            raise ValueError(f"dt {dt!r} s: the run would log more than {MAX_TICKS} ticks")
        rows = np.empty(n, TICK_DTYPE)
        for name, column in zip(TICK_DTYPE.names, (times, gaps, seen, speeds)):
            rows[name] = column[:n]
        rows["accel_cmd_mps2"], rows["braking"] = accel, braking
        log.append(rows)
        if n == end:
            ticks = np.concatenate(log)
            if gaps[n] <= 0:
                return Outcome.collision(float(speeds[n])), ticks
            return Outcome.stopped(float(gaps[n])), ticks
        if n == late < m:
            return Outcome.timeout(), np.concatenate(log)
        braking = braking or n < m  # onset on tick n
        t, gap, speed = times[n], gaps[n], speeds[n]
        done += n


def ticks_to_csv(ticks: np.ndarray, cfg: ScenarioConfig, fh) -> None:
    """Write the tick log CSV (full precision) to the open text file ``fh``,
    one block of rows at a time; noisy runs record their seed in a leading
    comment so they can be replayed."""
    if cfg.noise_sigma_m > 0:
        fh.write(f"# seed={cfg.seed} sigma={cfg.noise_sigma_m!r}\n")
    fh.write("t,true_gap,perceived_gap,speed,accel,braking\n")
    for lo in range(0, len(ticks), _CSV_ROWS):
        rows = ticks[lo:lo + _CSV_ROWS]
        columns = [map(repr, rows[name].tolist()) for name in TICK_DTYPE.names[:-1]]
        columns.append(np.where(rows["braking"], "1\n", "0\n").tolist())
        fh.write("".join(map(",".join, zip(*columns))))


def outcome_summary(outcome: Outcome) -> str:
    """One-line machine-parseable outcome."""
    if outcome.kind is OutcomeKind.STOPPED:
        return f"STOPPED gap={outcome.final_gap_m:.6g}"
    if outcome.kind is OutcomeKind.COLLISION:
        return f"COLLISION speed={outcome.impact_speed_mps:.6g}"
    return "TIMEOUT"
