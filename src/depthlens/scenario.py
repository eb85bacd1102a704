"""Closed-loop braking sandbox: how a corrupted depth reading plays out.

One ego vehicle approaches a stationary leader in 1-D. ``run_scenario`` is
one loop, and each tick applies three rules in order:

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
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import check_finite, check_positive


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
        if self.dt_s > 0.05:
            raise ValueError(f"dt must be <= 0.05 s, got {self.dt_s}")


class TickLog(NamedTuple):
    time_s: float
    true_gap_m: float
    perceived_gap_m: float
    speed_mps: float
    accel_cmd_mps2: float
    braking: bool


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


def run_scenario(cfg: ScenarioConfig) -> tuple[Outcome, list[TickLog]]:
    """Tick perceive -> brake -> integrate until collision, stop or timeout.

    Gap, speed and dt are positive on every tick: ``ScenarioConfig`` makes
    them so at the start, and the run ends once the gap or speed reaches 0.
    """
    rng = np.random.default_rng(cfg.seed) if cfg.noise_sigma_m > 0 else None
    speed = cfg.ego_speed_mps
    gap = cfg.initial_gap_m
    braking = False
    t = 0.0
    ticks: list[TickLog] = []

    while t < cfg.max_sim_time_s:
        noise = float(rng.normal(0.0, cfg.noise_sigma_m)) if rng is not None else 0.0
        seen = max(0.0, gap * cfg.depth_ratio + noise)
        braking = braking or (
            seen <= speed ** 2 / (2.0 * cfg.max_decel_mps2) + cfg.safety_margin_m)
        accel = -cfg.max_decel_mps2 if braking else 0.0
        ticks.append(TickLog(t, gap, seen, speed, accel, braking))
        speed = max(0.0, speed + accel * cfg.dt_s)
        gap -= speed * cfg.dt_s
        t += cfg.dt_s
        if gap <= 0:
            return Outcome.collision(speed), ticks
        if speed == 0:
            return Outcome.stopped(gap), ticks
    return Outcome.timeout(), ticks


def ticks_to_csv(ticks: list[TickLog], cfg: ScenarioConfig) -> str:
    """Tick log CSV (full precision); noisy runs record their seed in a
    leading comment so they can be replayed."""
    out = io.StringIO()
    if cfg.noise_sigma_m > 0:
        out.write(f"# seed={cfg.seed} sigma={cfg.noise_sigma_m!r}\n")
    out.write("t,true_gap,perceived_gap,speed,accel,braking\n")
    out.writelines("%r,%r,%r,%r,%r,%d\n" % tick for tick in ticks)
    return out.getvalue()


def outcome_summary(outcome: Outcome) -> str:
    """One-line machine-parseable outcome."""
    if outcome.kind is OutcomeKind.STOPPED:
        return f"STOPPED gap={outcome.final_gap_m:.6g}"
    if outcome.kind is OutcomeKind.COLLISION:
        return f"COLLISION speed={outcome.impact_speed_mps:.6g}"
    return "TIMEOUT"
