"""Closed-loop braking sandbox: how a corrupted depth reading plays out.

One ego vehicle approaches a stationary leader in 1-D. Each tick it
perceives the gap through the attack (true gap times the optics depth
ratio, plus optional noise), decides whether to brake, and integrates its
kinematics. A depth ratio above one makes the obstacle look farther than it
is, so braking starts late and the run ends in a collision; a ratio below
one triggers a premature stop. Ratio one is the benign baseline.

The controller is a deliberately simple threshold brake: slam maximum
deceleration once the perceived gap falls inside the stopping distance plus
a safety margin, and stay latched (no limit-cycle chatter at the threshold
under noise). Integration is semi-implicit: velocity updates first, the gap
then advances with the new velocity. The collision check runs after the gap
update each tick. Runs with zero noise are bit-reproducible; noisy runs are
reproducible from the recorded seed.
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


def perceive(true_gap_m: float, depth_ratio: float, noise_sample_m: float = 0.0) -> float:
    """Corrupted gap reading: true gap scaled by the depth ratio plus noise,
    floored at zero."""
    if true_gap_m <= 0:
        raise ValueError("true gap must be positive")
    return max(0.0, true_gap_m * depth_ratio + noise_sample_m)


def controller(perceived_gap_m: float, speed_mps: float,
               cfg: ScenarioConfig) -> float:
    """Threshold brake: full deceleration once the perceived gap is inside
    stopping distance plus margin; zero command when already stopped."""
    if speed_mps <= 0:
        return 0.0
    stopping_distance = speed_mps ** 2 / (2.0 * cfg.max_decel_mps2)
    if perceived_gap_m <= stopping_distance + cfg.safety_margin_m:
        return -cfg.max_decel_mps2
    return 0.0


def step(speed_mps: float, gap_m: float, accel_mps2: float,
         dt_s: float) -> tuple[float, float]:
    """Semi-implicit tick: speed first (clamped at 0), gap with the new speed."""
    if dt_s <= 0:
        raise ValueError("dt must be positive")
    new_speed = max(0.0, speed_mps + accel_mps2 * dt_s)
    new_gap = gap_m - new_speed * dt_s
    return new_speed, new_gap


def run_scenario(cfg: ScenarioConfig) -> tuple[Outcome, list[TickLog]]:
    """Tick perceive -> control -> integrate until collision, stop or timeout."""
    rng = np.random.default_rng(cfg.seed) if cfg.noise_sigma_m > 0 else None
    speed = cfg.ego_speed_mps
    gap = cfg.initial_gap_m
    braking = False
    t = 0.0
    ticks: list[TickLog] = []

    while t < cfg.max_sim_time_s:
        noise = float(rng.normal(0.0, cfg.noise_sigma_m)) if rng is not None else 0.0
        seen = perceive(gap, cfg.depth_ratio, noise)
        # The latch holds until the run ends: speed > 0 on every tick.
        braking = braking or controller(seen, speed, cfg) < 0
        accel = -cfg.max_decel_mps2 if braking else 0.0
        ticks.append(TickLog(t, gap, seen, speed, accel, braking))
        speed, gap = step(speed, gap, accel, cfg.dt_s)
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
