"""Closed-loop braking: controller pieces and the outcome dichotomy."""

import math

import pytest
from hypothesis import event, given, settings, strategies as st

from depthlens.scenario import (Outcome, OutcomeKind, ScenarioConfig, controller,
                                outcome_summary, perceive, run_scenario, step,
                                ticks_to_csv)

from oracles import reference_run_scenario


def config(**overrides):
    base = dict(initial_gap_m=40.0, ego_speed_mps=10.0, max_decel_mps2=6.0,
                safety_margin_m=2.0, depth_ratio=1.0, dt_s=0.01)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestPerceive:
    def test_scaling(self):
        assert perceive(10.0, 1.5) == 15.0
        assert perceive(10.0, 1.0) == 10.0
        assert perceive(10.0, 0.68) == pytest.approx(6.8)

    def test_noise_floor(self):
        assert perceive(1.0, 1.0, noise_sample_m=-5.0) == 0.0

    def test_positive_gap_required(self):
        with pytest.raises(ValueError):
            perceive(0.0, 1.0)


class TestController:
    def test_above_threshold_coasts(self):
        cfg = config()
        assert controller(20.0, 10.0, cfg) == 0.0  # threshold 10.33

    def test_below_threshold_brakes(self):
        cfg = config()
        assert controller(10.0, 10.0, cfg) == -6.0

    def test_stopped_never_commands(self):
        cfg = config()
        assert controller(0.5, 0.0, cfg) == 0.0


class TestStep:
    def test_coasting(self):
        speed, gap = step(10.0, 30.0, 0.0, 0.1)
        assert speed == 10.0
        assert gap == pytest.approx(29.0)

    def test_speed_clamped_at_zero(self):
        speed, gap = step(0.3, 5.0, -6.0, 0.1)
        assert speed == 0.0
        assert gap == 5.0

    def test_braking_tick(self):
        speed, gap = step(10.0, 30.0, -6.0, 0.01)
        assert speed == pytest.approx(9.94)
        assert 30.0 - gap == pytest.approx(0.1, abs=0.01)

    def test_dt_positive(self):
        with pytest.raises(ValueError):
            step(1.0, 1.0, 0.0, 0.0)


class TestRunScenario:
    def test_benign_stops_with_margin(self):
        outcome, ticks = run_scenario(config(depth_ratio=1.0))
        assert outcome.kind is OutcomeKind.STOPPED
        assert outcome.final_gap_m == pytest.approx(2.0, abs=0.15)
        assert ticks[0].braking is False
        assert ticks[-1].braking is True

    def test_inflated_depth_collides(self):
        outcome, _ = run_scenario(config(depth_ratio=1.5))
        assert outcome.kind is OutcomeKind.COLLISION
        assert outcome.impact_speed_mps == pytest.approx(4.16, abs=0.1)

    def test_deflated_depth_stops_early(self):
        outcome, _ = run_scenario(config(depth_ratio=0.7))
        assert outcome.kind is OutcomeKind.STOPPED
        assert outcome.final_gap_m == pytest.approx(6.43, abs=0.15)

    def test_monotone_hazard(self):
        impacts = []
        for ratio in [1.0 + 0.1 * i for i in range(11)]:
            outcome, _ = run_scenario(config(depth_ratio=ratio))
            impacts.append(outcome.impact_speed_mps
                           if outcome.kind is OutcomeKind.COLLISION else 0.0)
        assert all(b >= a for a, b in zip(impacts, impacts[1:]))

    def test_energy_consistency(self):
        for ratio in (1.2, 1.5, 1.8, 2.5):
            cfg = config(depth_ratio=ratio)
            outcome, ticks = run_scenario(cfg)
            if outcome.kind is OutcomeKind.COLLISION:
                assert outcome.impact_speed_mps <= cfg.ego_speed_mps
            else:
                travelled = cfg.initial_gap_m - outcome.final_gap_m
                assert travelled <= cfg.initial_gap_m

    def test_deterministic_without_noise(self):
        a_out, a_ticks = run_scenario(config())
        b_out, b_ticks = run_scenario(config())
        assert a_out == b_out
        assert a_ticks == b_ticks

    def test_noise_reproducible_from_seed(self):
        cfg = config(noise_sigma_m=0.3, seed=1234)
        a_out, a_ticks = run_scenario(cfg)
        b_out, b_ticks = run_scenario(cfg)
        assert a_out == b_out and a_ticks == b_ticks
        other = run_scenario(config(noise_sigma_m=0.3, seed=1235))[1]
        assert other != a_ticks

    def test_timeout_when_never_braking(self):
        # huge gap, tiny horizon: the run ends before anything happens
        cfg = config(initial_gap_m=500.0, max_sim_time_s=1.0)
        outcome, ticks = run_scenario(cfg)
        assert outcome.kind is OutcomeKind.TIMEOUT
        assert len(ticks) == 100

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_reference_loop(self, data):
        """Equal outcome and equal ticks, field by field with ``==``, as the
        tick loop that consults the controller on every tick."""
        dt = data.draw(st.floats(1e-3, 0.05))
        noisy = data.draw(st.booleans())
        cfg = ScenarioConfig(
            initial_gap_m=data.draw(st.floats(0.05, 200.0)),
            ego_speed_mps=data.draw(st.floats(0.05, 40.0)),
            max_decel_mps2=data.draw(st.floats(0.5, 12.0)),
            safety_margin_m=data.draw(st.floats(0.01, 10.0)),
            depth_ratio=data.draw(st.floats(0.2, 3.0)),
            dt_s=dt,
            noise_sigma_m=data.draw(st.floats(0.01, 2.0)) if noisy else 0.0,
            max_sim_time_s=dt * data.draw(st.integers(1, 4999)),  # <= 5k ticks
            seed=data.draw(st.integers(0, 2 ** 32 - 1)))
        outcome, ticks = run_scenario(cfg)
        event(outcome.kind.value + (" noisy" if noisy else ""))
        assert len(ticks) <= 5000
        assert (outcome, ticks) == reference_run_scenario(cfg)

    def test_perceived_gap_logged_consistently(self):
        cfg = config(depth_ratio=1.5)
        _, ticks = run_scenario(cfg)
        for tick in ticks[:50]:
            assert tick.perceived_gap_m == pytest.approx(tick.true_gap_m * 1.5)


class TestIO:
    def test_csv_layout(self):
        cfg = config()
        outcome, ticks = run_scenario(cfg)
        text = ticks_to_csv(ticks, cfg)
        lines = text.strip().split("\n")
        assert lines[0] == "t,true_gap,perceived_gap,speed,accel,braking"
        assert len(lines) == len(ticks) + 1

    def test_csv_records_seed_for_noisy_runs(self):
        cfg = config(noise_sigma_m=0.2, seed=77)
        _, ticks = run_scenario(cfg)
        text = ticks_to_csv(ticks, cfg)
        assert text.startswith("# seed=77 ")

    def test_summaries(self):
        assert outcome_summary(Outcome.stopped(2.0)) == "STOPPED gap=2"
        assert outcome_summary(Outcome.collision(4.163)) == "COLLISION speed=4.163"
        assert outcome_summary(Outcome.timeout()) == "TIMEOUT"


class TestConfigValidation:
    def test_dt_ceiling(self):
        with pytest.raises(ValueError):
            config(dt_s=0.1)

    def test_positivity(self):
        with pytest.raises(ValueError):
            config(initial_gap_m=0.0)
        with pytest.raises(ValueError):
            config(depth_ratio=-1.0)

    def test_noise_sigma_nonnegative(self):
        with pytest.raises(ValueError):
            config(noise_sigma_m=-0.1)

    @pytest.mark.parametrize("field", ["initial_gap_m", "ego_speed_mps", "max_decel_mps2",
                                       "safety_margin_m", "depth_ratio", "dt_s",
                                       "noise_sigma_m", "max_sim_time_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            config(**{field: value})

    def test_unbounded_horizon_rejected(self):
        # with an infinite horizon this run would never end
        with pytest.raises(ValueError, match="finite"):
            config(max_sim_time_s=math.inf, initial_gap_m=1e9, ego_speed_mps=1e-9)
