"""Closed-loop braking: the tick rules and the outcome dichotomy."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from depthlens import scenario
from depthlens.scenario import (TICK_DTYPE, Outcome, OutcomeKind, ScenarioConfig,
                                outcome_summary, run_scenario, ticks_to_csv)

from oracles import reference_run_scenario, reference_ticks_to_csv

BLOCK = scenario._BLOCK
CSV_ROWS = scenario._CSV_ROWS


def csv_text(ticks, cfg):
    """What ``ticks_to_csv`` writes, as one string."""
    out = io.StringIO()
    assert ticks_to_csv(ticks, cfg, out) is None
    return out.getvalue()


def config(**overrides):
    base = dict(initial_gap_m=40.0, ego_speed_mps=10.0, max_decel_mps2=6.0,
                safety_margin_m=2.0, depth_ratio=1.0, dt_s=0.01)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestRunScenario:
    def test_benign_stops_with_margin(self):
        outcome, ticks = run_scenario(config(depth_ratio=1.0))
        assert outcome.kind is OutcomeKind.STOPPED
        assert outcome.final_gap_m == pytest.approx(2.0, abs=0.15)
        braking = ticks["braking"].tolist()
        assert braking[0] is False
        assert braking[-1] is True

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
        assert a_ticks.tolist() == b_ticks.tolist()

    def test_noise_reproducible_from_seed(self):
        cfg = config(noise_sigma_m=0.3, seed=1234)
        a_out, a_ticks = run_scenario(cfg)
        b_out, b_ticks = run_scenario(cfg)
        assert a_out == b_out and a_ticks.tolist() == b_ticks.tolist()
        other = run_scenario(config(noise_sigma_m=0.3, seed=1235))[1]
        assert other.tolist() != a_ticks.tolist()

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
        assert (outcome, ticks.tolist()) == reference_run_scenario(cfg)

    def test_perceived_gap_floored_at_zero(self):
        cfg = config(initial_gap_m=1.0, noise_sigma_m=2.0, seed=3)
        outcome, ticks = run_scenario(cfg)
        assert min(ticks["perceived_gap_m"].tolist()) == 0.0
        ref_outcome, ref_ticks = reference_run_scenario(cfg)
        assert (outcome, ticks.tolist()) == (ref_outcome, ref_ticks)
        # == takes -0.0 for 0.0; the CSV bytes tell them apart
        assert csv_text(ticks, cfg) == reference_ticks_to_csv(ref_ticks, cfg)

    def test_threshold_is_inclusive(self):
        # Stopping distance 10 m plus margin 2 m equals the 12 m gap exactly.
        cfg = config(initial_gap_m=12.0, ego_speed_mps=10.0, max_decel_mps2=5.0,
                     safety_margin_m=2.0)
        outcome, ticks = run_scenario(cfg)
        first = dict(zip(TICK_DTYPE.names, ticks.tolist()[0]))
        assert first["perceived_gap_m"] == 12.0
        assert first["braking"] is True
        assert first["accel_cmd_mps2"] == -5.0
        assert (outcome, ticks.tolist()) == reference_run_scenario(cfg)

    def test_speed_clamped_at_zero(self):
        # One braking tick takes 0.6 m/s off 0.3 m/s: the car stops where it is.
        cfg = config(initial_gap_m=1.0, ego_speed_mps=0.3, max_decel_mps2=12.0,
                     dt_s=0.05)
        outcome, ticks = run_scenario(cfg)
        assert outcome == Outcome.stopped(1.0)
        assert len(ticks) == 1
        assert (outcome, ticks.tolist()) == reference_run_scenario(cfg)

    def test_gap_reaching_exactly_zero_is_a_collision(self):
        # 8 m/s for 1/32 s is exactly 0.25 m: the gap reads 0.5, 0.25, then 0.0.
        cfg = config(initial_gap_m=0.5, ego_speed_mps=8.0, max_decel_mps2=1000.0,
                     safety_margin_m=0.01, depth_ratio=3.0, dt_s=0.03125)
        outcome, ticks = run_scenario(cfg)
        assert outcome == Outcome.collision(8.0)
        assert len(ticks) == 2
        assert (outcome, ticks.tolist()) == reference_run_scenario(cfg)

    @pytest.mark.parametrize("speed", [1e200, 1.7e308])
    def test_a_speed_whose_square_overflows_brakes_at_once(self, speed):
        # an infinite stopping distance: the first tick brakes
        cfg = config(ego_speed_mps=speed)
        outcome, ticks = run_scenario(cfg)
        assert outcome == Outcome.collision(speed)
        assert ticks["braking"].tolist() == [True]
        assert (outcome, ticks.tolist()) == reference_run_scenario(cfg)

    def test_perceived_gap_logged_consistently(self):
        cfg = config(depth_ratio=1.5)
        _, ticks = run_scenario(cfg)
        for seen, true in zip(ticks["perceived_gap_m"][:50].tolist(),
                              ticks["true_gap_m"][:50].tolist()):
            assert seen == pytest.approx(true * 1.5)


class TestColumnarRun:
    """The two phases computed as arrays in blocks of ``BLOCK`` ticks give the
    tick loop's outcome, ticks and CSV bytes, wherever an event falls."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_csv_matches_reference_bytes(self, data):
        dt = data.draw(st.floats(1e-3, 0.05))
        noisy = data.draw(st.booleans())
        speed = data.draw(st.floats(0.05, 40.0))
        decel = data.draw(st.floats(0.5, 12.0))
        margin = data.draw(st.floats(0.01, 10.0))
        ratio = data.draw(st.floats(0.2, 3.0))
        # The gap that puts the onset near this tick, often at a block end.
        onset = max(0, data.draw(st.sampled_from([0, 1, 2])) * BLOCK + data.draw(
            st.one_of(st.integers(-2, 2), st.integers(0, BLOCK))))
        cfg = ScenarioConfig(
            initial_gap_m=(speed ** 2 / (2 * decel) + margin) / ratio + speed * dt * onset,
            ego_speed_mps=speed,
            max_decel_mps2=decel,
            safety_margin_m=margin,
            depth_ratio=ratio,
            dt_s=dt,
            noise_sigma_m=data.draw(st.floats(0.01, 2.0)) if noisy else 0.0,
            max_sim_time_s=dt * data.draw(st.one_of(st.integers(1, 4 * BLOCK),
                                                    st.just(4 * BLOCK))),
            seed=data.draw(st.integers(0, 2 ** 32 - 1)))
        outcome, ticks = run_scenario(cfg)
        ref_outcome, ref_ticks = reference_run_scenario(cfg)
        event(outcome.kind.value + (" noisy" if noisy else ""))
        event(f"{len(ticks) // BLOCK} full blocks")
        assert outcome == ref_outcome
        assert csv_text(ticks, cfg) == reference_ticks_to_csv(ref_ticks, cfg)

    @pytest.mark.parametrize("onset", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK])
    @pytest.mark.parametrize("noise_sigma_m", [0.0, 1e-3])
    @pytest.mark.parametrize("ratio, kind", [(1.0, OutcomeKind.STOPPED),
                                             (3.0, OutcomeKind.COLLISION)])
    def test_onset_around_a_block_end(self, onset, noise_sigma_m, ratio, kind):
        # 0.1 m per tick; the perceived gap crosses the 12 m threshold 0.05 m
        # (50 sigma) past the tick before the onset.
        cfg = config(initial_gap_m=12.0 / ratio + 0.1 * (onset - 1) + 0.05,
                     ego_speed_mps=10.0, max_decel_mps2=5.0, depth_ratio=ratio,
                     noise_sigma_m=noise_sigma_m, max_sim_time_s=100.0)
        outcome, ticks = run_scenario(cfg)
        ref_outcome, ref_ticks = reference_run_scenario(cfg)
        assert outcome.kind is kind
        assert int(ticks["braking"].argmax()) == onset
        assert (outcome, ticks.tolist()) == (ref_outcome, ref_ticks)
        assert csv_text(ticks, cfg) == reference_ticks_to_csv(ref_ticks, cfg)

    @pytest.mark.parametrize("n_ticks", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK])
    @pytest.mark.parametrize("noise_sigma_m", [0.0, 0.5])
    def test_timeout_around_a_block_end(self, n_ticks, noise_sigma_m):
        cfg = config(initial_gap_m=1e4, dt_s=0.01, noise_sigma_m=noise_sigma_m,
                     max_sim_time_s=0.01 * (n_ticks - 0.5))
        outcome, ticks = run_scenario(cfg)
        ref_outcome, ref_ticks = reference_run_scenario(cfg)
        assert outcome.kind is OutcomeKind.TIMEOUT
        assert len(ticks) == n_ticks
        assert (outcome, ticks.tolist()) == (ref_outcome, ref_ticks)
        assert csv_text(ticks, cfg) == reference_ticks_to_csv(ref_ticks, cfg)

    def test_memory_bounded_by_block_not_horizon(self):
        # The horizon allows 1e9 ticks and the gap 1e11 cruise ticks, but the
        # margin puts the onset on tick 0 and the car stops on it.
        cfg = config(initial_gap_m=1e6, ego_speed_mps=1e-3, safety_margin_m=1e7,
                     max_sim_time_s=1e7)
        tracemalloc.start()
        try:
            outcome, ticks = run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert len(ticks) == 1
        assert (outcome, ticks.tolist()) == reference_run_scenario(cfg)

    @pytest.mark.parametrize("seed", [0, 7, 12345, 2 ** 31 - 1])
    @pytest.mark.parametrize("a, b", [(1, 1), (0, 5), (1, BLOCK - 1), (BLOCK, BLOCK),
                                      (100, 3 * BLOCK + 7)])
    def test_block_draws_equal_scalar_draws(self, seed, a, b):
        # run_scenario draws noise a block at a time; the tick loop drew one
        # value per tick. Both must read the same stream, bit for bit.
        rng = np.random.default_rng(seed)
        blocks = np.concatenate([rng.normal(0.0, 0.5, size=a), rng.normal(0.0, 0.5, size=b)])
        rng = np.random.default_rng(seed)
        scalars = np.array([float(rng.normal(0.0, 0.5)) for _ in range(a + b)])
        assert blocks.view(np.uint64).tolist() == scalars.view(np.uint64).tolist()


class TestTickBound:
    """A run whose log would pass ``MAX_TICKS`` ticks raises instead: a dt
    too small to move the gap would run until memory ran out."""

    def test_a_dt_that_never_moves_the_gap_fails(self):
        # 40 - 10 * 1e-300 == 40: neither the gap nor the horizon is reached
        cfg = config(dt_s=1e-300)
        with pytest.raises(ValueError, match=rf"^dt 1e-300 s: .* {scenario.MAX_TICKS} ticks$"):
            run_scenario(cfg)

    @pytest.mark.parametrize("noise_sigma_m", [0.0, 0.5])
    def test_the_bound_counts_logged_ticks(self, monkeypatch, noise_sigma_m):
        # a timeout run logs n ticks; the bound falls past a block end
        monkeypatch.setattr(scenario, "MAX_TICKS", BLOCK + 1)

        def run(n_ticks):
            return run_scenario(config(initial_gap_m=1e4, noise_sigma_m=noise_sigma_m,
                                       max_sim_time_s=0.01 * (n_ticks - 0.5)))
        for n_ticks in (BLOCK, BLOCK + 1):
            outcome, ticks = run(n_ticks)
            assert outcome.kind is OutcomeKind.TIMEOUT and len(ticks) == n_ticks
        with pytest.raises(ValueError, match=f"^dt 0.01 s: .* {BLOCK + 1} ticks$"):
            run(BLOCK + 2)


class TestIO:
    def test_csv_layout(self):
        cfg = config()
        outcome, ticks = run_scenario(cfg)
        text = csv_text(ticks, cfg)
        lines = text.strip().split("\n")
        assert lines[0] == "t,true_gap,perceived_gap,speed,accel,braking"
        assert len(lines) == len(ticks) + 1
        # Floats round-trip at full precision; the latch is written 0 or 1.
        for line, tick in zip(lines[1:], ticks.tolist()):
            *floats, braking = line.split(",")
            assert [float(x) for x in floats] == list(tick[:5])
            assert braking == str(int(tick[5]))
        assert {line[-1] for line in lines[1:]} == {"0", "1"}

    def test_csv_records_seed_for_noisy_runs(self):
        cfg = config(noise_sigma_m=0.2, seed=77)
        _, ticks = run_scenario(cfg)
        text = csv_text(ticks, cfg)
        assert text.startswith("# seed=77 ")

    @settings(max_examples=40, deadline=None)
    @given(n_ticks=st.sampled_from([n + d for n in (CSV_ROWS, BLOCK) for d in (-1, 0, 1)]),
           noisy=st.booleans(), dt=st.floats(1e-3, 0.05), sigma=st.floats(0.01, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bytes_equal_the_reference_around_each_block_end(self, n_ticks, noisy, dt,
                                                              sigma, seed):
        # a log that ends at, one before or one past a CSV block or a tick
        # block; the gap is too large for any onset, so the run times out
        cfg = config(initial_gap_m=1e4, dt_s=dt, noise_sigma_m=sigma if noisy else 0.0,
                     seed=seed, max_sim_time_s=dt * (n_ticks - 0.5))
        outcome, ticks = run_scenario(cfg)
        ref_outcome, ref_ticks = reference_run_scenario(cfg)
        event(f"{n_ticks} ticks" + (" noisy" if noisy else ""))
        assert outcome.kind is OutcomeKind.TIMEOUT
        assert len(ticks) == n_ticks
        assert csv_text(ticks, cfg) == reference_ticks_to_csv(ref_ticks, cfg)

    def test_writing_a_long_log_holds_one_block_of_text(self, tmp_path):
        # 41k noisy ticks make 2.6 MiB of CSV; the writer holds one block
        cfg = config(initial_gap_m=1e4, dt_s=1e-3, noise_sigma_m=0.5, max_sim_time_s=41.0)
        _, ticks = run_scenario(cfg)
        assert len(ticks) >= 40_000
        path = tmp_path / "ticks.csv"
        tracemalloc.start()
        try:
            with open(path, "w", encoding="ascii") as fh:
                ticks_to_csv(ticks, cfg, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 19
        assert path.read_text(encoding="ascii") == csv_text(ticks, cfg)

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

    @pytest.mark.parametrize("noise_sigma_m", [0.0, 0.5])
    def test_negative_seed_named(self, noise_sigma_m):
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            config(noise_sigma_m=noise_sigma_m, seed=-1)

    def test_unbounded_horizon_rejected(self):
        # with an infinite horizon this run would never end
        with pytest.raises(ValueError, match="finite"):
            config(max_sim_time_s=math.inf, initial_gap_m=1e9, ego_speed_mps=1e-9)
