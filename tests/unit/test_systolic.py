"""Output-stationary systolic engine: functional and timing correctness."""

import numpy as np
import pytest

from repro.config import EngineMode, tpu_like
from repro.engine.accelerator import Accelerator
from repro.engine.systolic import PIPE_OVERHEAD
from repro.errors import ConfigurationError, MappingError


def _engine(num_pes=16):
    return Accelerator(tpu_like(num_pes=num_pes)).systolic


class TestCycleByCycle:
    def test_matches_matmul(self, rng):
        engine = _engine(16)
        a = rng.standard_normal((4, 7)).astype(np.float32)
        b = rng.standard_normal((7, 3)).astype(np.float32)
        out, cycles = engine.simulate_tile_cycle_by_cycle(a, b)
        assert np.allclose(out, a @ b, atol=1e-4)
        assert cycles == engine.tile_cycles(4, 7, 3)

    def test_full_array(self, rng):
        engine = _engine(16)
        a = rng.standard_normal((4, 8)).astype(np.float32)
        b = rng.standard_normal((8, 4)).astype(np.float32)
        out, _ = engine.simulate_tile_cycle_by_cycle(a, b)
        assert np.allclose(out, a @ b, atol=1e-4)

    def test_rejects_oversized_tile(self, rng):
        engine = _engine(16)  # 4x4 array
        with pytest.raises(MappingError):
            engine.simulate_tile_cycle_by_cycle(
                rng.standard_normal((5, 3)), rng.standard_normal((3, 2))
            )


class TestTileCycles:
    def test_wavefront_formula(self):
        engine = _engine(256)
        assert engine.tile_cycles(16, 32, 16) == 32 + 16 + 16 - 2 + PIPE_OVERHEAD

    @pytest.mark.parametrize(
        "m, n, k, rtl",
        [(16, 16, 32, 66), (16, 16, 16, 50), (32, 32, 16, 200), (64, 64, 32, 1056)],
    )
    def test_table_v_tpu_rows_exact(self, m, n, k, rtl, rng):
        """The four TPU validation rows of Table V reproduce exactly."""
        engine = _engine(256)  # 16x16 array
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        _, result = engine.run_gemm(a, b)
        assert result.cycles == rtl

    def test_rejects_bad_tile(self):
        with pytest.raises(MappingError):
            _engine(16).tile_cycles(5, 3, 2)
        with pytest.raises(MappingError):
            _engine(16).tile_cycles(2, 0, 2)


class TestRunGemm:
    def test_functional(self, rng):
        engine = _engine(16)
        a = rng.standard_normal((10, 20)).astype(np.float32)
        b = rng.standard_normal((20, 6)).astype(np.float32)
        out, result = engine.run_gemm(a, b)
        assert np.allclose(out, a @ b, atol=1e-3)
        assert result.macs == 10 * 20 * 6
        assert result.outputs == 60

    def test_tiling(self, rng):
        engine = _engine(16)  # 4x4
        a = rng.standard_normal((9, 5)).astype(np.float32)
        b = rng.standard_normal((5, 9)).astype(np.float32)
        _, result = engine.run_gemm(a, b)
        assert result.tiles == 3 * 3

    def test_utilization_bounded(self, rng):
        engine = _engine(16)
        _, result = engine.run_gemm(
            rng.standard_normal((8, 32)).astype(np.float32),
            rng.standard_normal((32, 8)).astype(np.float32),
        )
        assert 0 < result.multiplier_utilization <= 1

    def test_narrow_gemm_wastes_the_array(self, rng):
        engine = _engine(256)
        a = rng.standard_normal((256, 64)).astype(np.float32)
        wide = rng.standard_normal((64, 16)).astype(np.float32)
        narrow = rng.standard_normal((64, 1)).astype(np.float32)
        _, wide_result = engine.run_gemm(a, wide)
        _, narrow_result = engine.run_gemm(a, narrow)
        assert (
            narrow_result.multiplier_utilization
            < wide_result.multiplier_utilization
        )

    def test_activity_counters(self, rng):
        engine = _engine(16)
        engine.run_gemm(
            rng.standard_normal((4, 8)).astype(np.float32),
            rng.standard_normal((8, 4)).astype(np.float32),
        )
        assert engine.counters["mn_multiplications"] == 4 * 8 * 4
        assert engine.counters["rn_accumulator_ops"] == 4 * 8 * 4
        assert engine.gb.counters["gb_writes"] == 16

    def test_incompatible_operands(self, rng):
        with pytest.raises(ConfigurationError):
            _engine(16).run_gemm(
                rng.standard_normal((4, 8)), rng.standard_normal((7, 4))
            )


class TestTimeGemm:
    @pytest.mark.parametrize("mode", ["cycle", "vector"])
    @pytest.mark.parametrize(
        "args, offender",
        [
            ((0, 8, 4), "got m=0,"),
            ((4, -3, 4), "k=-3,"),
            ((4, 8, 0), "n=0,"),
            ((4, 8, 4, 0, 0), "repeats=0"),
            # non-integers: float cycles in the payload under the aggregate,
            # a bare TypeError from range() under the walk, if let through
            ((8.0, 3, 5), "m must be an integer, got m=8.0"),
            ((8, np.float32(8), 5), "k must be an integer"),
            ((8, 3, 5.5), "n must be an integer, got n=5.5"),
            ((8, 3, 5, "8"), "start must be an integer, got start='8'"),
            ((8, 3, 5, 0, 2.0), "repeats must be an integer"),
        ],
    )
    def test_rejects_non_positive_before_touching_counters(
        self, mode, args, offender
    ):
        acc = Accelerator(
            tpu_like(num_pes=16).with_updates(engine_mode=EngineMode(mode))
        )
        acc.systolic.time_gemm(3, 5, 2)  # a non-empty counter file
        before = [c.counters.as_dict() for c in acc.components]
        clock = acc.systolic.current_cycle
        with pytest.raises(ConfigurationError, match=offender):
            acc.systolic.time_gemm(*args)
        assert [c.counters.as_dict() for c in acc.components] == before
        assert acc.systolic.current_cycle == clock

    def test_numpy_integers_stay_accepted(self):
        plain = _engine(16).time_gemm(8, 3, 5, 2, 2)
        numpy = _engine(16).time_gemm(
            np.int64(8), np.int32(3), np.uint8(5), np.int64(2), np.int16(2)
        )
        assert numpy == plain
        assert type(numpy.cycles) is int and type(numpy.macs) is int

    def test_run_gemm_rejects_empty_operands_alike(self):
        engine = _engine(16)
        with pytest.raises(ConfigurationError, match="k=0,"):
            engine.run_gemm(np.zeros((4, 0)), np.zeros((0, 4)))
        assert engine.counters.as_dict() == {}
