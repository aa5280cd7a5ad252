"""Experiment harnesses: every figure/table reproduces its expected shape.

These integration tests assert the *qualitative* claims of the paper hold
in the reproduction (who wins, in which direction the gaps grow), which is
the reproduction criterion set out in DESIGN.md.
"""

import numpy as np
import pytest

from repro.config import maeri_like, sigma_like, tpu_like
from repro.engine.accelerator import Accelerator
from repro.experiments import fig1, fig5, fig6, fig7, fig9, tablev
from repro.experiments.runner import format_table, geometric_mean, normalize
from repro.frontend.layers import Conv2d, Linear
from repro.frontend.simulated import simulate


class TestFig1:
    def test_fig1a_systolic_matches_analytical(self):
        rows = fig1.run_fig1a()
        diffs = [abs(r["diff_pct"]) for r in rows]
        assert np.mean(diffs) < 5.0  # paper: near-identical

    def test_fig1b_gap_grows_as_bandwidth_shrinks(self):
        rows = fig1.run_fig1b()
        means = {
            bw: np.mean([r["st_over_am"] for r in rows if r["bandwidth"] == bw])
            for bw in fig1.MAERI_BANDWIDTHS
        }
        assert means[128] < 1.10  # full bandwidth: AM is accurate
        assert means[64] > means[128]
        assert means[32] > means[64]
        worst = max(r["st_over_am"] for r in rows if r["bandwidth"] == 32)
        assert worst > 2.0  # the paper reports up to ~4x (M-FC)

    def test_fig1b_worst_layer_is_low_reuse(self):
        rows = [r for r in fig1.run_fig1b() if r["bandwidth"] == 32]
        worst = max(rows, key=lambda r: r["st_over_am"])
        assert worst["layer"] in ("M-FC", "M-L", "R-L", "B-L", "B-TR")

    def test_fig1c_divergence_grows_with_sparsity(self):
        rows = fig1.run_fig1c()
        mean_at = {
            sp: np.mean([r["st_over_am"] for r in rows if r["sparsity"] == sp])
            for sp in (0.0, 0.9)
        }
        assert mean_at[0.0] < 1.10  # dense: the models agree
        assert mean_at[0.9] > mean_at[0.0]
        worst = max(r["st_over_am"] for r in rows if r["sparsity"] == 0.9)
        assert worst > 1.5  # paper: diverges up to ~1.92x


class TestTableV:
    def test_all_eleven_rows_run(self):
        rows = tablev.run_tablev()
        assert len(rows) == 11

    def test_tpu_rows_match_rtl_exactly(self):
        rows = [r for r in tablev.run_tablev() if r["design"] == "TPU"]
        assert all(r["error_vs_rtl_pct"] == 0.0 for r in rows)

    def test_sigma_rows_close(self):
        rows = [r for r in tablev.run_tablev() if r["design"] == "SIGMA"]
        assert np.mean([r["error_vs_rtl_pct"] for r in rows]) < 8.0

    def test_overall_error_within_documented_band(self):
        rows = tablev.run_tablev()
        avg = np.mean([r["error_vs_rtl_pct"] for r in rows])
        assert avg < 12.0  # documented in EXPERIMENTS.md

    def test_direct_rows_equal_the_full_stack(self):
        """Each row's one timing call gives the cycles of the same layer
        run as a ``Conv2d`` / ``Linear`` model through ``simulate``."""
        direct = {r["layer"]: r["repro_cycles"] for r in tablev.run_tablev()}
        for case in tablev.VALIDATION_CASES:
            rng = np.random.default_rng(3)
            tiles = None
            if case.design == "MAERI":
                layer = tablev._maeri_layer(case)
                model = Conv2d(layer.c, layer.k, 3, bias=False,
                               name=case.name, rng=rng)
                x = rng.standard_normal((1, layer.c, layer.x, layer.y))
                config = maeri_like(num_ms=32, bandwidth=4)
                tiles = {case.name: tablev.MAERI_TILE}
            else:
                model = Linear(case.k, case.m, bias=False, name=case.name,
                               rng=rng)
                x = rng.standard_normal((case.n, case.k))
                config = (sigma_like(num_ms=128, bandwidth=128)
                          if case.design == "SIGMA" else tpu_like(num_pes=256))
            acc = Accelerator(config)
            simulate(model, acc, tiles=tiles)
            model(x.astype(np.float32))
            assert len(acc.report.layers) == 1, case.name
            assert acc.report.total_cycles == direct[case.name], case.name


class TestFig5:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig5.run_fig5()

    def test_maeri_beats_tpu_on_every_model(self, rows):
        summary = fig5.summarize_speedups(rows)
        assert summary["min_maeri_speedup_over_tpu"] > 1.0
        assert summary["avg_maeri_speedup_over_tpu"] > 1.15

    def test_mobilenets_is_maeri_best_case(self, rows):
        by_model = {}
        for r in rows:
            by_model.setdefault(r["model"], {})[r["arch"]] = r["cycles"]
        speedups = {m: v["tpu"] / v["maeri"] for m, v in by_model.items()}
        assert max(speedups, key=speedups.get) == "mobilenets"

    def test_sigma_beats_maeri_via_sparsity(self, rows):
        summary = fig5.summarize_speedups(rows)
        assert summary["avg_sigma_speedup_over_maeri"] > 1.5

    def test_rn_dominates_energy(self, rows):
        for arch, floor in (("tpu", 0.5), ("maeri", 0.4)):
            shares = [r["energy_rn_share"] for r in rows if r["arch"] == arch]
            assert np.mean(shares) > floor

    def test_rn_share_ordering_matches_paper(self, rows):
        shares = {
            arch: np.mean([r["energy_rn_share"] for r in rows if r["arch"] == arch])
            for arch in ("tpu", "maeri", "sigma")
        }
        assert shares["tpu"] > shares["maeri"] > shares["sigma"]

    def test_sigma_most_energy_efficient(self, rows):
        by_model = {}
        for r in rows:
            by_model.setdefault(r["model"], {})[r["arch"]] = r["energy_total_uj"]
        ratios = [v["sigma"] / v["tpu"] for v in by_model.values()]
        assert np.mean(ratios) < 0.75

    def test_area_shape(self):
        rows = {r["arch"]: r for r in fig5.run_fig5c()}
        assert rows["tpu"]["total_um2"] < rows["sigma"]["total_um2"]
        assert rows["sigma"]["total_um2"] < rows["maeri"]["total_um2"]
        for r in rows.values():
            assert 0.6 < r["area_gb_share"] < 0.9


class TestFig6:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig6.run_fig6(num_images=2)

    def test_snapea_wins_on_all_four_metrics(self, rows):
        for r in rows:
            assert r["speedup"] > 1.0, r["model"]
            assert r["normalized_energy"] < 1.0, r["model"]
            assert 0 < r["ops_reduction"] < 1, r["model"]
            assert 0 < r["mem_reduction"] < 1, r["model"]

    def test_gains_same_order_of_magnitude_as_paper(self, rows):
        # paper: ~35 % speedup, ~30 % op cut; we document ~10-30 %
        speedups = [r["speedup"] for r in rows]
        assert 1.05 < np.mean(speedups) < 1.8

    def test_all_four_cnns_present(self, rows):
        assert {r["model"] for r in rows} == {
            "alexnet", "squeezenet", "vgg16", "resnet50",
        }


class TestFig7:
    def test_alexnet_and_bert_map_fewest_filters(self):
        rows = {r["model"]: r["avg_filters_mappable"] for r in fig7.run_fig7a()}
        ranked = sorted(rows, key=rows.get)
        assert set(ranked[:2]) == {"alexnet", "bert"}

    def test_filter_sizes_vary_within_first_layer(self):
        sizes = fig7.run_fig7b()
        for model, values in sizes.items():
            assert len(values) > 1
            assert max(values) > min(values), model


class TestFig9:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig9.run_fig9()

    def test_lff_helps_rdm_does_not(self, rows):
        lff = [r["normalized_runtime"] for r in rows if r["policy"] == "LFF"]
        rdm = [r["normalized_runtime"] for r in rows if r["policy"] == "RDM"]
        assert np.mean(lff) < 0.97  # paper: ~7 % average gain
        assert abs(np.mean(rdm) - 1.0) < 0.03  # paper: RDM is no better than NS

    def test_energy_gains_small(self, rows):
        lff = [r["normalized_energy"] for r in rows if r["policy"] == "LFF"]
        assert 0.9 < np.mean(lff) < 1.0

    def test_fig9c_layer_sensitivity_spread(self):
        layers = fig9.run_fig9c()
        runtimes = [r["normalized_runtime"] for r in layers]
        assert min(runtimes) < 0.95  # high-sensitivity layers exist
        assert max(runtimes) >= 0.999  # low-sensitivity layers exist


class TestRunnerHelpers:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}])
        assert "a" in text and "10" in text

    def test_ascii_bar_chart(self):
        from repro.experiments.runner import ascii_bar_chart

        chart = ascii_bar_chart(["tpu", "maeri"], [100, 50], width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5
        assert "100" in lines[0] and "50" in lines[1]

    def test_ascii_bar_chart_validation(self):
        from repro.experiments.runner import ascii_bar_chart

        assert ascii_bar_chart([], []) == "(no data)"
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [1, 2])
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [0.0])

    def test_format_empty(self):
        assert format_table([]) == "(no rows)"

    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([1, -1])

    def test_normalize(self):
        assert normalize([2, 4], 2) == [1.0, 2.0]
        with pytest.raises(ValueError):
            normalize([1], 0)
