"""Figure drivers (cheap paths; timing figures run on small subsets)."""

import pytest

from repro.experiments import figures, runner
from repro.experiments.executor import Cell, SweepExecutor, simulate_cell
from repro.experiments.store import MemoryStore


class TestStaticFigures:
    def test_table1_render(self):
        out = figures.render_table1()
        assert "16KB, 32sets, 4-ways, Hash index" in out
        assert "177.4 GB/s" in out

    def test_table2_render(self):
        out = figures.render_table2()
        assert "Breadth-First Search" in out
        assert "Polybench" in out

    def test_overhead_render_shows_paper_percent(self):
        assert "7.48%" in figures.render_overhead()

    def test_fig2_reproduces_rd_3(self):
        data = figures.fig2_data()
        assert data["rds"] == [None, None, None, 3]
        assert "3" in figures.render_fig2()

    def test_fig6_sorted_by_ratio(self):
        data = figures.fig6_data()
        ratios = [c.mem_access_ratio for c in data]
        assert ratios == sorted(ratios)

    def test_fig6_render(self):
        assert "threshold" in figures.render_fig6()


class TestStreamFigures:
    def test_fig3_subset(self):
        data = figures.fig3_data(apps=("SC", "KM"), num_sms=2)
        assert set(data) == {"SC", "KM"}
        for fracs in data.values():
            assert sum(fracs) == pytest.approx(1.0)

    def test_fig3_sc_is_short_km_is_long(self):
        # the paper's Fig. 3 contrast: SC short-RD heavy, KM longer
        data = figures.fig3_data(apps=("SC", "KM"), num_sms=2)
        assert data["SC"][0] > data["KM"][0]

    def test_fig4_subset_monotone(self):
        data = figures.fig4_data(apps=("SS",), num_sms=2)
        rates = data["SS"]
        assert rates[16] >= rates[32] >= rates[64]

    def test_fig7_has_per_insn_rows(self):
        data = figures.fig7_data(num_sms=2)
        assert len(data) >= 5  # BFS has ~9 static memory instructions
        assert all(k.startswith("insn") for k in data)

    def test_render_fig3(self):
        out = figures.render_fig3(figures.fig3_data(apps=("SC",), num_sms=2))
        assert "RD 1~4" in out


class TestTimingFigures:
    @pytest.fixture(scope="class")
    def fig10_subset(self):
        return figures.fig10_data(apps=("SS",), num_sms=2)

    def test_fig10_normalized_to_baseline(self, fig10_subset):
        per_app, means, labels = fig10_subset
        assert per_app["SS"]["16KB(Baseline)"] == pytest.approx(1.0)
        assert labels[0] == "16KB(Baseline)"

    def test_fig10_gmeans_grouped(self, fig10_subset):
        _, means, _ = fig10_subset
        assert "CI" in means  # SS is a CI app
        assert "CS" not in means

    def test_fig11a_traffic_normalized(self):
        per_app, _, labels = figures.fig11a_data(apps=("SS",), num_sms=2)
        assert per_app["SS"]["16KB(Baseline)"] == pytest.approx(1.0)
        assert "32KB" not in labels

    def test_render_policy_figure(self, fig10_subset):
        out = figures.render_policy_figure(fig10_subset, "Fig. 10")
        assert out.startswith("Fig. 10")
        assert "G.MEAN CI" in out


class TestOneBatchPerFigure:
    """Each timing figure hands its whole grid to the executor at once,
    so a ``jobs >= 2`` executor can fan its cold cells out."""

    @pytest.fixture(scope="class")
    def payload(self):
        return simulate_cell(Cell.make("MM", "baseline", num_sms=1, scale=0.1))

    @pytest.mark.parametrize("driver,cells", [
        (figures.fig5_data, 9),
        (figures.fig10_data, 15),
        (figures.fig12a_data, 12),
    ])
    def test_grid_is_one_batch(self, monkeypatch, payload, driver, cells):
        executor = SweepExecutor(MemoryStore(), jobs=4)
        batches = []

        def spy(pending):
            batches.append(len(pending))
            return [(key, payload) for key in pending]

        monkeypatch.setattr(executor, "_simulate_all", spy)
        previous = runner.set_executor(executor)
        try:
            data = driver(apps=("MM", "HS", "BT"), num_sms=1)
        finally:
            runner.set_executor(previous)
        assert batches == [cells]
        per_app = data if driver is figures.fig5_data else data[0]
        assert list(per_app) == ["MM", "HS", "BT"]
