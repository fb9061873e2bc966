"""Tests for the Table I grid runner and text reporting (tiny scale)."""

import pytest

from repro.experiments import table1
from repro.experiments.reporting import fmt, render_table, render_table1
from repro.experiments.runner import MethodSpec
from repro.experiments.table1 import DEFAULT_METHODS, DegenerateRowError, run_table1


@pytest.fixture(scope="module")
def tiny_rows():
    """A 1-workload, 3-method micro-grid: enough to exercise all columns."""
    return run_table1(
        workloads=("resnet_cifar10",),
        methods=(
            MethodSpec("bsp", label="BSP"),
            MethodSpec("selsync", {"delta": 0.3}, label="SelSync d=0.3"),
            MethodSpec("ssp", {"staleness": 5}, label="SSP s=5"),
        ),
        n_workers=2,
        n_steps=40,
        eval_every=20,
        patience=None,
        data_scale=0.1,
    )


class TestTable1Grid:
    def test_row_count(self, tiny_rows):
        assert len(tiny_rows) == 3

    def test_bsp_row_is_reference(self, tiny_rows):
        bsp = next(r for r in tiny_rows if r.method == "BSP")
        assert bsp.lssr == 0.0
        assert bsp.speedup == 1.0
        assert bsp.conv_diff == 0.0

    def test_selsync_row_has_lssr(self, tiny_rows):
        sel = next(r for r in tiny_rows if "SelSync" in r.method)
        assert 0.0 <= sel.lssr <= 1.0
        assert sel.metric is not None

    def test_ssp_row_has_no_lssr(self, tiny_rows):
        """Paper: LSSR does not apply to SSP."""
        ssp = next(r for r in tiny_rows if "SSP" in r.method)
        assert ssp.lssr is None

    def test_all_rows_have_iterations(self, tiny_rows):
        assert all(r.iterations > 0 for r in tiny_rows)


class TestReporting:
    def test_fmt(self):
        assert fmt(None) == "-"
        assert fmt(True) == "True"
        assert fmt(0.123456) == "0.123"
        assert fmt(1e7) == "1.00e+07"
        assert fmt(float("nan")) == "-"
        assert fmt("x") == "x"

    def test_render_table_aligns(self):
        out = render_table(["a", "bb"], [[1, 2], [30, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines[1:])

    def test_render_table_checks_width(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_render_table1(self, tiny_rows):
        text = render_table1(tiny_rows)
        assert "BSP" in text and "Speedup" in text


class TestDegenerateRows:
    """Table I's bench grid — resnet, N = 4, ``data_scale=0.25``, DefDP —
    gives each worker 3 steps per epoch. Both degenerate-row checks fire
    there; these tests build that configuration but do not run the grid."""

    BENCH = dict(workloads=("resnet_cifar10",), n_workers=4, data_scale=0.25)

    def test_fedavg_interval_of_one_is_refused_before_any_training_step(
        self, monkeypatch
    ):
        trained = []
        monkeypatch.setattr(table1, "run_method", lambda *a, **k: trained.append(a))
        fedavg = [m for m in DEFAULT_METHODS if m.kind == "fedavg"]
        with pytest.raises(DegenerateRowError) as err:
            run_table1(methods=DEFAULT_METHODS, n_steps=250, **self.BENCH)
        assert set(err.value.refused) == {("resnet_cifar10", m.display) for m in fedavg}
        assert "e_factor=0.25 x steps_per_epoch=3" in str(err.value)
        assert "e_factor=0.125 x steps_per_epoch=3" in str(err.value)
        assert not trained

    def test_ssp_rows_say_the_bound_never_binds(self):
        rows = run_table1(
            methods=(
                MethodSpec("bsp", label="BSP"),
                *(m for m in DEFAULT_METHODS if m.kind == "ssp"),
                MethodSpec("ssp", {"staleness": 0}, label="SSP s=0"),
            ),
            n_steps=12, eval_every=12, patience=None, **self.BENCH,
        )
        ssp = {r.method: r for r in rows if "SSP" in r.method}
        assert set(ssp) == {"SSP s=100", "SSP s=200", "SSP s=0"}
        for label in ("SSP s=100", "SSP s=200"):
            # Jitter alone never puts a worker more than a step or two ahead.
            assert ssp[label].max_staleness <= 2
            assert ssp[label].note == "bound never binds"
        assert ssp["SSP s=0"].max_staleness >= 1 and ssp["SSP s=0"].note == ""
        text = render_table1(rows)
        assert text.count("bound never binds") == 2
