"""Systolic-array generator tests."""

import pytest

from repro.accelgen import SystolicConfig, generate_systolic


@pytest.fixture(scope="module")
def systolic():
    cfg = SystolicConfig(
        name="sys4x3", rows=4, cols=3, max_chain=4, n_lut=600, n_ff=800, n_lutram=40, n_bram=8
    )
    return cfg, generate_systolic(cfg)


class TestSystolicStructure:
    def test_validates(self, systolic):
        _, nl = systolic
        nl.validate()

    def test_dsp_count(self, systolic):
        cfg, nl = systolic
        assert nl.stats().n_dsp == cfg.total_dsps

    def test_resource_totals(self, systolic):
        cfg, nl = systolic
        st = nl.stats()
        assert st.n_lut == cfg.n_lut
        assert st.n_ff == cfg.n_ff
        assert st.n_lutram == cfg.n_lutram
        assert st.n_bram == cfg.n_bram

    def test_column_cascades(self, systolic):
        cfg, nl = systolic
        # rows=4, max_chain=4: one macro per column
        pe_macros = [m for m in nl.macros if nl.cells[m.dsps[0]].attrs.get("role") == "pe_dsp"]
        assert len(pe_macros) == cfg.cols
        for m in pe_macros:
            assert len(m) == cfg.rows

    def test_long_columns_segmented(self):
        cfg = SystolicConfig(name="tall", rows=10, cols=2, max_chain=4,
                             n_lut=400, n_ff=600, n_lutram=30, n_bram=8)
        nl = generate_systolic(cfg)
        pe_macros = [m for m in nl.macros if nl.cells[m.dsps[0]].attrs.get("role") == "pe_dsp"]
        assert all(len(m) <= 4 for m in pe_macros)
        assert sum(len(m) for m in pe_macros) == 10 * 2

    def test_labels(self, systolic):
        _, nl = systolic
        roles = {c.attrs.get("role") for c in nl.cells if c.ctype.is_dsp}
        assert "pe_dsp" in roles and "ctrl_dsp" in roles
        for c in nl.cells:
            if c.ctype.is_dsp:
                assert c.is_datapath is (c.attrs["role"] == "pe_dsp")

    def test_bad_config(self):
        with pytest.raises(ValueError):
            SystolicConfig(name="x", rows=1, cols=1)
        with pytest.raises(ValueError):
            SystolicConfig(name="x", rows=4, cols=4, max_chain=1)


class TestSystolicFlow:
    def test_dsplacer_places_it(self, systolic, small_dev):
        from repro.core import DSPlacer, DSPlacerConfig

        _, nl = systolic
        res = DSPlacer(
            small_dev, DSPlacerConfig(identification="oracle", mcf_iterations=4)
        ).place(nl)
        assert res.placement.is_legal()

    def test_timing_analyzable(self, systolic, small_dev):
        from repro.placers import VivadoLikePlacer
        from repro.timing import StaticTimingAnalyzer

        _, nl = systolic
        p = VivadoLikePlacer(seed=0, device=small_dev).place(nl)
        sta = StaticTimingAnalyzer(nl)
        assert not sta.has_comb_cycles
        rep = sta.analyze(p)
        assert rep.n_endpoints > 50
