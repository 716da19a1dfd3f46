"""Unit tests for the CNN-accelerator benchmark generator."""

import pytest

from repro.accelgen import AcceleratorConfig, SUITE_NAMES, generate_accelerator, generate_suite, suite_config
from repro.accelgen.generator import _chain_plan
from repro.netlist import CellType


@pytest.fixture(scope="module")
def small_cfg():
    return AcceleratorConfig(
        name="t",
        total_dsps=40,
        chain_len=4,
        pes_per_pu=3,
        n_lut=800,
        n_lutram=60,
        n_ff=900,
        n_bram=16,
        freq_mhz=100.0,
        control_dsp_frac=0.1,
    )


@pytest.fixture(scope="module")
def small_nl(small_cfg):
    return generate_accelerator(small_cfg)


class TestConfig:
    def test_control_datapath_split(self, small_cfg):
        assert small_cfg.n_control_dsps == 4
        assert small_cfg.n_datapath_dsps == 36

    def test_scaled_preserves_microarch(self, small_cfg):
        s = small_cfg.scaled(0.5)
        assert s.chain_len == small_cfg.chain_len
        assert s.pes_per_pu == small_cfg.pes_per_pu
        assert s.total_dsps == 20

    def test_scaled_identity(self, small_cfg):
        assert small_cfg.scaled(1.0) is small_cfg

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            AcceleratorConfig("x", 1, 4, 2, 100, 10, 100, 4, 100.0)
        with pytest.raises(ValueError):
            AcceleratorConfig("x", 40, 1, 2, 100, 10, 100, 4, 100.0)
        with pytest.raises(ValueError):
            AcceleratorConfig("x", 40, 4, 2, 100, 10, 100, 4, 100.0, control_dsp_frac=0.7)


class TestChainPlan:
    def test_budget_exact(self, small_cfg):
        chains, n_pp = _chain_plan(small_cfg)
        assert sum(chains) + n_pp == small_cfg.n_datapath_dsps

    def test_chain_lengths(self, small_cfg):
        chains, _ = _chain_plan(small_cfg)
        assert all(2 <= c <= small_cfg.chain_len + 1 for c in chains)

    def test_budget_smaller_than_one_chain(self):
        # datapath budget (4) below chain_len used to overflow into an extra
        # DSP: the plan forced a full-length chain instead of truncating it
        cfg = AcceleratorConfig(
            "t", total_dsps=6, chain_len=5, pes_per_pu=1, n_lut=400,
            n_lutram=40, n_ff=450, n_bram=10, freq_mhz=100.0,
            control_dsp_frac=0.25,
        )
        chains, n_pp = _chain_plan(cfg)
        assert sum(chains) + n_pp == cfg.n_datapath_dsps
        assert all(2 <= c <= cfg.chain_len + 1 for c in chains)
        nl = generate_accelerator(cfg)
        assert nl.stats().n_dsp == cfg.total_dsps


class TestGeneratedStructure:
    def test_resource_totals_exact(self, small_cfg, small_nl):
        st = small_nl.stats()
        assert st.n_lut == small_cfg.n_lut
        assert st.n_ff == small_cfg.n_ff
        assert st.n_lutram == small_cfg.n_lutram
        assert st.n_bram == small_cfg.n_bram
        assert st.n_dsp == small_cfg.total_dsps

    def test_validates(self, small_nl):
        small_nl.validate()

    def test_every_dsp_labeled(self, small_nl):
        for c in small_nl.cells:
            if c.ctype.is_dsp:
                assert c.is_datapath is not None

    def test_control_fraction(self, small_cfg, small_nl):
        n_ctrl = sum(
            1 for c in small_nl.cells if c.ctype.is_dsp and c.is_datapath is False
        )
        assert n_ctrl == small_cfg.n_control_dsps

    def test_pe_macros_exist(self, small_nl):
        pe_macros = [
            m
            for m in small_nl.macros
            if small_nl.cells[m.dsps[0]].attrs.get("role") == "pe_dsp"
        ]
        assert pe_macros
        for m in pe_macros:
            assert all(small_nl.cells[i].is_datapath for i in m.dsps)

    def test_single_ps(self, small_nl):
        assert len(small_nl.cells_of_type(CellType.PS)) == 1

    def test_ps_has_connections(self, small_nl):
        ps = small_nl.cells_of_type(CellType.PS)[0].index
        incident = small_nl.nets_of_cell()[ps]
        assert incident  # AXI in and out

    def test_deterministic_given_seed(self, small_cfg):
        a = generate_accelerator(small_cfg, seed=7)
        b = generate_accelerator(small_cfg, seed=7)
        assert [c.name for c in a.cells] == [c.name for c in b.cells]
        assert [n.sinks for n in a.nets] == [n.sinks for n in b.nets]

    def test_seed_changes_filler(self, small_cfg):
        a = generate_accelerator(small_cfg, seed=7)
        b = generate_accelerator(small_cfg, seed=8)
        assert [n.sinks for n in a.nets] != [n.sinks for n in b.nets]

    def test_pipeline_stage_chaining(self, small_nl):
        """Inter-PU datapath: some act buffer is written by an acc/pp DSP."""
        writers = set()
        for net in small_nl.nets:
            for s in net.sinks:
                if small_nl.cells[s].attrs.get("role") == "act_buf":
                    writers.add(small_nl.cells[net.driver].attrs.get("role"))
        assert writers & {"acc", "pp_dsp"}

    def test_device_pins_ps_location(self, small_dev):
        nl = generate_suite("ismartdnn", scale=0.02, device=small_dev)
        ps = nl.cells_of_type(CellType.PS)[0]
        assert ps.fixed_xy == small_dev.ps.ps_to_pl_xy


class TestSuites:
    def test_suite_names(self):
        assert len(SUITE_NAMES) == 5

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_suite_config_resolves(self, name):
        cfg = suite_config(name)
        assert cfg.total_dsps > 0

    def test_suite_alias_forms(self):
        assert suite_config("SkrSkr-1").name == "SkrSkr-1"
        assert suite_config("skrskr_1").name == "SkrSkr-1"

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            suite_config("resnet")

    def test_table1_dsp_counts(self):
        expect = {"ismartdnn": 197, "skynet": 346, "skrskr1": 642, "skrskr2": 1180, "skrskr3": 1431}
        for name, dsp in expect.items():
            assert suite_config(name).total_dsps == dsp

    def test_scaled_suite_generation(self):
        nl = generate_suite("skynet", scale=0.05)
        st = nl.stats()
        assert st.n_dsp == round(346 * 0.05)
