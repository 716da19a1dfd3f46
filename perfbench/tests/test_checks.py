"""The independent output check accepts a legal placement and rejects broken ones."""

from __future__ import annotations

import numpy as np

import checks


def _problems(p):
    return checks.legality_problems(p.netlist, p.device, p.xy, p.site)


def _move_dsp(p, cell: int, sid: int) -> None:
    p.site[cell] = sid
    p.xy[cell] = p.device.site_xy("DSP")[sid]


def test_legal_placement_passes(placed):
    assert placed.netlist.macros, "fixture needs a cascade macro"
    assert checks.check_placement(placed) == []


def test_two_dsps_on_one_site(placed):
    p = placed.copy()
    a, b = [c.index for c in p.netlist.cells if c.ctype.value == "DSP"][:2]
    _move_dsp(p, b, int(p.site[a]))
    assert any("DSP site" in msg and "holds 2" in msg for msg in _problems(p))


def test_split_cascade(placed):
    p = placed.copy()
    macro = p.netlist.macros[0]
    tail = macro.dsps[-1]
    dsp_sites = p.device.sites("DSP")
    col = dsp_sites[int(p.site[macro.dsps[0]])].col
    used = set(p.site[[c.index for c in p.netlist.cells if c.ctype.value == "DSP"]].tolist())
    free = next(s.sid for s in dsp_sites if s.col != col and s.sid not in used)
    _move_dsp(p, tail, free)
    problems = _problems(p)
    assert any(f"macro {macro.macro_id} is split" in msg for msg in problems)
    assert not any("holds" in msg for msg in problems)


def test_moved_fixed_cell(placed):
    p = placed.copy()
    fixed = next(c.index for c in p.netlist.cells if c.fixed_xy is not None)
    p.xy[fixed] += np.array([1.0, 0.0])
    assert any("fixed cell" in msg and "moved" in msg for msg in _problems(p))


def test_cell_off_its_site(placed):
    p = placed.copy()
    clb = next(c.index for c in p.netlist.cells if c.ctype.value == "LUT")
    p.xy[clb] += 0.5
    assert any(f"cell {clb} is off its CLB site" in msg for msg in _problems(p))


def test_hpwl_matches_placement(placed):
    assert abs(checks.hpwl(placed.netlist, placed.xy) - placed.hpwl()) <= 1e-9 * placed.hpwl()


def test_hpwl_mismatch_is_reported(placed, monkeypatch):
    p = placed.copy()
    monkeypatch.setattr(type(p), "hpwl", lambda self, weighted=False: 1.0)
    assert any("HPWL mismatch" in msg for msg in checks.check_placement(p))
