"""Table II — placement performance comparison (the headline experiment).

Reproduces the paper's Table II at REPRO_SCALE: post-route WNS/TNS, HPWL
and runtime for Vivado-like, AMF-like and DSPlacer on all five suites, plus
the "Normalize" row (ratios vs DSPlacer; >1 = worse, matching the paper's
1.325×/1.658× WNS presentation).

Frequency protocol per paper V-C: the clock of each suite is pushed just
past the Vivado baseline's f_max, so the baseline shows a small negative
WNS and DSPlacer must recover it.

Shape assertions (who wins, roughly by how much):
- DSPlacer's WNS beats Vivado's on ≥4/5 suites and on the normalized mean;
- AMF is the worst performer overall (VCU108-maladapted on ZCU104);
- Vivado is the fastest flow; DSPlacer pays extra runtime;
- normalized WNS ratios land in the paper's ballpark (Vivado ≈ 1.3×,
  AMF ≈ 1.7× worse path delay is not expected to match exactly — we only
  require ordering and >1 margins).
"""

from repro.eval import render_table, run_table2


def test_table2_placement_comparison(benchmark, settings, emit):
    result = benchmark.pedantic(run_table2, args=(settings,), rounds=1, iterations=1)

    headers = [
        "Benchmark",
        "Tool",
        "WNS (ns)",
        "TNS (ns)",
        "HPWL (um)",
        "routedWL (um)",
        "Runtime (s)",
        "eval f (MHz)",
    ]
    rows = []
    for r in result.rows:
        rows.append(
            [
                r.benchmark,
                r.tool,
                r.wns_ns,
                r.tns_ns,
                r.hpwl_um,
                r.routed_wl_um,
                r.runtime_s,
                r.eval_freq_mhz,
            ]
        )
    norm = result.normalize()
    for tool in ("vivado", "amf", "dsplacer"):
        n = norm[tool]
        rows.append(
            [
                "Normalize",
                tool,
                f"{n['wns']:.3f}x",
                f"{n['tns']:.3f}x",
                f"{n['hpwl']:.3f}x",
                "-",
                f"{n['runtime']:.3f}x",
                "-",
            ]
        )
    emit(
        "table2",
        render_table(headers, rows, title="TABLE II (reproduced): Experiment Result."),
    )

    # ---- shape assertions ----
    by = {(r.benchmark, r.tool): r for r in result.rows}
    suites = sorted({r.benchmark for r in result.rows})
    wins = sum(
        1 for s in suites if by[(s, "dsplacer")].wns_ns > by[(s, "vivado")].wns_ns
    )
    assert wins >= 4, f"DSPlacer beats Vivado WNS on only {wins}/5 suites"
    # Vivado slightly negative by protocol; DSPlacer recovers most of them
    assert all(by[(s, "vivado")].wns_ns < 0 for s in suites)
    recovered = sum(1 for s in suites if by[(s, "dsplacer")].wns_ns >= 0)
    assert recovered >= 3, f"DSPlacer recovers WNS on only {recovered}/5"
    # normalized ordering: dsplacer == 1, vivado worse, amf worst
    assert norm["dsplacer"]["wns"] == 1.0
    assert norm["vivado"]["wns"] > 1.0
    assert norm["amf"]["wns"] > norm["vivado"]["wns"]
    assert norm["amf"]["tns"] > norm["vivado"]["tns"]
    # runtime: vivado fastest, amf and dsplacer pay more (paper: 0.485x / 2.145x)
    assert norm["vivado"]["runtime"] < 1.0
    # HPWL: amf is the wirelength loser (paper: 1.446x vs vivado 0.550x)
    assert norm["amf"]["hpwl"] > norm["vivado"]["hpwl"]
