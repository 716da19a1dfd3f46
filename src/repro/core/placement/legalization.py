"""ILP-based cascade legalization (paper Section IV-B, Fig. 5(b)).

The soft η-penalty of the MCF stage does not guarantee that cascade macros
occupy consecutive rows of one column; this stage enforces it exactly:

1. **inter-column ILP** (eq. 10): each entity — a whole cascade macro
   (constraint 10b forces its members into one column, so the macro is one
   decision variable) or a single DSP — is assigned to a column, minimizing
   horizontal displacement under column capacities. Solved as one sparse
   HiGHS MILP via :func:`scipy.optimize.milp`; a greedy fallback covers
   infeasibility and node-limit blowups.
2. **intra-column legalization** (eq. 11): per column, entities become
   rigid :class:`~repro.solvers.isotonic.ColumnBlock`s ordered by desired
   vertical position (macros by their mean y, per the paper), and the exact
   DP of :func:`~repro.solvers.isotonic.legalize_column_rows` minimizes
   total vertical displacement with cascade pairs adjacent (11a) and no
   overlaps (11b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from repro.errors import LegalizationError, SolverConvergenceError, SolverError
from repro.fpga.device import Device
from repro.netlist.netlist import Netlist
from repro.obs import metrics, trace
from repro.robustness.faults import maybe_fault
from repro.robustness.guard import SolverGuard
from repro.solvers.isotonic import ColumnBlock, legalize_column_rows

#: HiGHS branch-and-bound node budget for the eq. (10) MILP; past it the
#: greedy packer takes over.
ILP_NODE_LIMIT = 20_000


@dataclass(frozen=True)
class _Entity:
    """One inter-column decision unit: a macro chain or a single DSP."""

    cells: tuple[int, ...]  # bottom-to-top order for macros
    x: float
    ys: tuple[float, ...]

    @property
    def size(self) -> int:
        return len(self.cells)

    @property
    def y_mean(self) -> float:
        return float(np.mean(self.ys))


@dataclass
class LegalizationResult:
    """Outcome of cascade legalization."""

    site_of: dict[int, int]  # dsp cell index -> DSP site id
    total_displacement_um: float
    used_ilp: bool
    ilp_nodes: int


class CascadeLegalizer:
    """Legalizes a set of DSPs (desired coordinates → legal cascade sites)."""

    def __init__(self, netlist: Netlist, device: Device) -> None:
        self.netlist = netlist
        self.device = device

    # ------------------------------------------------------------------
    def legalize(
        self,
        desired_xy: dict[int, tuple[float, float]],
        guard: SolverGuard | None = None,
    ) -> LegalizationResult:
        """Place every DSP in ``desired_xy`` onto legal sites.

        Macros whose members all appear in ``desired_xy`` are kept as rigid
        chains; all listed DSPs (datapath and control alike) compete for
        the same columns, so the result is overlap-free. With a ``guard``
        the ILP → greedy inter-column fallback is recorded in its
        :class:`~repro.robustness.RunHealth` and the stage budget applies.
        """
        entities = self._build_entities(desired_xy)
        cols = self.device.kind_columns("DSP")
        caps = [c.n_sites for c in cols]
        if sum(e.size for e in entities) > sum(caps):
            raise LegalizationError("more DSPs than device DSP sites")
        metrics.gauge("legalization.entities", len(entities))

        with trace.span("legalization.inter_column", n_entities=len(entities)) as ic_sp:
            col_of, used_ilp, ilp_nodes = self._inter_column(entities, cols, caps, guard)
            ic_sp.set(used_ilp=used_ilp, ilp_nodes=ilp_nodes)
        metrics.inc("legalization.ilp_used" if used_ilp else "legalization.greedy_used")
        site_of: dict[int, int] = {}
        total_disp = 0.0
        with trace.span("legalization.intra_column") as col_sp:
            n_used = 0
            for j in range(len(cols)):
                members = [e for e, cj in zip(entities, col_of) if cj == j]
                if not members:
                    continue
                n_used += 1
                total_disp += self._intra_column(members, j, site_of)
            col_sp.set(n_columns=n_used)
        # horizontal displacement component
        for e, cj in zip(entities, col_of):
            total_disp += abs(cols[cj].x - e.x) * e.size
        metrics.observe("legalization.displacement_um", total_disp)
        return LegalizationResult(
            site_of=site_of,
            total_displacement_um=total_disp,
            used_ilp=used_ilp,
            ilp_nodes=ilp_nodes,
        )

    # ------------------------------------------------------------------
    def _build_entities(self, desired_xy: dict[int, tuple[float, float]]) -> list[_Entity]:
        covered: set[int] = set()
        entities: list[_Entity] = []
        for macro in self.netlist.macros:
            if all(i in desired_xy for i in macro.dsps):
                xs = [desired_xy[i][0] for i in macro.dsps]
                ys = [desired_xy[i][1] for i in macro.dsps]
                entities.append(
                    _Entity(cells=tuple(macro.dsps), x=float(np.mean(xs)), ys=tuple(ys))
                )
                covered.update(macro.dsps)
        for idx, (x, y) in desired_xy.items():
            if idx not in covered:
                entities.append(_Entity(cells=(idx,), x=float(x), ys=(float(y),)))
        return entities

    # ------------------------------------------------------------------
    def _inter_column(
        self,
        entities: list[_Entity],
        cols,
        caps: list[int],
        guard: SolverGuard | None = None,
    ) -> tuple[list[int], bool, int]:
        n, ncol = len(entities), len(cols)
        col_x = np.array([c.x for c in cols])
        sizes = np.array([e.size for e in entities], dtype=np.float64)
        ilp_nodes = 0

        def _ilp() -> list[int]:
            nonlocal ilp_nodes
            maybe_fault("legalization.ilp")
            # variable v = i·ncol + j is t_ij, entity i in column j
            var = np.arange(n * ncol)
            disp = np.abs(np.array([e.x for e in entities])[:, None] - col_x[None, :])
            cost = (disp * sizes[:, None]).ravel()  # D_col(i, j) (eq. 10)
            assign = csr_matrix((np.ones(var.size), (var // ncol, var)), shape=(n, var.size))
            load = csr_matrix((np.repeat(sizes, ncol), (var % ncol, var)), shape=(ncol, var.size))
            metrics.inc("ilp.solves")
            metrics.inc("ilp.variables", var.size)
            res = milp(
                cost,
                constraints=[
                    LinearConstraint(assign, 1.0, 1.0),  # Σ_j t_ij = 1 per entity
                    LinearConstraint(load, -np.inf, caps),  # Σ_i size_i · t_ij ≤ M_j
                ],
                bounds=Bounds(0.0, 1.0),
                integrality=1,
                options={"node_limit": ILP_NODE_LIMIT, "mip_rel_gap": 0.0},
            )
            ilp_nodes = int(res.mip_node_count or 0)
            metrics.inc("ilp.nodes_explored", ilp_nodes)
            if res.status != 0:
                raise SolverConvergenceError(
                    f"inter-column ILP gave up after {ilp_nodes} of "
                    f"{ILP_NODE_LIMIT} nodes: {res.message}"
                )
            return res.x.reshape(n, ncol).argmax(axis=1).tolist()

        def _greedy() -> list[int]:
            # biggest entities first, nearest column with room
            maybe_fault("legalization.greedy")
            order = sorted(range(n), key=lambda i: -entities[i].size)
            free = list(caps)
            col_of = [0] * n
            for i in order:
                ranked = np.argsort(np.abs(col_x - entities[i].x))
                for j in ranked:
                    if free[j] >= entities[i].size:
                        free[j] -= entities[i].size
                        col_of[i] = int(j)
                        break
                else:
                    raise LegalizationError(
                        "greedy inter-column fallback failed to fit entities"
                    )
            return col_of

        attempts = [("ilp", _ilp), ("greedy", _greedy)]
        if guard is not None:
            name, col_of = guard.run(attempts)
            return col_of, name == "ilp", ilp_nodes
        try:
            return _ilp(), True, ilp_nodes
        except SolverError:
            return _greedy(), False, ilp_nodes

    # ------------------------------------------------------------------
    def _intra_column(self, members: list[_Entity], col_j: int, site_of: dict[int, int]) -> float:
        """Exact eq. (11) solve for one column; fills ``site_of``."""
        col = self.device.kind_columns("DSP")[col_j]
        ids = self.device.column_site_ids("DSP", col_j)
        ys = col.ys
        pitch = float(ys[1] - ys[0]) if len(ys) > 1 else 1.0
        y0 = float(ys[0])

        members = sorted(members, key=lambda e: e.y_mean)  # paper's ordering
        blocks = []
        for e in members:
            targets = tuple((y - y0) / pitch for y in e.ys)
            blocks.append(ColumnBlock(targets=targets))
        starts = legalize_column_rows(blocks, len(ids))
        disp = 0.0
        for e, start in zip(members, starts):
            for k, cell in enumerate(e.cells):
                row = start + k
                site_of[cell] = ids[row]
                disp += abs(ys[row] - e.ys[k])
        return disp
