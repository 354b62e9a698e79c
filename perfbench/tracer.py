"""Span tracing of jetcalc, installed from outside the program.

`Tracer.install()` replaces functions and methods of the jetcalc modules by
wrappers that record one span per call: name, start, end, parent span and
job id.  A wrapper is put wherever the name is looked up at call time: in
every module namespace that binds the function (``cli`` binds
``symmetries`` at import, ``detsolve._solve`` finds ``nullspace`` through
its module globals) and in the class dictionary for methods and operators
(``DiffPoly.__mul__``, ``CDiffOp.apply``).  `uninstall()` puts the
originals back, so traced and untraced passes can alternate in one process.

Spans of the current pass stay in memory in flat arrays; `analyse()` turns
them into per-layer counts and self times (a span's duration minus the time
covered by its direct children) and `write_spans()` writes them out.
"""

from __future__ import annotations

import gzip
import os
import time
from array import array

import jetcalc
from jetcalc import cdiff, cli, dalg, detsolve, hamrec, jetspace, variational

MODULES = {
    "dalg": dalg,
    "jetspace": jetspace,
    "cdiff": cdiff,
    "variational": variational,
    "detsolve": detsolve,
    "hamrec": hamrec,
    "cli": cli,
}

SOLVERS = ("detsolve.symmetries", "detsolve.generating_functions", "detsolve.shadows")

# The operator each solver pushes its template through.  Its first call in a
# solver call is the `residual` phase; its calls after `nullspace` returns
# re-substitute the solutions (the `verify` phase).
RESIDUAL_OP = {
    "detsolve.symmetries": "cdiff.CDiffOp.apply",
    "detsolve.generating_functions": "variational.gf_residual",
    "detsolve.shadows": "cdiff.shadow_residual",
}

TEMPLATES = ("detsolve.build_symmetry_template", "detsolve.build_shadow_template")

# Enough to attribute problem sizes to solver calls: used by the size gate
# of untraced runs, where the full set would disturb the timings.
SIZE_TARGETS = SOLVERS + TEMPLATES + (
    "detsolve.ansatz_monomials", "detsolve.nullspace", "hamrec.dx_inverse_extended")

# The public functions that do work in each layer, and the methods behind
# the operators.  Trivial helpers that run millions of times (multi-index
# arithmetic, variable factories, `DiffPoly.variables`) are left out: a
# wrapper would cost more than the call and would only blur self times.
TARGETS = (
    "dalg.DiffPoly.__init__", "dalg.DiffPoly.__add__", "dalg.DiffPoly.__mul__",
    "dalg.DiffPoly.partial", "dalg.DiffPoly.substitute", "dalg.DiffPoly.__str__",
    "dalg.parse",
    "jetspace.total_derivative", "jetspace.prolong",
    "jetspace.EvolutionSystem.restricted_time", "jetspace.EvolutionSystem.dsigma_f",
    "jetspace.EvolutionSystem.to_internal",
    "cdiff.CDiffOp.apply", "cdiff.CDiffOp.compose", "cdiff.CDiffOp.adjoint",
    "cdiff.CDiffOp.__str__", "cdiff.CartanShadow.__str__",
    "cdiff.linearization", "cdiff.flow_linearization", "cdiff.evolutionary",
    "cdiff.jacobi_bracket", "cdiff.horizontal_differential", "cdiff.cartan_differential",
    "cdiff.shadow_residual", "cdiff.contract",
    "variational.euler", "variational.is_divergence", "variational.dx_inverse",
    "variational.self_adjoint_test", "variational.homotopy_lagrangian",
    "variational.divergence_residual", "variational.gf_residual",
    "variational.generating_function", "variational.current_from_gf",
    "detsolve.match_coefficients", "detsolve.span_contains",
    "hamrec.make_covering", "hamrec.Covering.derive",
    "hamrec.extended_linearization_residual", "hamrec.apply_shadow",
    "hamrec.is_skew_adjoint", "hamrec.jacobi_criterion_density", "hamrec.jacobi_check",
    "hamrec.hamiltonian_flow", "hamrec.poisson_bracket", "hamrec.gf_to_symmetry",
    "cli.parse_equation_file", "cli.parse_operator", "cli.Report.emit",
) + SIZE_TARGETS + tuple(
    f"cli.{name}" for name in sorted(vars(cli)) if name.startswith("cmd_"))

COMMANDS = tuple(t for t in TARGETS if t.startswith("cli.cmd_"))
STRINGIFY = ("dalg.DiffPoly.__str__", "cdiff.CDiffOp.__str__", "cdiff.CartanShadow.__str__")


def _resolve(target: str):
    """(owner, attribute, original) for 'module.func' or 'module.Class.meth'."""
    mod, _, rest = target.partition(".")
    owner = MODULES[mod]
    if "." in rest:
        cls, _, meth = rest.partition(".")
        owner = getattr(owner, cls)
        return owner, meth, owner.__dict__[meth]
    return owner, rest, getattr(owner, rest)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = tuple(dict.fromkeys(targets))
        self.names: list[str] = list(self.targets)
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.stack: list[int] = []
        self.job = [0]
        self.nullspace_sizes: dict[int, tuple[int, int, int, int]] = {}
        self.monomial_counts: dict[int, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self):
        namespaces = [vars(jetcalc)] + [vars(m) for m in MODULES.values()]
        for nid, target in enumerate(self.targets):
            owner, attr, original = _resolve(target)
            wrapper = self._wrap(nid, target, original)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for name, value in list(ns.items()):
                    if value is original:
                        self._undo.append((ns, name, original))
                        ns[name] = wrapper

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, nid: int, target: str, fn):
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, jobs, stack, job = self.span_parent, self.span_job, self.stack, self.job
        perf = time.perf_counter
        after = None
        if target == "detsolve.nullspace":
            sizes = self.nullspace_sizes

            def after(i, args, result):
                rows = [r for r in args[0].rows if r]
                sizes[i] = (len(args[0].unknowns), len(rows), sum(map(len, rows)), len(result))
        elif target == "detsolve.ansatz_monomials":
            counts = self.monomial_counts

            def after(i, args, result):
                counts[i] = len(result)

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(job[0])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                stack.pop()
            if after is not None:
                after(i, args, result)
            return result

        return wrapper

    # -- per-pass bookkeeping ----------------------------------------------

    def reset(self):
        for arr in (self.span_name, self.span_start, self.span_end, self.span_parent, self.span_job):
            del arr[:]
        self.stack.clear()
        self.nullspace_sizes.clear()
        self.monomial_counts.clear()

    def write_spans(self, path: str):
        """Tab-separated spans: index, name, start, end, parent, job."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart\tend\tparent\tjob\n")
            for i, (n, s, e, p, j) in enumerate(zip(self.span_name, self.span_start, self.span_end,
                                                    self.span_parent, self.span_job)):
                fh.write(f"{i}\t{names[n]}\t{s:.9f}\t{e:.9f}\t{p}\t{j}\n")

    # -- analysis ------------------------------------------------------------

    def _subtree_end(self, i: int) -> int:
        """Spans are appended at entry, so a span's descendants are the
        contiguous run of spans that start before it ends."""
        starts, end = self.span_start, self.span_end[i]
        k = i + 1
        while k < len(starts) and starts[k] < end:
            k += 1
        return k

    def _has_ancestor(self, i: int, nid: int) -> bool:
        p = self.span_parent[i]
        while p >= 0:
            if self.span_name[p] == nid:
                return True
            p = self.span_parent[p]
        return False

    def solver_sizes(self) -> dict[int, list[list[int]]]:
        """Per job: [monomials, unknowns, rows, nonzeros, rank, nullity] of
        each solver call, in call order."""
        ids = {n: k for k, n in enumerate(self.names)}
        out: dict[int, list[list[int]]] = {}
        solver_ids = {ids[s] for s in SOLVERS if s in ids}
        for i, nid in enumerate(self.span_name):
            if nid not in solver_ids:
                continue
            monos, ns = 0, None
            for k in range(i + 1, self._subtree_end(i)):
                if k in self.monomial_counts:
                    monos += self.monomial_counts[k]
                if k in self.nullspace_sizes and ns is None:
                    ns = self.nullspace_sizes[k]
            n, rows, nnz, nullity = ns if ns is not None else (0, 0, 0, 0)
            out.setdefault(self.span_job[i], []).append([monos, n, rows, nnz, n - nullity, nullity])
        return out

    def analyse(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the current pass; `wall` is the pass's total
        job time, of which `trace.coverage` is the share inside spans."""
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        ids = {n: k for k, n in enumerate(self.names)}
        nspans = len(names)
        nnames = len(self.names)
        child = [0.0] * nspans
        for i in range(nspans):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * nnames
        self_s = [0.0] * nnames
        by_name: list[list[int]] = [[] for _ in range(nnames)]
        top_level = 0.0
        for i in range(nspans):
            n = names[i]
            d = ends[i] - starts[i]
            calls[n] += 1
            self_s[n] += d - child[i]
            by_name[n].append(i)
            if parents[i] < 0:
                top_level += d

        def c(t):
            return calls[ids[t]]

        def s(t):
            return self_s[ids[t]]

        def inc(t):
            """Inclusive time, counting only spans not nested in the same name."""
            n = ids[t]
            return sum(ends[i] - starts[i] for i in by_name[n] if not self._has_ancestor(i, n))

        # dsigma_f is a memo hit when no total_derivative runs beneath it.
        dsig, td = ids["jetspace.EvolutionSystem.dsigma_f"], ids["jetspace.total_derivative"]
        miss = bytearray(nspans)
        for i in range(nspans):
            if names[i] == td:
                p = parents[i]
                while p >= 0 and not miss[p]:
                    miss[p] = 1
                    p = parents[p]
        dsig_calls = calls[dsig]
        dsig_hits = sum(1 for i in by_name[dsig] if not miss[i])

        dxe, ns_id = ids["hamrec.dx_inverse_extended"], ids["detsolve.nullspace"]
        remainder_solves = sum(1 for i in by_name[ns_id] if self._has_ancestor(i, dxe))

        phases = dict.fromkeys(("template", "residual", "match", "nullspace", "render", "verify"), 0.0)
        for solver, residual_op in RESIDUAL_OP.items():
            for i in by_name[ids[solver]]:
                self._solver_phases(i, ids[residual_op], ids, phases)
        sizes = [row for rows in self.solver_sizes().values() for row in rows]
        tot = [sum(col) for col in zip(*sizes)] if sizes else [0] * 6

        # Report rendering: the commands' own code outside the layers they
        # call, the str() of the results they format, and emitting the document.
        cmd_ids = {ids[t] for t in COMMANDS}
        str_ids = {ids[t] for t in STRINGIFY}
        report = inc("cli.Report.emit") + sum(self_s[k] for k in cmd_ids)
        report += sum(ends[i] - starts[i] for n in str_ids for i in by_name[n]
                      if parents[i] >= 0 and names[parents[i]] in cmd_ids)

        return {
            "dalg.mul_calls": c("dalg.DiffPoly.__mul__"),
            "dalg.add_calls": c("dalg.DiffPoly.__add__"),
            "dalg.init_calls": c("dalg.DiffPoly.__init__"),
            "dalg.partial_calls": c("dalg.DiffPoly.partial"),
            "dalg.substitute_calls": c("dalg.DiffPoly.substitute"),
            "dalg.mul_self_s": s("dalg.DiffPoly.__mul__"),
            "dalg.add_self_s": s("dalg.DiffPoly.__add__"),
            "dalg.partial_self_s": s("dalg.DiffPoly.partial"),
            "dalg.substitute_self_s": s("dalg.DiffPoly.substitute"),
            "dalg.str_self_s": s("dalg.DiffPoly.__str__"),
            "dalg.parse_self_s": s("dalg.parse"),
            "jetspace.total_derivative_calls": c("jetspace.total_derivative"),
            "jetspace.total_derivative_self_s": s("jetspace.total_derivative"),
            "jetspace.restricted_time_calls": c("jetspace.EvolutionSystem.restricted_time"),
            "jetspace.restricted_time_self_s": s("jetspace.EvolutionSystem.restricted_time"),
            "jetspace.dsigma_f_calls": dsig_calls,
            "jetspace.dsigma_f_hit_ratio": dsig_hits / dsig_calls if dsig_calls else 0.0,
            "jetspace.to_internal_self_s": s("jetspace.EvolutionSystem.to_internal"),
            "cdiff.apply_calls": c("cdiff.CDiffOp.apply"),
            "cdiff.apply_self_s": s("cdiff.CDiffOp.apply"),
            "cdiff.compose_self_s": s("cdiff.CDiffOp.compose"),
            "cdiff.adjoint_self_s": s("cdiff.CDiffOp.adjoint"),
            "cdiff.shadow_residual_self_s": s("cdiff.shadow_residual"),
            "variational.euler_calls": c("variational.euler"),
            "variational.euler_self_s": s("variational.euler"),
            "variational.dx_inverse_self_s": s("variational.dx_inverse"),
            "variational.gf_residual_self_s": s("variational.gf_residual"),
            "variational.homotopy_self_s": s("variational.homotopy_lagrangian"),
            **{f"detsolve.{k}_s": v for k, v in phases.items()},
            "detsolve.monomials": tot[0],
            "detsolve.unknowns": tot[1],
            "detsolve.rows": tot[2],
            "detsolve.nonzeros": tot[3],
            "detsolve.rank": tot[4],
            "detsolve.nullity": tot[5],
            "detsolve.rank_per_row": tot[4] / tot[2] if tot[2] else 0.0,
            "hamrec.covering_derive_calls": c("hamrec.Covering.derive"),
            "hamrec.covering_derive_self_s": s("hamrec.Covering.derive"),
            "hamrec.dx_inverse_extended_self_s": s("hamrec.dx_inverse_extended"),
            "hamrec.extended_verify_s": inc("hamrec.extended_linearization_residual"),
            "hamrec.remainder_solves": remainder_solves,
            "hamrec.jacobi_check_s": inc("hamrec.jacobi_check"),
            "hamrec.make_covering_s": inc("hamrec.make_covering"),
            "cli.parse_file_s": inc("cli.parse_equation_file"),
            "cli.parse_operator_s": inc("cli.parse_operator"),
            "cli.report_s": report,
            "trace.coverage": top_level / wall if wall else 0.0,
        }

    def _solver_phases(self, i: int, residual_id: int, ids: dict, phases: dict):
        names, starts, ends = self.span_name, self.span_start, self.span_end
        template_ids = {ids[t] for t in TEMPLATES}
        match_id, ns_id = ids["detsolve.match_coefficients"], ids["detsolve.nullspace"]
        end_sub = self._subtree_end(i)
        ns_end = None
        residual_seen = False
        verify = 0.0
        k = i + 1
        while k < end_sub:
            n = names[k]
            d = ends[k] - starts[k]
            if n in template_ids:
                phases["template"] += d
            elif n == residual_id:
                if ns_end is None and not residual_seen:
                    phases["residual"] += d
                    residual_seen = True
                elif ns_end is not None:
                    verify += d
            elif n == match_id:
                phases["match"] += d
            elif n == ns_id and ns_end is None:
                phases["nullspace"] += d
                ns_end = ends[k]
            else:
                k += 1
                continue
            k = self._subtree_end(k)  # time is counted once, at the outermost span
        phases["verify"] += verify
        if ns_end is not None:
            phases["render"] += ends[i] - ns_end - verify
