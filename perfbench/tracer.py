"""Per-layer tracing from outside the package.

The tracer replaces the public functions of each qfactor layer with timing
wrappers, at every binding a caller looks the name up through: the pipeline
and the relation lattice each import their own `hom_image`, the CLI imports
`run_factoring` and `certify_assumption`, and the checks import `lll_reduce`.
Nothing under `src/` changes.  Everything runs in one thread, so layers never
wait on each other and no wait times are recorded.

For each wrapped function the tracer keeps a call count, a total time and a
self time (the total minus the time of wrapped calls made inside it).  Layer
boundaries that are not hot leaves also record spans (id, parent, job, name,
start, end), kept in memory until the benchmark writes them out.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _grid_cells(counts, args, kwargs, result):
    counts["gauss.grid_cells"] += _arg(args, kwargs, 1, "params").D


def _witness_box(counts, args, kwargs, result):
    rel, bound = _arg(args, kwargs, 0, "rel"), _arg(args, kwargs, 1, "bound")
    counts["relattice.witness_box_points"] += (2 * int(bound) + 1) ** rel.d


def _certified(counts, args, kwargs, result):
    # certification walks the (2r+1)^d box twice: once for the witness, once
    # to count the lattice vectors in the ball
    d = _arg(args, kwargs, 0, "inst").d
    counts["witness.lattice_vectors"] += result.lattice_vectors
    counts["witness.box_points_scanned"] += 2 * (2 * result.bound + 1) ** d


def _bfs_nodes(counts, args, kwargs, result):
    counts["relattice.bfs_nodes"] += result.det


def _lll_dim(counts, args, kwargs, result):
    basis = _arg(args, kwargs, 0, "basis")
    k = len(getattr(basis, "vectors", basis))
    counts["latred.lll_dim_max"] = max(counts["latred.lll_dim_max"], k)


def _grid_points(counts, args, kwargs, result):
    state = _arg(args, kwargs, 0, "state")
    counts["qsim.grid_points"] += state.D ** state.d


# (layer.function, bindings "module:attr" to patch, span?, count hook)
TARGETS = (
    ("cli.main", ("qfactor.cli:main",), True, None),
    ("pipeline.run_factoring", ("qfactor.cli:run_factoring",), True, None),
    ("pipeline.certify_assumption",
     ("qfactor.pipeline:certify_assumption", "qfactor.cli:certify_assumption"), True, _certified),
    ("relattice.build_relation_lattice",
     ("qfactor.pipeline:build_relation_lattice", "qfactor.cli:build_relation_lattice"), True, _bfs_nodes),
    ("relattice.shortest_nontrivial_witness",
     ("qfactor.pipeline:shortest_nontrivial_witness",), True, _witness_box),
    ("relattice.dual_cosets", ("qfactor.pipeline:dual_cosets", "qfactor.cli:dual_cosets"), True, None),
    ("arith.hom_image", ("qfactor.pipeline:hom_image", "qfactor.relattice:hom_image"), False, None),
    ("arith.product_tree_exponentiation", ("qfactor.qsim:product_tree_exponentiation",), False, None),
    ("intmat.hermite_basis", ("qfactor.intmat:hermite_basis",), True, None),
    ("intmat.smith_normal_form", ("qfactor.intmat:smith_normal_form",), True, None),
    ("gauss.coordinate_masses", ("qfactor.gauss:coordinate_masses",), False, _grid_cells),
    ("gauss.sample_Q", ("qfactor.pipeline:sample_Q", "qfactor.gauss:sample_Q"), True, None),
    ("gauss.concentration_check", ("qfactor.gauss:concentration_check",), True, None),
    ("gauss.q_table", ("qfactor.gauss:q_table",), True, None),
    ("qsim.build_gaussian_state",
     ("qfactor.pipeline:build_gaussian_state", "qfactor.qsim:build_gaussian_state"), True, None),
    ("qsim.apply_exponentiation",
     ("qfactor.pipeline:apply_exponentiation", "qfactor.qsim:apply_exponentiation"), True, _grid_points),
    ("qsim.qft_measure_distribution",
     ("qfactor.pipeline:qft_measure_distribution", "qfactor.qsim:qft_measure_distribution"), True, None),
    ("qsim.sample_measurement", ("qfactor.pipeline:sample_measurement",), True, None),
    ("qsim.phi1_phi2_gap", ("qfactor.qsim:phi1_phi2_gap",), True, None),
    ("latred.build_extended_lattice", ("qfactor.pipeline:build_extended_lattice",), True, None),
    ("latred.recover_relation_vectors", ("qfactor.pipeline:recover_relation_vectors",), True, None),
    ("latred.extract_short_generators",
     ("qfactor.latred:extract_short_generators", "qfactor.checks:extract_short_generators"), True, None),
    ("latred.lll_reduce", ("qfactor.latred:lll_reduce", "qfactor.checks:lll_reduce"), True, _lll_dim),
    ("latred.gram_schmidt", ("qfactor.latred:gram_schmidt",), False, None),
    ("latred.enumerate_lattice_vectors", ("qfactor.checks:enumerate_lattice_vectors",), True, None),
    ("checks.separation", ("qfactor.checks:separation_suite",), True, None),
    ("checks.generation", ("qfactor.checks:generation_suite",), True, None),
    ("checks.short-cover", ("qfactor.checks:short_cover_suite",), True, None),
    ("checks.tail", ("qfactor.checks:tail_suite",), True, None),
    ("checks.poisson", ("qfactor.checks:poisson_suite",), True, None),
)

# Counters the hooks add up, with their units, in emission order.
COUNTERS = (
    ("gauss.grid_cells", "count"),
    ("relattice.witness_box_points", "count"),
    ("relattice.bfs_nodes", "count"),
    ("latred.lll_dim_max", "count"),
    ("qsim.grid_points", "count"),
)


class Tracer:
    """Wraps the layer functions while active; collects stats and spans."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name, *_ in TARGETS}  # calls, total, self
        self.counts = defaultdict(int)
        self.spans: list[tuple] = []
        self.job = -1
        self._stack: list[list] = []  # [child seconds, enclosing span id] per open call
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, span, hook):
        stats, stack, spans, counts = self.stats[name], self._stack, self.spans, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, len(spans) if span else parent]  # nearest span for children
            if span:
                spans.append(None)  # reserve the id so children can point at it
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    spans[frame[1]] = (frame[1], parent, self.job, name, start, end)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for name, bindings, span, hook in TARGETS:
            for binding in bindings:
                module_name, attr = binding.split(":")
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, span, hook))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def metrics(self) -> dict:
        """Per-function calls, total and self seconds, then the counters."""
        out = {}
        for name, (calls, total, own) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.s"] = (total, "s")
            out[f"{name}.self_s"] = (own, "s")
        for name, unit in COUNTERS:
            out[name] = (self.counts[name], unit)
        scanned = self.counts["witness.box_points_scanned"]
        found = self.counts["witness.lattice_vectors"]
        out["pipeline.witness_yield"] = (found / scanned if scanned else 0.0, "ratio")
        return out
