"""One child process of the benchmark.

    python child.py op    SPANS NAME PARAMS_JSON   a direct op: calls tcm's layers directly
    python child.py inner SPANS NAME PARAMS_JSON   a standalone call of an inner layer
    python child.py cli   SPANS TCM_ARGS...        the tcm CLI with spans at its library calls

SPANS is a file path, or "-" to run without tracing (op only).  A direct
op prints one JSON document on stdout, which the parent checks.  When
tracing, spans [name, parent index, start, end] and counts are kept in
memory and written to SPANS when the child ends.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from contextlib import contextmanager

# names the tcm CLI imports from the library, with the span each call records
CLI_BOUNDARY = {
    "bound_records": "feasibility.bound_records",
    "phi_bound_scan": "analytics.phi_bound_scan",
    "landau_liminf_check": "analytics.landau",
    "mertens_product": "analytics.mertens",
    "char_euler_product": "analytics.char_euler_product",
    "emit": "cli.serialize",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][3] = time.perf_counter()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)


class Untraced:
    @contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn, *args):
        return fn(*args)

    def count(self, name: str, n: int) -> None:
        pass


# ------------------------------------------------------------ direct ops


def class_numbers(t, cap, sample):
    from tcm.quad_core import class_number, class_number_dirichlet, fundamental_discriminants

    h = [[D, t.call("quad_core.class_number", class_number, D)] for D in fundamental_discriminants(cap)]
    dirichlet = [
        [D, t.call("quad_core.class_number_dirichlet", class_number_dirichlet, D)] for D in sample
    ]
    t.count("quad_core.kronecker_calls", sum(-D for D in sample))  # one per residue 1..|D|
    return {"h": h, "dirichlet": dirichlet}


def group_orders(t, discs, n_max):
    from tcm.galois_image import cn_elements
    from tcm.ideal_arith import brute_force_phi, phi_K_of_N

    rows = []
    for D in discs:
        for n in range(2, n_max + 1):
            group = len(t.call("galois_image.cn_elements", cn_elements, D, n))
            brute = t.call("ideal_arith.brute_force_phi", brute_force_phi, D, n)
            phi = t.call("ideal_arith.phi_K_of_N", phi_K_of_N, D, n)
            t.count("galois_image.group_elements", group)
            rows.append([D, n, group, brute, phi])
    return rows


def kernels(t, grid):
    from tcm.galois_image import kernel_size

    return [g + [t.call("galois_image.kernel_size", kernel_size, *g)] for g in grid]


def stabilizers(t, grid):
    from tcm.galois_image import max_stabilizer_order

    rows = []
    for g in grid:
        report = t.call("galois_image.max_stabilizer_order", max_stabilizer_order, *g)
        rows.append(g + [report.split_type.value, report.max_stabilizer_order])
    return rows


def refined(t, d, cap):
    from tcm.feasibility import chain_audit, refined_table

    table = t.call("feasibility.refined_table", refined_table, d, cap)
    t.count("feasibility.refined_rows", len(table))
    rows = []
    for r in table:
        audit = t.call("feasibility.chain_audit", chain_audit, d, r.disc, r.a, r.b)
        rows.append([r.disc.value, r.a, r.b, str(r.lhs), r.feasible, [s.holds for s in audit.steps]])
    return rows


def degree_bounds(t, discs, n_max):
    from tcm.ideal_arith import principal_ideal
    from tcm.ray_class_bounds import degree_bounds

    rows = []
    for D in discs:
        for n in range(1, n_max + 1):
            b = t.call("ray_class_bounds.degree_bounds", degree_bounds, D, principal_ideal(D, n))
            rows.append([D, n, str(b.lower_weak), str(b.lower), b.upper])
    return rows


OPS = {f.__name__: f for f in (class_numbers, group_orders, kernels, stabilizers, refined, degree_bounds)}


# --------------------------------------------- standalone inner layers


def phi_sieve(t, d_max):
    """The totient sieve bound_records runs, on its own, and its memory per entry."""
    from tcm.feasibility import feasible_product_cutoff
    from tcm.primes import phi_sieve

    n = feasible_product_cutoff(d_max)
    t.call("primes.phi_sieve", phi_sieve, n)
    tracemalloc.start()
    phi_sieve(n)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    t.count("primes.phi_sieve_n", n)
    t.count("primes.phi_sieve_peak_bytes", peak)
    t.count("feasibility.n_max", n)
    t.count("feasibility.region_pairs", sum(n // a for a in range(1, 12 * d_max + 1)))


def ideals(t, disc, x):
    """The enumeration phi_bound_scan consumes, then the prime list it starts from."""
    from tcm.ideal_arith import ideals_up_to_norm
    from tcm.primes import cached_primes

    with t.span("ideal_arith.ideals_up_to_norm"):
        t.count("ideal_arith.ideals", sum(1 for _ in ideals_up_to_norm(disc, x)))
    cached_primes.cache_clear()
    t.call("primes.cached_primes", cached_primes, x)


def primes(t, x):
    from tcm.primes import cached_primes

    t.call("primes.cached_primes", cached_primes, x)


INNER = {f.__name__: f for f in (phi_sieve, ideals, primes)}


def main(argv: list[str]) -> None:
    mode, spans = argv[0], argv[1]
    t = Untraced() if spans == "-" else Tracer()
    try:
        with t.span("cli.import"):
            import tcm.cli
        if mode == "cli":
            for name, span_name in CLI_BOUNDARY.items():
                setattr(tcm.cli, name, t.wrap(span_name, getattr(tcm.cli, name)))
            sys.argv = ["tcm", *argv[2:]]
            with t.span("cli.main"):
                tcm.cli.main()
        else:
            fn = (OPS if mode == "op" else INNER)[argv[2]]
            result = fn(t, **json.loads(argv[3]))
            if result is not None:
                json.dump(result, sys.stdout)
    finally:
        if isinstance(t, Tracer):
            t.dump(spans)


if __name__ == "__main__":
    main(sys.argv[1:])
