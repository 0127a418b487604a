"""Per-layer spans and counts, recorded from outside the program.

install() replaces the public functions and methods of each layer with
wrappers, in every reesag module that holds a reference to them, and
uninstall() puts the originals back.  A span is (name, start, end, parent),
kept in flat arrays while the traced batches run; self time is derived at
the end as duration minus the part covered by child spans.  Two hot, tiny
entry points (binom and Monomial construction) are counted, not spanned.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from pathlib import Path

from workloads import Monomial, MonomialIdeal, certificates, classify, goodideals, monomials, veronese

# span name -> (owner: module name or class, attribute)
SPANS = {
    "binomials.ineq_sides": ("reesag.binomials", "ineq_sides"),
    "binomials.ineq_gap_telescoped": ("reesag.binomials", "ineq_gap_telescoped"),
    "canonical.ladder": ("reesag.canonical", "ladder"),
    "canonical.ladder_report": ("reesag.canonical", "ladder_report"),
    "canonical.notgraded_obstruction": ("reesag.canonical", "notgraded_obstruction"),
    "classify.classify": ("reesag.classify", "classify"),
    "classify.table": ("reesag.classify", "table"),
    "monomials.mul": (MonomialIdeal, "__mul__"),
    "monomials.antichain": ("reesag.monomials", "_antichain"),
    "monomials.colon": (MonomialIdeal, "colon"),
    "monomials.intersection": (MonomialIdeal, "intersection"),
    "monomials.colength": (MonomialIdeal, "colength"),
    "monomials.multiplicity": (MonomialIdeal, "multiplicity"),
    "goodideals.good_report": ("reesag.goodideals", "good_report"),
    "goodideals.is_stable": ("reesag.goodideals", "is_stable"),
    "certificates.build_certificate_2dim": ("reesag.certificates", "build_certificate_2dim"),
    "certificates.verify_claim_containment": ("reesag.certificates", "verify_claim_containment"),
    "veronese.times": (veronese.SemigroupModule, "times"),
    "veronese.equals": (veronese.SemigroupModule, "equals"),
    "veronese.veronese_report": ("reesag.veronese", "veronese_report"),
}

# counter name -> (owner, attribute); the call is counted, not spanned
COUNTS = {
    "binomials.binom.calls": ("reesag.binomials", "binom"),
    "monomials.monomial_built.count": (Monomial, "__post_init__"),
}


def _box_cells(ideal: MonomialIdeal) -> int:
    if ideal.is_unit:
        return 0
    cells = 1
    for k in range(ideal.dim):
        cells *= min(g.exponents[k] for g in ideal.gens if g.exponents[k] and g.degree == g.exponents[k])
    return cells


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = list(SPANS)
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(
            [*COUNTS, "monomials.mul.gens_in", "monomials.mul.pairs", "monomials.mul.gens_out",
             "monomials.antichain.candidates_in", "monomials.antichain.gens_out",
             "monomials.colength.box_cells", "veronese.times.pairs"], 0)
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        nid = self.names.index(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _sized(self, name: str, fn):
        """The wrapped call for spans that also record sizes."""
        c = self.counts
        if name == "monomials.mul":
            def sized(a, b):
                out = fn(a, b)
                c["monomials.mul.gens_in"] += len(a.gens) + len(b.gens)
                c["monomials.mul.pairs"] += len(a.gens) * len(b.gens)
                c["monomials.mul.gens_out"] += len(out.gens)
                return out
        elif name == "monomials.antichain":
            def sized(monos):
                monos = tuple(monos)
                out = fn(monos)
                c["monomials.antichain.candidates_in"] += len(monos)
                c["monomials.antichain.gens_out"] += len(out)
                return out
        elif name == "monomials.colength":
            def sized(ideal):
                out = fn(ideal)
                c["monomials.colength.box_cells"] += _box_cells(ideal)
                return out
        elif name == "veronese.times":
            def sized(a, b):
                c["veronese.times.pairs"] += len(a.gens) * len(b.gens)
                return fn(a, b)
        else:
            return fn
        return sized

    # -- install / uninstall --------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        home = vars(owner) if isinstance(owner, type) else vars(sys.modules[owner])
        if attr not in home:
            # the program no longer has this entry point; its metrics stay 0
            print(f"tracer: {getattr(owner, '__name__', owner)}.{attr} not found", file=sys.stderr)
            return
        original = home[attr]
        if isinstance(owner, type):
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        wrapper = make(original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "reesag" or mod_name.startswith("reesag."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def install(self) -> None:
        for name, (owner, attr) in SPANS.items():
            self._patch(owner, attr, lambda fn, name=name: self._span(name, self._sized(name, fn)))
        for key, (owner, attr) in COUNTS.items():
            self._patch(owner, attr, lambda fn, key=key: self._count(key, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """calls and self_s per span name, plus the counters and the mul ratio."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - covered[i]
        out: dict[str, float] = dict(self.counts)
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        pairs = self.counts["monomials.mul.pairs"]
        out["monomials.mul.useful_ratio"] = self.counts["monomials.mul.gens_out"] / pairs if pairs else 0.0
        return out

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV: name, start and end (s, from the first span), parent row."""
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i] - origin!r},"
                         f"{self.end[i] - origin!r},{self.parent[i]}\n")


def census() -> None:
    """One minimal call into every wrapped function.

    Run at the start of each traced phase so that every per-layer metric is
    defined on every workload; on a workload that does not use a layer, the
    layer's numbers are this census alone.
    """
    from workloads import binomials, canonical

    m = monomials.maximal_power(2, 1)
    classify.table(3, 2)
    binomials.ineq_gap_telescoped(4, 2)
    canonical.ladder_report(5, 2)
    (m * m).colength()
    m.colon(m)
    m.intersection(m)
    m.multiplicity()
    goodideals.good_report(m, m)
    certificates.verify_claim_containment(certificates.build_certificate_2dim(2), 2)
    veronese.veronese_report(2, 1)
