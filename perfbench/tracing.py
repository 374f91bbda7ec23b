"""In-memory span recorder for the traced benchmark run.

Spans are recorded only around calls into the package's public API, from
outside the package: the benchmark wraps its own calls, passes proxy objects
where the package accepts one (the basis handed to ``compress`` and the
solvers, the operator handed to the solvers), and rebinds four module-level
names for the duration of a traced pipeline.  The untraced run uses
``NullTracer``, which installs nothing.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

import sampletbp.bench
import sampletbp.operator
import sampletbp.solver
from sampletbp.operator import CompressedOperator


class NullTracer:
    """Tracing off: spans are no-ops and objects are passed through."""

    def span(self, name):
        return contextlib.nullcontext()

    def basis(self, basis):
        return basis

    def operator(self, op):
        return op

    def patched(self):
        return contextlib.nullcontext()


class Tracer:
    """Records (name, start, end, parent) spans plus per-name samples."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.samples = defaultdict(list)  # name -> recorded sizes
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None,
                           self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = perf_counter()

    def wrap(self, name, fn, size=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if size is not None:
                self.samples[name].append(size(*args, **kwargs))
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def basis(self, basis):
        return _TracedBasis(basis, self)

    def operator(self, op):
        return _TracedOperator(op, self)

    @contextlib.contextmanager
    def patched(self):
        """Rebind the module-level names the package calls internally."""
        def cross_entries(spec, xs, ys):
            return len(np.atleast_2d(xs)) * len(np.atleast_2d(ys))

        targets = [
            (sampletbp.operator, "assemble_dense",
             self.wrap("kernel.assemble", sampletbp.operator.assemble_dense)),
            (CompressedOperator, "from_dense", staticmethod(
                self.wrap("operator.threshold",
                          CompressedOperator.from_dense))),
            (sampletbp.solver, "estimate_lipschitz",
             self.wrap("operator.lipschitz",
                       sampletbp.solver.estimate_lipschitz)),
            (sampletbp.bench, "cross_matrix",
             self.wrap("kernel.cross", sampletbp.bench.cross_matrix,
                       size=cross_entries)),
        ]
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in targets]
        try:
            for owner, attr, new in targets:
                setattr(owner, attr, new)
            yield
        finally:
            for owner, attr, old in saved:
                setattr(owner, attr, old)

    # -- summaries -----------------------------------------------------------

    def totals(self):
        """name -> (summed duration, call count, summed self time)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            rec = out[name]
            rec[0] += end - start
            rec[1] += 1
            rec[2] += end - start - child[i]
        return dict(out)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "samples": dict(self.samples)}, fh)


class _TracedBasis:
    """Basis proxy: spans around the two transforms, the rest forwarded."""

    def __init__(self, basis, tracer):
        self._basis = basis
        self.forward = tracer.wrap("samplet.forward", basis.forward)
        self.inverse = tracer.wrap("samplet.inverse", basis.inverse)

    def __getattr__(self, name):
        return getattr(self._basis, name)


class _TracedOperator:
    """Operator proxy: spans around matvecs and Gram blocks."""

    def __init__(self, op, tracer):
        self._op = op
        self.matvec = tracer.wrap("operator.matvec", op.matvec)
        self.matvec_transpose = tracer.wrap("operator.rmatvec",
                                            op.matvec_transpose)
        self.rmatvec = self.matvec_transpose
        self.gram_submatrix = tracer.wrap(
            "operator.gram", op.gram_submatrix,
            size=lambda rows, cols: len(rows))

    def __getattr__(self, name):
        return getattr(self._op, name)


def matvec_bytes(op):
    """Bytes one CSR/CSC product reads and writes, computed from array sizes
    (values, indices, offsets, input and output vectors); cache behaviour
    is not modelled."""
    m = op.matrix
    return (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
            + 8 * (m.shape[0] + m.shape[1]))
