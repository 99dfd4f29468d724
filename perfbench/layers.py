"""Which public calls of the program the benchmark times, and as which layer.

Every wrapper is installed on a public name: a class method of the public
API, or a module attribute of the module that looks the function up (the
low-rank compressors are patched in the ``repro.formats`` modules, because
that is where the sequential build functions find them).  The layer names here are
the prefixes of the per-layer metrics.
"""

from __future__ import annotations

from typing import Iterable

from tracer import Tracer

#: Layers whose self times, plus an unaccounted remainder, add up to the wall
#: time of a traced section.
RECONCILED_LAYERS = (
    "compress", "core", "solve", "solve.ref", "runtime.record",
    "runtime.execute", "runtime.distributed", "kernels", "lowrank",
    "service.flush", "service.solver_for",
)

def _rank_of(result) -> float:
    if isinstance(result, tuple):  # interpolative_rows -> (skeleton rows, P)
        return float(len(result[0]))
    shape = getattr(result, "shape", None)
    if shape is not None and len(shape) == 2 and not hasattr(result, "rank"):
        return float(shape[1])  # row_basis -> orthonormal basis (m, r)
    return float(getattr(result, "rank", 0))


def _matvec_entries(args, kwargs, result) -> float:
    kmat, x = args[0], args[1]
    cols = x.shape[1] if getattr(x, "ndim", 1) == 2 else 1
    return float(kmat.n) * kmat.n * cols


def install(tracer: Tracer, groups: Iterable[str], *, factors: Iterable[object] = ()) -> None:
    """Wrap the public calls of each layer group in ``groups``.

    Groups: ``api``, ``runtime``, ``kernels``, ``lowrank``, ``service``.
    ``factors`` are factorization objects whose ``solve`` (the sequential
    reference solve) is timed as layer ``solve.ref``.
    """
    groups = set(groups)
    if "api" in groups:
        from repro.api import StructuredSolver

        tracer.wrap(StructuredSolver, "from_kernel", "compress")
        tracer.wrap(StructuredSolver, "factorize", "core")
        tracer.wrap(StructuredSolver, "solve", "solve")
        for cls in {type(f) for f in factors}:
            tracer.wrap(cls, "solve", "solve.ref", sample=True)
    if "runtime" in groups:
        from repro.pipeline import ExecutionPolicy
        from repro.runtime import DTDRuntime

        tracer.wrap(DTDRuntime, "insert_task", "runtime.record", counter=lambda a, k, r: 1.0)
        tracer.wrap(ExecutionPolicy, "execute", "runtime.execute")
        tracer.wrap(DTDRuntime, "run_distributed", "runtime.distributed")
    if "kernels" in groups:
        from repro.kernels.assembly import KernelMatrix

        tracer.wrap(KernelMatrix, "block", "kernels", counter=lambda a, k, r: float(r.size))
        tracer.wrap(KernelMatrix, "matvec", "kernels", counter=_matvec_entries)
    if "lowrank" in groups:
        import repro.formats.blr as blr
        import repro.formats.blr2 as blr2
        import repro.formats.hodlr as hodlr
        import repro.formats.hss as hss

        names = ("interpolative_rows", "row_basis", "compress_svd", "compress_aca", "compress_rsvd")
        for module in (hss, blr2, hodlr, blr):
            for name in names:
                if name in vars(module):
                    tracer.wrap(module, name, "lowrank", counter=lambda a, k, r: _rank_of(r))
    if "service" in groups:
        from repro.service import SolverService

        tracer.wrap(SolverService, "submit", "service.submit")
        tracer.wrap(SolverService, "flush", "service.flush")
        tracer.wrap(SolverService, "solver_for", "service.solver_for")
