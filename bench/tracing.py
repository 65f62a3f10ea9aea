"""Per-layer tracing by wrapping tiltwall's public functions from outside.

Each target is replaced at every module attribute that callers look up (for
`walls.numerical_wall` only at `tiltwall.walls`, so the count is the scan's
own), and restored afterwards; nothing under src/ changes. A wrapper records
calls, span time and the time of its direct child spans, so self time is
span time minus child time. Spans nest on one stack, which is why the
workloads drop TILTWALL_THREADS: the scan and the grid search run serially.

A target that a later version of tiltwall no longer has is reported as
absent and its metrics read 0.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# (metric prefix, defining module, attribute path, patch sites or None for all)
TARGETS = [
    ("walls.enumerate_destabilizers", "walls", "enumerate_destabilizers", None),
    ("walls.candidate_box", "walls", "candidate_box", None),
    ("walls.numerical_wall", "walls", "numerical_wall", ("walls",)),
    ("walls.tilt_slope_reduced", "walls", "tilt_slope_reduced", None),
    ("chern.disc_bar_reduced", "chern", "disc_bar_reduced", None),
    ("chern.twist", "chern", "twist", None),
    ("geometry.tensor_product_char", "geometry", "tensor_product_char", None),
    ("geometry.euler_char", "geometry", "euler_char", None),
    ("geometry.line_bundle_char", "geometry", "line_bundle_char", None),
    ("stability.nu", "stability", "nu", None),
    ("stability.central_charge", "stability", "central_charge", None),
    ("support.verify_support", "support", "verify_support", None),
    ("support.is_negative_definite_on", "support", "is_negative_definite_on", None),
    ("support.equality_case_fixtures", "support", "equality_case_fixtures", None),
    ("support.QForm6.value_char", "support", "QForm6.value_char", None),
    ("exactnum.is_positive_definite", "exactnum", "is_positive_definite", None),
    ("exactnum.RatMatrix.kernel_basis", "exactnum", "RatMatrix.kernel_basis", None),
    ("exactnum.ceil_sqrt", "exactnum", "ceil_sqrt", None),
    ("parallel.pmap", "parallel", "pmap", None),
    ("selftest.run_selftest", "selftest", "run_selftest", None),
    ("cli.build_parser", "cli", "build_parser", None),
]

# Every function defined in this module is one inequality span.
INEQUALITY_MODULE = "inequalities"

COUNTERS = (
    "walls.candidates",
    "walls.walls_found",
    "support.cells",
    "support.witnesses",
    "parallel.pmap.items",
    "selftest.checks",
)


def half_integers_in(lo: Fraction, hi: Fraction) -> int:
    """Number of half-integers in the closed interval [lo, hi]."""
    first = -((-2 * lo.numerator) // lo.denominator)  # ceil(2 lo)
    last = (2 * hi.numerator) // hi.denominator  # floor(2 hi)
    return max(0, last - first + 1)


def box_size(candidate_box, u, rank_bound: int) -> int:
    """Classes in the scan's candidate box: the c range and d interval per rank."""
    n = 0
    for _r, c_lo, c_hi, d_interval in candidate_box(u, rank_bound):
        for c_w in range(c_lo, c_hi + 1):
            iv = d_interval(c_w)
            if iv is not None:
                n += half_integers_in(*iv)
    return n


class Tracer:
    """Aggregated spans and counters for the wrapped tiltwall functions."""

    def __init__(self, tw):
        self.tw = tw
        self.stats: dict[str, list] = {}  # name -> [calls, span_s, child_s]
        self.counts = {k: 0 for k in COUNTERS}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._paused = [False]  # set while a count hook calls into tiltwall
        self._candidate_box = None
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        tw = self.tw
        self.absent = []
        after = {
            "walls.enumerate_destabilizers": self._after_enumerate,
            "support.verify_support": self._after_verify_support,
            "selftest.run_selftest": self._after_selftest,
        }
        for name, module, path, sites in TARGETS:
            owner, attr, original = self._resolve(module, path)
            if original is None:
                self.absent.append(name)
                continue
            if name == "walls.enumerate_destabilizers":
                self._candidate_box = getattr(tw.walls, "candidate_box", None)
            if name == "walls.candidate_box":
                wrapper = self._wrap(name, original, materialize=True)
            elif name == "parallel.pmap":
                wrapper = self._wrap_pmap(name, original)
            else:
                wrapper = self._wrap(name, original, after=after.get(name))
            if "." in path:  # method: patch the class
                self._patch(owner, attr, wrapper)
            else:
                self._patch_sites(original, wrapper, sites)
        ineq = getattr(tw, INEQUALITY_MODULE)
        for attr, fn in list(vars(ineq).items()) if ineq is not None else []:
            if callable(fn) and getattr(fn, "__module__", None) == ineq.__name__ \
                    and not isinstance(fn, type) and not attr.startswith("_"):
                self._patch_sites(fn, self._wrap(f"inequalities.{attr}", fn), None)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def _resolve(self, module: str, path: str):
        mod = getattr(self.tw, module, None)
        if mod is None:
            return None, None, None
        owner, *rest = path.split(".")
        if rest:
            cls = getattr(mod, owner, None)
            attr = rest[0]
            fn = vars(cls).get(attr) if cls is not None else None
            return cls, attr, fn
        return mod, owner, getattr(mod, owner, None)

    def _patch(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _patch_sites(self, original, wrapper, sites) -> None:
        names = [f"tiltwall.{s}" for s in sites] if sites else [
            m for m in list(sys.modules) if m == "tiltwall" or m.startswith("tiltwall.")
        ]
        for mod_name in names:
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    # ------------------------------------------------------------- spans

    def _wrap(self, name: str, fn, materialize: bool = False, after=None,
              transparent: bool = False):
        """Span wrapper. A transparent span is timed but is not a child of its
        caller, and its own children count as the caller's."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        paused = self._paused
        clock = time.perf_counter

        if transparent:
            def wrapper(*args, **kwargs):
                if paused[0]:
                    return fn(*args, **kwargs)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    stat[0] += 1
                    stat[1] += clock() - t0

            return wrapper

        def wrapper(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += stack.pop()
                if stack:
                    stack[-1] += dt
            if after is not None:
                paused[0] = True
                try:
                    after(args, kwargs, result)
                finally:
                    paused[0] = False
            return result

        return wrapper

    def _wrap_pmap(self, name: str, fn):
        # Transparent: the work a pool runs belongs to the caller's self time,
        # with or without the pool.
        inner = self._wrap(name, fn, transparent=True)
        counts = self.counts

        paused = self._paused

        def pmap(f, items):
            items = list(items)
            if not paused[0]:
                counts["parallel.pmap.items"] += len(items)
            return inner(f, items)

        return pmap

    # ------------------------------------------------------- count hooks

    def _after_enumerate(self, args, kwargs, result) -> None:
        u = args[0] if args else kwargs["u"]
        rank_bound = args[1] if len(args) > 1 else kwargs["rank_bound"]
        self.counts["walls.walls_found"] += len(result)
        if self._candidate_box is not None:
            self.counts["walls.candidates"] += box_size(self._candidate_box, u, rank_bound)

    def _after_verify_support(self, args, kwargs, result) -> None:
        lams = args[2] if len(args) > 2 else kwargs["lambda_candidates"]
        mus = args[3] if len(args) > 3 else kwargs["mu_candidates"]
        self.counts["support.cells"] += len(lams) * len(mus)
        witness_type = getattr(self.tw.support, "SupportWitness", ())
        if isinstance(result, witness_type):
            self.counts["support.witnesses"] += 1

    def _after_selftest(self, args, kwargs, result) -> None:
        self.counts["selftest.checks"] += sum(checks for _name, checks, _fails in result)

    # ----------------------------------------------------------- readout

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        for key in self.counts:
            self.counts[key] = 0

    def snapshot(self) -> dict:
        """Calls and counters only: the exact part of a trace."""
        snap = {f"{k}.calls": v[0] for k, v in self.stats.items()}
        snap.update(self.counts)
        return snap

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def span_ms(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1] * 1000

    def self_ms(self, name: str) -> float:
        stat = self.stats.get(name, [0, 0.0, 0.0])
        return (stat[1] - stat[2]) * 1000

    def group(self, prefix: str) -> tuple[int, float]:
        """Calls and self time summed over every span whose name has `prefix`."""
        calls = 0
        self_s = 0.0
        for name, (n, span, child) in self.stats.items():
            if name.startswith(prefix):
                calls += n
                self_s += span - child
        return calls, self_s * 1000
