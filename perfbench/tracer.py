"""Per-layer tracing of the aldous package from outside it.

A layer is one module of the package. Tracer.install() wraps every public
function of every layer, plus the few public methods listed in METHODS, at
every module binding of the object: `from .x import y` copies (for example
`spectrum` in spectral, order, verify and cli) and module-level dicts such
as verify.SUITES all get the same wrapper. Each call records a span
(name, start, end, parent) in memory; all spans of one run share the run
id, and write_spans() stores them when the run ends. A span's self time is
its duration minus the time its child spans cover.

A few functions carry hooks that read their arguments, result or cache
counters, for the per-layer metrics that need more than time and calls.
The wrappers change no argument and no result, so a traced run must produce
byte-identical outputs to an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("partitions", "graphs", "symrep", "spectral", "characters",
          "order", "game", "verify", "cli")

# Public methods traced besides module-level functions. Hot accessors such
# as RelationLedger.status are left out on purpose: they run hundreds of
# thousands of times inside close_transitively and would time mostly the
# wrapper.
METHODS = {
    "order.RelationLedger": ("close_transitively", "to_json", "from_json",
                             "unknown_pairs", "proved_pairs", "refuted_pairs"),
    "graphs.WeightedGraph": ("from_edges", "from_json", "to_json", "edges"),
    "characters.ClassFunction": ("inner",),
}

SUITE_NAMES = ("lemma9", "qc", "hooks", "characters", "oracle", "bounds",
               "dual", "consistency")

EIG_BUCKETS = ((16, "d1-16"), (64, "d17-64"), (256, "d65-256"),
               (float("inf"), "d257-up"))


def _defined_in(obj, module_name: str) -> bool:
    target = getattr(obj, "__wrapped__", obj)
    return inspect.isfunction(target) and target.__module__ == module_name


class Tracer:
    """Span recorder plus the counters behind the per-layer metrics."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self.active: list[int] = []
        self.span_fid = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.ledgers: list = []
        self._generator_images: dict[int, object] = {}
        self._patches: list = []
        self._fid: dict[str, int] = {}

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"aldous.{layer}") for layer in LAYERS}
        package = importlib.import_module("aldous")
        originals: dict[int, tuple[str, object]] = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if not name.startswith("_") and _defined_in(obj, module.__name__):
                    originals[id(obj)] = (f"{layer}.{name}", obj)
        hooks = self._hooks()
        wrappers = {key: self._wrap(name, obj, hooks.get(name))
                    for key, (name, obj) in originals.items()}

        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, name, obj, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._patch_item(obj, key, value, wrappers[id(value)])

        for qualified, methods in METHODS.items():
            layer, cls_name = qualified.split(".")
            cls = getattr(modules[layer], cls_name)
            for name in methods:
                raw = cls.__dict__[name]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(f"{qualified}.{name}", raw.__func__, None))
                else:
                    wrapped = self._wrap(f"{qualified}.{name}", raw, None)
                self._patch(cls, name, raw, wrapped)

    def uninstall(self) -> None:
        for restore in reversed(self._patches):
            restore()
        self._patches.clear()

    def _patch(self, owner, name, old, new) -> None:
        setattr(owner, name, new)
        self._patches.append(lambda: setattr(owner, name, old))

    def _patch_item(self, mapping, key, old, new) -> None:
        mapping[key] = new
        self._patches.append(lambda: mapping.__setitem__(key, old))

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        fid = len(self.names)
        self._fid[name] = fid
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        self.active.append(0)
        before = hook[0] if hook else None
        after = hook[1] if hook else None

        clock = time.perf_counter
        stack = self.stack
        span_fid, span_parent = self.span_fid, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, self_s, incl_s, active = self.calls, self.self_s, self.incl_s, self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(fn) if before else None
            idx = len(span_start)
            span_fid.append(fid)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            active[fid] += 1
            result = error = None
            t0 = clock()
            span_start.append(t0)
            span_end.append(t0)
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                span_end[idx] = t1
                calls[fid] += 1
                self_s[fid] += own
                active[fid] -= 1
                if not active[fid]:
                    incl_s[fid] += dur
                if after:
                    after(fn, state, args, kwargs, result, error, own)

        return wrapper

    # -- hooks ----------------------------------------------------------------

    def _hooks(self) -> dict:
        misses = lambda fn: fn.cache_info().misses  # noqa: E731
        return {
            "spectral.spectrum": (None, self._on_spectrum),
            "spectral.quasi_complete_spectrum": (None, self._on_quasi),
            "symrep.rep_adjacent": (misses, self._on_generator),
            "symrep.rep_transposition": (misses, self._on_generator),
            "partitions.content_matrix": (misses, self._on_tableaux),
            "symrep.tableau_basis": (misses, self._on_tableaux),
            "order.lambda_extremes": (misses, self._on_lambda),
            "order.scan": (None, self._on_scan),
            "order.seed_known": (None, self._on_seed),
        }

    def _on_spectrum(self, fn, state, args, kwargs, result, error, own):
        if error is not None:
            return
        d = len(result)
        for top, label in EIG_BUCKETS:
            if d <= top:
                self.counters[f"eig_s.{label}"] += own
                break
        self.counters["eig_dcubed"] += d ** 3

    def _on_quasi(self, fn, state, args, kwargs, result, error, own):
        exact = kwargs.get("exact", args[2] if len(args) > 2 else False)
        if exact and error is None:
            self.counters["exact_s"] += own
            self.counters["exact_rows"] += len(result)

    def _on_generator(self, fn, state, args, kwargs, result, error, own):
        if error is None and fn.cache_info().misses > state:
            self.counters["generators_s"] += own
            if id(result) not in self._generator_images:
                self._generator_images[id(result)] = result
                self.counters["generator_bytes"] += result.nbytes

    def _on_tableaux(self, fn, state, args, kwargs, result, error, own):
        if error is None and fn.cache_info().misses > state:
            rows = result.shape[0] if hasattr(result, "shape") else len(result[0])
            self.counters["tableaux_built"] += rows

    def _on_lambda(self, fn, state, args, kwargs, result, error, own):
        from aldous.symrep import DimensionCapExceeded

        if isinstance(error, DimensionCapExceeded):
            self.counters["skipped_shapes"] += 1
        elif error is None and fn.cache_info().misses > state:
            self.counters["lambda_evals"] += 1
            self.counters["lambda_exact"] += bool(result[2])

    def _on_scan(self, fn, state, args, kwargs, result, error, own):
        if error is None:
            self.ledgers.append(result[0])

    def _on_seed(self, fn, state, args, kwargs, result, error, own):
        # a scan seeds its own ledger; count that one through the scan
        if error is None and not self.active[self._fid["order.scan"]]:
            self.ledgers.append(result)

    # -- results --------------------------------------------------------------

    def _self(self, name: str) -> float:
        return self.self_s[self._fid[name]]

    def _incl(self, name: str) -> float:
        return self.incl_s[self._fid[name]]

    def _count(self, name: str) -> int:
        return self.calls[self._fid[name]]

    def metrics(self, wall_s: float, ledger_file: Path) -> dict:
        """Every per-layer metric of the traced run, by name; ledger_file is
        the ledger JSON the workload wrote, if it wrote one."""
        from aldous import game, order, partitions, symrep

        c = self.counters
        layer_self = defaultdict(float)
        for fid, name in enumerate(self.names):
            layer_self[name.split(".")[0]] += self.self_s[fid]

        def ratio(num, den):
            return num / den if den else 0.0

        def hit_ratio(*fns):
            infos = [fn.cache_info() for fn in fns]
            return ratio(sum(i.hits for i in infos),
                         sum(i.hits + i.misses for i in infos))

        refuted = [e for ledger in self.ledgers for e in ledger.entries.values()
                   if e.status == "refuted"]
        numeric_margins = [e.margin for e in refuted if not e.exact]

        m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        m.update({
            **{f"spectral.eig_s.{label}": c[f"eig_s.{label}"] for _, label in EIG_BUCKETS},
            "spectral.eig_calls": self._count("spectral.spectrum"),
            "spectral.eig_dcubed": int(c["eig_dcubed"]),
            "spectral.exact_s": c["exact_s"],
            "spectral.exact_rows": int(c["exact_rows"]),
            "symrep.generators_s": c["generators_s"],
            "symrep.cache_mb": c["generator_bytes"] / 2**20,
            "symrep.transposition_hit_ratio": hit_ratio(symrep.rep_transposition),
            "symrep.assembly_s": self._self("symrep.delta_matrix"),
            "symrep.assembly_calls": self._count("symrep.delta_matrix"),
            "symrep.regular_s": self._incl("symrep.regular_delta"),
            "partitions.tableaux_s": (self._incl("partitions.content_matrix")
                                      + self._incl("symrep.tableau_basis")),
            "partitions.tableaux_built": int(c["tableaux_built"]),
            "partitions.cache_hit_ratio": hit_ratio(partitions.content_matrix,
                                                    symrep.tableau_basis),
            "order.closure_s": self._incl("order.RelationLedger.close_transitively"),
            "order.seed_self_s": self._self("order.seed_known"),
            "order.scan_self_s": self._self("order.scan"),
            "order.lambda_calls": self._count("order.lambda_extremes"),
            "order.lambda_hit_ratio": hit_ratio(order.lambda_extremes),
            "order.exact_share": ratio(c["lambda_exact"], c["lambda_evals"]),
            "order.refutations_exact": len(refuted) - len(numeric_margins),
            "order.refutations_numeric": len(numeric_margins),
            "order.min_margin": min(numeric_margins, default=0.0),
            "order.skipped_shapes": int(c["skipped_shapes"]),
            "graphs.nested_detect_s": self._incl("graphs.quasi_complete_weights"),
            "graphs.build_s": layer_self["graphs"]
            - self._self("graphs.quasi_complete_weights")
            - self._self("graphs.support_matching_number"),
            "characters.trace_s": self._incl("characters.character_from_rep"),
            "game.minimax_s": self._incl("game.game_winner") + self._incl("game.game_trace"),
            "game.memo_hit_ratio": hit_ratio(game._a_wins),
            **{f"verify.{name}_s": self._incl(f"verify.suite_{name}") for name in SUITE_NAMES},
            "verify.game_s": self._incl("verify.game_consistency_run"),
            "cli.ledger_bytes": ledger_file.stat().st_size if ledger_file.exists() else 0,
            "unattributed_share": max(0.0, 1.0 - sum(self.self_s) / wall_s) if wall_s else 0.0,
        })
        return m

    def write_spans(self, path: Path) -> None:
        """All spans of the run as arrays: name id, parent span, start, end."""
        import numpy as np

        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 fid=np.frombuffer(self.span_fid, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
