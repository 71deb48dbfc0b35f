"""In-memory span recorder for calls into fewtune's public functions.

`Tracer.install` replaces each listed function at its module attribute,
and at every other fewtune module attribute that holds the same object
(``from .x import f`` makes a second binding), with a wrapper that
records one span per call: id, name, start, end and parent span id.
Spans stay in typed arrays until `Tracer.dump` writes them once, with
the run id and pid, at the end of the process. `SpanSummary` turns a
dump into per-name call counts and self time, where self time is a
span's duration minus the durations of its direct child spans.

Forked pool workers inherit the wrappers but not the recording: the
tracer switches itself off in the child after fork, so only the
process that installed it records spans.
"""

from __future__ import annotations

import array
import functools
import os
import sys
import time

import numpy as np

# diffcore ops whose forward self time is reported per op type
OPS = (
    "matmul", "add", "sub", "mul", "div", "reshape", "transpose", "tensor_sum",
    "tensor_mean", "relu", "clamp_min", "exp", "log", "sqrt", "l2_normalize",
    "cosine_matrix", "squared_euclidean_matrix", "batch_norm",
)

# module -> public functions that get a span named "<module>.<function>"
FUNCTIONS = {
    "diffcore": ("backward", "sgd_step", "zero_grads", *OPS),
    "fewshot": (
        "finetune", "embed", "images_to_batch", "infer", "classify_cosine",
        "pristine_state", "meta_train",
    ),
    "losses": ("finetune_objective", "cosface_loss", "ptloss", "compute_prototypes", "proto_xent"),
    "imageaug": ("augment",),
    "episodes": ("sample_episode", "build_pseudo_query", "load_dataset"),
    "ppm": ("read_ppm",),
    "evalharness": ("run_episode", "run_eval", "mean_and_ci95", "config_fingerprint", "emit_report"),
    "synthetic": ("generate_synthetic",),
    "cli": ("main",),
}

# (module, class, method) -> span "<module>.<class>.<method>"
METHODS = (
    ("fewshot", "Backbone", "load"),
    ("fewshot", "Backbone", "to_bytes"),
    ("rng", "RngStream", "generator"),
)


def _run_eval_arm(args, kwargs) -> str:
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "?")
    return f"evalharness.run_eval.{mode}"


# spans whose name depends on the call's arguments
NAMERS = {"evalharness.run_eval": _run_eval_arm}


class Tracer:
    """Records spans of the calling process only; see module docstring."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.pid = os.getpid()
        self.active = True
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array.array("q")
        self.name_col = array.array("i")
        self.starts = array.array("q")
        self.ends = array.array("q")
        self.parents = array.array("q")
        self.stack = [0]  # 0 is the implicit root
        self.next_id = 1
        self.counters = {"diffcore.tensors_created": 0, "diffcore.tape_nodes": 0, "diffcore.graphs": 0}
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        self.active = False

    def name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, fn, name: str):
        fixed = self.name_id(name)
        namer = NAMERS.get(name)
        clock = time.perf_counter_ns
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            sid = tr.next_id
            tr.next_id = sid + 1
            stack = tr.stack
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tr.ids.append(sid)
                tr.name_col.append(fixed if namer is None else tr.name_id(namer(args, kwargs)))
                tr.starts.append(start)
                tr.ends.append(end)
                tr.parents.append(parent)

        return traced

    def install(self) -> None:
        """Wrap every listed function and method of the imported fewtune."""
        import fewtune.cli  # noqa: F401  (imports every module listed above)
        from fewtune import diffcore

        replaced: dict[int, object] = {}
        for module_name, functions in FUNCTIONS.items():
            module = sys.modules[f"fewtune.{module_name}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                replaced[id(original)] = self.wrap(original, f"{module_name}.{fn_name}")
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "fewtune" or module_name.startswith("fewtune.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

        for module_name, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"fewtune.{module_name}"], cls_name)
            raw = cls.__dict__[method]
            name = f"{module_name}.{cls_name}.{method}"
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(self.wrap(raw.__func__, name)))
            else:
                setattr(cls, method, self.wrap(raw, name))

        self._count_tensors(diffcore.DiffTensor)
        self._count_tape_nodes(diffcore.ComputeGraph)

    def _count_tensors(self, cls) -> None:
        original = cls.__init__
        counters = self.counters

        def counted_init(obj, *args, **kwargs):
            counters["diffcore.tensors_created"] += 1
            original(obj, *args, **kwargs)

        cls.__init__ = counted_init

    def _count_tape_nodes(self, cls) -> None:
        original = cls.__dict__["from_root"].__func__
        counters = self.counters

        def counted_from_root(graph_cls, root):
            graph = original(graph_cls, root)
            counters["diffcore.tape_nodes"] += len(graph.nodes)
            counters["diffcore.graphs"] += 1
            return graph

        cls.from_root = classmethod(counted_from_root)

    def dump(self, path) -> None:
        """Write every recorded span once, as columns of an .npz file."""
        self.active = False
        n = len(self.ids)
        np.savez(
            path,
            id=np.frombuffer(self.ids, dtype=np.int64),
            name=np.frombuffer(self.name_col, dtype=np.int32),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            run_id=np.full(n, self.run_id, dtype=np.int64),
            pid=np.full(n, self.pid, dtype=np.int64),
            names=np.array(self.names, dtype=str),
        )


class SpanSummary:
    """Per-name call counts, self time and span durations of one dump."""

    def __init__(self, path):
        with np.load(path) as z:
            ids, name, parent = z["id"], z["name"], z["parent"]
            dur = (z["end_ns"] - z["start_ns"]).astype(np.float64) * 1e-9
            self.names = [str(n) for n in z["names"]]
        # ids run 1..n; every span started is also ended and recorded
        order = np.argsort(ids)
        dur, name, parent = dur[order], name[order], parent[order]
        child = np.bincount(parent, weights=dur, minlength=len(dur) + 1)[1:]
        self_s = dur - child
        k = len(self.names)
        self.spans = len(dur)
        self._calls = np.bincount(name, minlength=k)
        self._self = np.bincount(name, weights=self_s, minlength=k)
        self._dur = dur
        self._name = name

    def _idx(self, name: str):
        return self.names.index(name) if name in self.names else None

    def calls(self, name: str) -> int:
        i = self._idx(name)
        return 0 if i is None else int(self._calls[i])

    def self_s(self, name: str) -> float:
        i = self._idx(name)
        return 0.0 if i is None else float(self._self[i])

    def durations(self, name: str) -> np.ndarray:
        i = self._idx(name)
        return self._dur[self._name == i] if i is not None else np.zeros(0)

    def total_s(self, name: str) -> float:
        return float(self.durations(name).sum())
