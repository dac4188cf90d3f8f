"""Spans and counts at vadkit's module boundaries, recorded from outside.

The tracer wraps public functions of each module and rebinds the wrapper in
every vadkit namespace that holds the original, because `cli`, `evaluate`,
`repro`, `corpus` and `vad` import these functions by name. Nothing in the
package is edited; `uninstall` puts every original back.

A span is (op, id, parent, name, start_ns, end_ns, child_ns). Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from collections import Counter

# (module, function) pairs that get a span. Span names are "<module>.<function>".
SPANNED = (
    ("cli", "main"),
    ("audio_io", "read_wav"),
    ("audio_io", "resample"),
    ("audio_io", "write_wav"),
    ("filters", "apply_cascade"),
    ("vad", "detect_prefiltered"),
    ("vad", "frame_signal"),
    ("vad", "estimate_noise_floor_db"),
    ("vad", "merge_intervals"),
    ("evaluate", "sweep"),
    ("evaluate", "score"),
    ("spectrogram", "spectrogram"),
    ("spectrogram", "to_json_dict"),
    ("spectrogram", "write_pgm"),
    ("mixing", "mix"),
    ("corpus", "generate_corpus"),
    ("repro", "run"),
)
# Called once per frame on the sweep: counted, because a span per call
# would cost more than the call.
COUNTED = (("vad", "frame_energy_db"),)

# Counts reported even when a workload never reaches them.
COUNT_NAMES = (
    "audio_io.read_wav.bytes",
    "audio_io.write_wav.bytes",
    "audio_io.resample.samples_out",
    "audio_io.resample.flops",
    "audio_io.resample.bytes_moved",
    "filters.apply_cascade.sample_sections",
    "filters.apply_cascade.flops",
    "filters.apply_cascade.bytes_moved",
    "vad.frames",
    "vad.frame_energy_db.calls",
    "repro.bytes_out",
)
MODULES = ("audio_io", "filters", "vad", "evaluate", "spectrogram", "mixing", "corpus", "repro", "cli")

# Which end-to-end metric each per-layer figure should move, and on which
# workload. Written down before measuring; a change that moves a layer
# figure should show up here, and nowhere else.
EXPECTED_EFFECT = {
    "audio_io.read_wav": "op_p50_s and peak_rss_mb on detect-long",
    "audio_io.resample": "op_p50_s on detect-long; 0 calls on sweep-corpus and repro-figures",
    "audio_io.write_wav": "op_p50_s on repro-figures",
    "filters.apply_cascade": "op_p50_s on all three workloads, most on detect-long",
    "vad": "op_p50_s on sweep-corpus; vad.frames and frame_energy_db.calls are counts only",
    "evaluate": "op_p50_s on sweep-corpus; energy_reuse is distinct (clip, window) pairs per detect call",
    "spectrogram": "op_p50_s on repro-figures",
    "mixing.mix": "op_p50_s on repro-figures",
    "corpus.generate_corpus": "op_p50_s on repro-figures; setup_s on sweep-corpus",
    "repro": "op_p50_s on repro-figures (waveform CSV and JSON dumps)",
    "cli.main": "op_p50_s on detect-long and sweep-corpus (config, result dicts, JSON writing)",
    "trace": "nothing: tracing overhead and the time no span covers",
}

BIQUAD_FLOPS = 9  # transposed direct form II: 5 multiplies and 4 adds per sample and section
FLOAT_BYTES = 8


def _dir_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, n)) for d, _, names in os.walk(root) for n in names)


def _counts(name: str, args, kwargs, result) -> dict:
    """Work counted at the boundary of one call, from argument and result sizes.

    Operation counts and bytes moved are computed from array sizes, not
    measured: bytes are the arrays read and written once, ignoring caches.
    """
    if name in ("audio_io.read_wav", "audio_io.write_wav"):
        path = args[0] if name == "audio_io.read_wav" else (args[1] if len(args) > 1 else kwargs["path"])
        return {f"{name}.bytes": os.path.getsize(path)}
    if name == "audio_io.resample":
        from vadkit import _kernels

        buffer, target = args[0], args[1]
        if target == buffer.sample_rate_hz or len(buffer) == 0:
            return {}
        up = target // math.gcd(buffer.sample_rate_hz, target)
        taps = _kernels.RESAMPLER_TAPS
        n_out = len(result)
        return {
            f"{name}.samples_out": n_out,
            f"{name}.flops": 2 * taps * n_out,
            f"{name}.bytes_moved": FLOAT_BYTES * (len(buffer) + n_out + up * taps),
        }
    if name == "filters.apply_cascade":
        cascade, buffer = args[0], args[1]
        ss = len(buffer) * len(cascade.sections)
        return {
            f"{name}.sample_sections": ss,
            f"{name}.flops": BIQUAD_FLOPS * ss,
            f"{name}.bytes_moved": FLOAT_BYTES * 2 * len(buffer),
        }
    if name == "vad.detect_prefiltered":
        return {"vad.frames": len(result.frames)}
    if name == "repro.run":
        return {"repro.bytes_out": _dir_bytes(args[0] if args else kwargs["out_dir"])}
    return {}


class Tracer:
    def __init__(self):
        import vadkit.cli  # noqa: F401  (loads every vadkit module)

        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = {}
        self.energy_keys: dict[int, set] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self.op = None
        self._patches = []
        for module, func in SPANNED + COUNTED:
            mod = sys.modules[f"vadkit.{module}"]
            original = getattr(mod, func)
            name = f"{module}.{func}"
            wrapper = self._counter(name, original) if (module, func) in COUNTED else self._spanner(name, original)
            self._patches.append((original, wrapper))

    def _spanner(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, 0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                tracer.spans.append((tracer.op, sid, parent, name, t0, t1, frame[1]))
            counts = tracer.counts[tracer.op]
            counts[f"{name}.calls"] += 1
            counts.update(_counts(name, args, kwargs, result))
            if name == "vad.detect_prefiltered":
                # Distinct (buffer, window) pairs: the energy work a sweep could share.
                tracer.energy_keys[tracer.op].add((id(args[0]), args[1].window_length_s))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[tracer.op][f"{name}.calls"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, swap: dict) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname == "vadkit" or modname.startswith("vadkit."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in swap:
                        setattr(mod, attr, swap[id(value)][1])

    def install(self, op: int) -> None:
        self.op = op
        self.counts[op] = Counter()
        self.energy_keys[op] = set()
        self._rebind({id(orig): (orig, wrap) for orig, wrap in self._patches})

    def uninstall(self) -> None:
        self._rebind({id(wrap): (wrap, orig) for orig, wrap in self._patches})
        self.op = None

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for op, sid, parent, name, t0, t1, child in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1, "self_ns": t1 - t0 - child}) + "\n")

    def op_summary(self, op: int, wall_s: float) -> dict:
        """Per-layer figures of one traced op."""
        busy, self_s = Counter(), Counter()
        root_s = 0.0
        n_spans = 0
        for s_op, _, parent, name, t0, t1, child in self.spans:
            if s_op != op:
                continue
            n_spans += 1
            busy[name] += (t1 - t0) / 1e9
            self_s[name] += (t1 - t0 - child) / 1e9
            if parent is None:
                root_s += (t1 - t0) / 1e9
        counts = self.counts[op]
        out = {}
        for module, func in SPANNED:
            name = f"{module}.{func}"
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = counts[f"{name}.calls"]
        for key in COUNT_NAMES:
            out[key] = counts[key]
        for module in MODULES:
            out[f"{module}.self_share"] = sum(v for k, v in self_s.items() if k.startswith(module + ".")) / wall_s
        calls = counts["vad.detect_prefiltered.calls"]
        out["evaluate.energy_reuse"] = len(self.energy_keys[op]) / calls if calls else 0.0
        ss = counts["filters.apply_cascade.sample_sections"]
        out["filters.apply_cascade.ns_per_sample_section"] = busy["filters.apply_cascade"] * 1e9 / ss if ss else 0.0
        out["trace.residue_s"] = wall_s - root_s
        out["trace.spans"] = n_spans
        return out


def median_summary(summaries: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
