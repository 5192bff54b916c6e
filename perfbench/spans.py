"""In-memory span recorder and run-time wrappers around program layers.

A traced run installs wrappers around public functions of the
program's modules; nothing inside the program changes.  Each wrapper
records one span (name, start, end, parent) in memory.  A function is
patched wherever a caller looks it up: on its class, in its defining
module and in every loaded ``repro`` module that imported the same
object by name.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (layer name, "module:attr" or "module:Class.method") pairs.
CLI_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("cli.argparse", "repro.cli:build_parser"),
    ("testset.load", "repro.testdata.testset:TestSet.load"),
    ("testset.save", "repro.testdata.testset:TestSet.save"),
    ("testset.reshape", "repro.testdata.testset:TestSet.to_stream"),
    ("testset.reshape", "repro.testdata.testset:TestSet.from_stream"),
    ("bitvec.parse", "repro.core.bitvec:TernaryVector.from_string"),
    ("bitvec.render", "repro.core.bitvec:TernaryVector.to_string"),
    ("encoder.encode", "repro.core.encoder:NineCEncoder.encode"),
    ("decoder.decode", "repro.core.decoder:NineCDecoder.decode_stream"),
    ("parallel.encode", "repro.parallel.encoder:parallel_encode"),
    ("parallel.decode", "repro.parallel.decoder:parallel_decode"),
)

VERIFY_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("gates.build", "repro.decompressor.gates:decoder_netlist"),
    ("gates.build", "repro.decompressor.gates:fsm_logic"),
    ("rtl.emit", "repro.rtl.emit:netlist_to_verilog"),
    ("rtl.parse", "repro.rtl.parser:parse_verilog"),
    ("rtl.elaborate", "repro.rtl.elaborate:elaborate"),
    ("lint.netlist", "repro.lint.netlist:lint_netlist"),
    ("lint.netlist", "repro.lint.netlist:lint_circuits"),
    ("lint.rtl", "repro.lint.rtl:lint_verilog"),
    ("lint.fsm", "repro.lint.fsm:lint_fsm"),
    ("rtl.equiv", "repro.rtl.equiv:run_equiv"),
)


class SpanRecorder:
    """Spans of one process, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent, meta]
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, meta: Optional[dict] = None) -> None:
        self.spans[index][2] = time.perf_counter()
        self.spans[index][4] = meta
        self._stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Seconds per layer: each span's duration minus its children's."""
        own: Dict[str, float] = defaultdict(float)
        child: Dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) - child[index]
        return dict(own)

    def metas(self) -> List[Tuple[str, dict, bool]]:
        """(name, meta, outside any codec span) for spans with counts."""
        out = []
        for name, _, _, parent, meta in self.spans:
            if meta is None:
                continue
            ancestors = set()
            while parent >= 0:
                ancestors.add(self.spans[parent][0])
                parent = self.spans[parent][3]
            out.append((name, meta, not (ancestors & _CODEC)))
        return out

    def write(self, path: Path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p, _ in self.spans]
        path.write_text(json.dumps(rows))


_CODEC = {"encoder.encode", "decoder.decode", "parallel.encode",
          "parallel.decode"}


def _meta_of(name: str, args: tuple, result) -> Optional[dict]:
    """Counts taken at the codec boundary from the call's own values.

    Blocks are counted on both sides; bits in and out are |T_D| and
    |T_E| of the encodes.
    """
    if name in ("encoder.encode", "parallel.encode"):
        return {"blocks": len(result.blocks),
                "bits_in": result.original_length,
                "bits_out": result.compressed_size}
    if name in ("decoder.decode", "parallel.decode"):
        k = args[0].k if name == "decoder.decode" else args[1]
        return {"blocks": -(-len(result) // k)}
    return None


def _wrap(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        meta = None
        try:
            result = fn(*args, **kwargs)
            meta = _meta_of(name, args, result)
            return result
        finally:
            recorder.close(index, meta)
    return wrapper


def install(recorder: SpanRecorder, layers) -> Callable[[], None]:
    """Patch every layer function; returns the function that undoes it."""
    undo: List[Tuple[object, str, object]] = []
    # import every caller first so each one's by-name binding is patched
    for module_name in ("repro.cli", "repro.lint", "repro.rtl.equiv",
                        "repro.parallel"):
        importlib.import_module(module_name)
    for name, target in layers:
        module_name, attr = target.split(":")
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or method not in vars(owner):
            # a renamed layer reads as zero rather than breaking the run
            print(f"perfbench: no {target} to trace", file=sys.stderr)
            continue
        if owner_name:
            cls = owner
            raw = vars(cls)[method]
            if isinstance(raw, classmethod):
                patched = classmethod(_wrap(recorder, name, raw.__func__))
            else:
                patched = _wrap(recorder, name, raw)
            undo.append((cls, method, raw))
            setattr(cls, method, patched)
            continue
        original = getattr(module, attr)
        patched = _wrap(recorder, name, original)
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, attr, None) is original):
                undo.append((loaded, attr, original))
                setattr(loaded, attr, patched)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall
