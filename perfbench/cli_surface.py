"""File-to-file codec and RTL-verify passes through ``repro.cli.main``.

Every call goes through the program's public CLI entry point in this
(warm) process with its stdout captured; outputs are checked against
the benchmark's own copy of the inputs, never against the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import workload_inputs as wi


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failures."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def record(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 8:
                self.notes.append(note)


def call_cli(argv: List[str]) -> Tuple[int, float, str]:
    """Run ``repro.cli.main(argv)``; return (exit code, seconds, stdout)."""
    from repro.cli import main

    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 - an untyped error is a failed op
        out.write(f"{type(exc).__name__}: {exc}")
        code = 99
    return int(code or 0), time.perf_counter() - start, out.getvalue()


@dataclass
class CodecSet:
    """One input test set on disk plus what its outputs must satisfy."""

    name: str
    cells: int
    data: np.ndarray
    source: Path
    compressed: Path
    restored: Path

    @property
    def bits(self) -> int:
        return len(self.data)


@dataclass
class CodecPass:
    compress_s: float
    decompress_s: float
    td_bits: int
    te_bits: int
    bytes_read: int
    bytes_written: int


def codec_pass(sets: List[CodecSet], k: int, workers: int,
               tally: Tally) -> CodecPass:
    """Compress then decompress every set, file to file, and check them."""
    compress_s = decompress_s = 0.0
    td = te = read = written = 0
    for item in sets:
        # stale outputs of an earlier pass must not hide a failed call
        item.compressed.unlink(missing_ok=True)
        item.restored.unlink(missing_ok=True)
        code, seconds, out = call_cli([
            "compress", str(item.source), "--k", str(k),
            "--workers", str(workers), "-o", str(item.compressed)])
        compress_s += seconds
        ok = code == 0 and item.compressed.exists()
        tally.record(ok, f"compress {item.name}: exit {code} {out[-200:]}")
        if not ok:
            continue
        code, seconds, out = call_cli([
            "decompress", str(item.compressed), "--k", str(k),
            "--cells", str(item.cells), "--length", str(item.bits),
            "--workers", str(workers), "-o", str(item.restored)])
        decompress_s += seconds
        ok = code == 0 and item.restored.exists()
        if ok:
            decoded = wi.parse_codes("".join(wi.read_rows(item.restored)))
            ok = wi.covers(decoded, item.data)
        tally.record(ok, f"decompress {item.name}: exit {code} {out[-200:]}")
        if not ok:
            continue
        td += item.bits
        te += len("".join(wi.read_rows(item.compressed)))
        read += item.source.stat().st_size + item.compressed.stat().st_size
        written += item.compressed.stat().st_size + item.restored.stat().st_size
    return CodecPass(compress_s, decompress_s, td, te, read, written)


@dataclass
class VerifyPass:
    seconds: float
    checked: Dict[str, int]


def verify_pass(workdir: Path, ks: List[int], tally: Tally) -> VerifyPass:
    """Emit, re-import with lint+equiv, then lint, for every K."""
    checked: Dict[str, int] = {}
    start = time.perf_counter()
    for k in ks:
        rtl = workdir / f"decoder_k{k}.v"
        rtl.unlink(missing_ok=True)
        code, _, out = call_cli(["rtl", "--structural", "--k", str(k),
                                 "-o", str(rtl)])
        tally.record(code == 0 and rtl.exists(), f"rtl k={k}: {out[-200:]}")
        code, _, out = call_cli([
            "import-rtl", str(rtl), "--k", str(k), "--lint", "--equiv",
            "--waive-shifter", "--format", "json"])
        ok = code == 0
        try:
            report = json.loads(out)
            legs = report["equiv"]["legs"]
            ok = (ok and report["equiv"]["ok"]
                  and report["lint"]["errors"] == 0
                  and {leg["leg"] for leg in legs}
                  == {"EQ001", "EQ002", "EQ003", "EQ004"}
                  and all(leg["status"] == "pass" for leg in legs))
            for leg in legs:
                checked[leg["leg"]] = checked.get(leg["leg"], 0) + leg["checked"]
        except (ValueError, KeyError, TypeError):
            ok = False
        tally.record(ok, f"import-rtl k={k}: exit {code} {out[-200:]}")
    code, _, out = call_cli(["lint", "--only", "netlist", "fsm", "rtl",
                             "equiv", "--k", *map(str, ks),
                             "--format", "json"])
    try:
        ok = code == 0 and json.loads(out)["errors"] == 0
    except (ValueError, KeyError):
        ok = False
    tally.record(ok, f"lint: exit {code} {out[-200:]}")
    return VerifyPass(time.perf_counter() - start, checked)
