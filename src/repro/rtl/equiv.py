"""Three-way decoder equivalence: behavioral RTL ≡ FSM spec ≡ gates.

The repo carries three executable models of the 9C decoder:

1. the **specification** — :class:`repro.decompressor.fsm.NineCDecoderFSM`
   and its :meth:`transition_table`, straight from paper Figure 2;
2. the **behavioral RTL** —
   :func:`repro.decompressor.verilog.generate_decoder_verilog`, executed
   by the bundled interpreter;
3. the **gate-level netlist** —
   :func:`repro.decompressor.gates.decoder_netlist`, the QM-minimized
   structure (or a structural-Verilog import of it).

This module proves all three agree, with counterexample traces when
they do not.  Four legs, surfaced as lint rules (see ``docs/rtl.md``):

======  ==============================================================
EQ001   behavioral RTL ≡ handshake oracle built from the transition
        table: exhaustive product-machine BFS over every reachable
        (RTL state, oracle state) pair under every admissible input,
        for **every** K, plus seeded randomized stream cosimulation
        against the software decoder.
EQ002   gate netlist ≡ FSM truth tables, word level: every scan-input
        assignment (exhaustive up to ``exhaustive_limit`` words, seeded
        random above) checked against the minterm sets of
        :func:`repro.decompressor.gates.fsm_logic`, the counter
        recurrence and the shifter wiring.  Needs the conventional net
        names; skipped (not failed) for imports that renamed them.
EQ003   FSM *recovered from gates alone* ≡ transition table: a
        bisimulation between :func:`repro.rtl.passes.detect_fsms`
        output and the specification, with no reliance on net names —
        the leg that still bites on an imported, renamed netlist.
EQ004   structural round trip: emit the netlist as Verilog, re-import
        it, require bit-identical structure and an NL-lint-clean
        result.
======  ==============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..circuits.netlist import Netlist
from ..circuits.simulator import simulate_patterns
from ..core.codewords import Codebook
from ..core.bitvec import TernaryVector
from ..core.decoder import NineCDecoder
from ..core.encoder import NineCEncoder
from ..decompressor.fsm import NineCDecoderFSM
from ..decompressor.gates import decoder_netlist, fsm_logic
from ..decompressor.rtlsim import RTLSimulator, parse_module, run_decoder_rtl
from ..decompressor.verilog import (
    SEL_DATA,
    SEL_ONE,
    SEL_ZERO,
    generate_decoder_verilog,
)
from ..lint.findings import LintFinding, Severity
from ..lint.netlist import lint_netlist
from .passes import RecoveredFSM, detect_fsms

#: Half-kind character -> Sel encoding (mirrors the RTL localparams).
_SEL_OF_KIND = {"0": SEL_ZERO, "1": SEL_ONE, "U": SEL_DATA}

#: Rules the round-trip leg waives (the decoder shifter is flop-to-flop
#: by design; see DECODER_NETLIST_WAIVERS in the lint runner).
_ROUNDTRIP_WAIVERS = ("NL006",)


# ----------------------------------------------------------------------
# result model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TraceStep:
    """One cycle of a counterexample: inputs, expected vs observed."""

    cycle: int
    inputs: Dict[str, int]
    expected: Dict[str, int]
    actual: Dict[str, int]

    def to_dict(self) -> Dict[str, object]:
        return {
            "cycle": self.cycle,
            "inputs": dict(self.inputs),
            "expected": dict(self.expected),
            "actual": dict(self.actual),
        }


@dataclass(frozen=True)
class Counterexample:
    """A concrete disagreement between two decoder models."""

    leg: str
    k: int
    seed: int
    message: str
    trace: Tuple[TraceStep, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "leg": self.leg,
            "k": self.k,
            "seed": self.seed,
            "message": self.message,
            "trace": [step.to_dict() for step in self.trace],
        }

    def render(self) -> str:
        lines = [f"{self.leg} counterexample (K={self.k}): {self.message}"]
        for step in self.trace:
            inputs = " ".join(f"{k}={v}" for k, v in step.inputs.items())
            diff = " ".join(
                f"{name}: want {step.expected[name]} got {step.actual[name]}"
                for name in step.expected
                if step.expected[name] != step.actual.get(name)
            )
            lines.append(
                f"  cycle {step.cycle}: {inputs}"
                + (f"  [{diff}]" if diff else "")
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class LegResult:
    """Outcome of one equivalence leg."""

    leg: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str
    checked: int = 0
    counterexample: Optional[Counterexample] = None

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "leg": self.leg,
            "status": self.status,
            "detail": self.detail,
            "checked": self.checked,
        }
        if self.counterexample is not None:
            payload["counterexample"] = self.counterexample.to_dict()
        return payload


@dataclass
class EquivReport:
    """All legs for one (K, codebook) pair."""

    k: int
    codebook_label: str
    legs: List[LegResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(leg.status != "fail" for leg in self.legs)

    def to_dict(self) -> Dict[str, object]:
        return {
            "k": self.k,
            "codebook": self.codebook_label,
            "ok": self.ok,
            "legs": [leg.to_dict() for leg in self.legs],
        }

    def render(self) -> str:
        lines = [
            f"equivalence K={self.k} codebook={self.codebook_label}: "
            + ("OK" if self.ok else "MISMATCH")
        ]
        for leg in self.legs:
            lines.append(
                f"  {leg.leg} {leg.status:7s} "
                f"({leg.checked} checks) {leg.detail}"
            )
            if leg.counterexample is not None:
                lines.append(
                    "    " + leg.counterexample.render().replace(
                        "\n", "\n    "
                    )
                )
        return "\n".join(lines)


def equiv_findings(report: EquivReport, artifact: str) -> List[LintFinding]:
    """Failed legs as lint findings (pass/skip produce none)."""
    findings: List[LintFinding] = []
    for leg in report.legs:
        if leg.status != "fail":
            continue
        message = leg.detail
        if leg.counterexample is not None:
            message += f" — {leg.counterexample.message}"
        findings.append(LintFinding(
            leg.leg, Severity.ERROR, artifact, f"k{report.k}", message,
        ))
    return findings


# ----------------------------------------------------------------------
# EQ001: behavioral RTL vs handshake oracle (product-machine BFS)
# ----------------------------------------------------------------------

class OracleDecoder:
    """Reference implementation of the decoder handshake contract.

    Built *only* from :meth:`NineCDecoderFSM.transition_table` and the
    documented contract (ready/scan_en/scan_out/ack), deliberately not
    from the RTL text, so a generator bug cannot hide in both models.
    """

    def __init__(self, fsm: NineCDecoderFSM, k: int):
        self.half = k // 2
        self.idle = fsm.IDLE
        self.arcs: Dict[Tuple[str, int], Tuple[str, Optional[Tuple[int, int]]]] = {}
        for src, bit, dst, case in fsm.transition_table():
            sels = None
            if case is not None:
                left, right = case.halves
                sels = (_SEL_OF_KIND[left.value],
                        _SEL_OF_KIND[right.value])
            self.arcs[(src, bit)] = (dst, sels)
        self.reset()

    def reset(self) -> None:
        self.state = self.idle
        self.case_valid = 0
        self.sel_left = SEL_ZERO
        self.sel_right = SEL_ZERO
        self.count = 0
        self.half_sel = 0
        self.ack = 0

    # -- combinational view --------------------------------------------
    @property
    def sel(self) -> int:
        return self.sel_right if self.half_sel else self.sel_left

    @property
    def bit_is_data(self) -> bool:
        return self.sel == SEL_DATA

    def ready(self, dec_en: int) -> int:
        return int(bool(dec_en) and (not self.case_valid
                                     or self.bit_is_data))

    def _advance(self, ate_tick: int) -> bool:
        return bool(self.case_valid
                    and (not self.bit_is_data or ate_tick))

    def outputs(self, dec_en: int, ate_tick: int,
                data_in: int) -> Dict[str, int]:
        advance = self._advance(ate_tick)
        scan_out = (0 if self.sel == SEL_ZERO
                    else 1 if self.sel == SEL_ONE else data_in)
        return {
            "ready": self.ready(dec_en),
            "scan_en": int(advance),
            "scan_out": scan_out,
            "ack": self.ack,
        }

    # -- clocked view --------------------------------------------------
    def step(self, dec_en: int, ate_tick: int, data_in: int) -> None:
        advance = self._advance(ate_tick)
        done = self.count == self.half - 1
        block_done = advance and done and self.half_sel
        self.ack = int(block_done)
        if not self.case_valid and dec_en and ate_tick:
            arc = self.arcs.get((self.state, data_in))
            if arc is not None:
                dst, sels = arc
                self.state = dst
                if sels is not None:
                    self.sel_left, self.sel_right = sels
                    self.case_valid = 1
        if advance:
            self.count = 0 if done else self.count + 1
            self.half_sel = (1 - self.half_sel) if done else self.half_sel
            if block_done:
                self.case_valid = 0

    def snapshot(self) -> Tuple:
        return (self.state, self.case_valid, self.sel_left,
                self.sel_right, self.count, self.half_sel, self.ack)

    def restore(self, snap: Tuple) -> None:
        (self.state, self.case_valid, self.sel_left, self.sel_right,
         self.count, self.half_sel, self.ack) = snap


def _rtl_vs_oracle(
    k: int,
    codebook: Codebook,
    rtl_text: Optional[str],
    seed: int,
    stream_blocks: int,
) -> LegResult:
    """EQ001: exhaustive product BFS, then randomized stream cosim."""
    fsm = NineCDecoderFSM(codebook)
    rtl = rtl_text if rtl_text is not None \
        else generate_decoder_verilog(k, codebook)
    module = parse_module(rtl)
    sim = RTLSimulator(module)
    sim.set_inputs(rst_n=0, dec_en=0, ate_tick=0, data_in=0)
    sim.step()
    sim.set_inputs(rst_n=1)
    oracle = OracleDecoder(fsm, k)

    rtl_reset = tuple(sorted(sim.regs.items()))
    oracle_reset = oracle.snapshot()
    start = (rtl_reset, oracle_reset)
    # parent[(pair)] = (previous pair, input triple) for replay
    parent: Dict[Tuple, Optional[Tuple[Tuple, Tuple[int, int, int]]]] = {
        start: None
    }
    frontier = [start]
    checked = 0
    observed = ("ready", "scan_en", "scan_out", "ack")

    def replay(pair: Tuple,
               final_inputs: Tuple[int, int, int],
               expected: Dict[str, int],
               actual: Dict[str, int],
               message: str) -> Counterexample:
        path: List[Tuple[int, int, int]] = [final_inputs]
        cursor = pair
        while parent[cursor] is not None:
            previous, inputs = parent[cursor]  # type: ignore[misc]
            path.append(inputs)
            cursor = previous
        path.reverse()
        steps = []
        for cycle, (dec_en, ate_tick, data_in) in enumerate(path):
            is_last = cycle == len(path) - 1
            steps.append(TraceStep(
                cycle,
                {"dec_en": dec_en, "ate_tick": ate_tick,
                 "data_in": data_in},
                expected if is_last else {},
                actual if is_last else {},
            ))
        return Counterexample("EQ001", k, seed, message, tuple(steps))

    while frontier:
        pair = frontier.pop()
        rtl_state, oracle_state = pair
        oracle.restore(oracle_state)
        stimuli = [(1, 0, 0)]
        if oracle.ready(1):
            stimuli += [(1, 1, 0), (1, 1, 1)]
        for stimulus in stimuli:
            dec_en, ate_tick, data_in = stimulus
            sim.regs = dict(rtl_state)
            oracle.restore(oracle_state)
            sim.set_inputs(dec_en=dec_en, ate_tick=ate_tick,
                           data_in=data_in)
            expected = oracle.outputs(dec_en, ate_tick, data_in)
            actual = {name: sim.read(name) for name in observed}
            checked += 1
            comparable = dict(expected)
            if not expected["scan_en"]:
                # scan_out is only sampled under scan_en; its idle
                # value is unconstrained by the contract.
                comparable.pop("scan_out")
            for name, want in comparable.items():
                if actual[name] != want:
                    return LegResult(
                        "EQ001", "fail",
                        "behavioral RTL diverges from the transition-"
                        "table oracle",
                        checked,
                        replay(pair, stimulus, expected, actual,
                               f"output {name}: oracle {want}, "
                               f"RTL {actual[name]}"),
                    )
            sim.step()
            oracle.step(dec_en, ate_tick, data_in)
            successor = (tuple(sorted(sim.regs.items())),
                         oracle.snapshot())
            if successor not in parent:
                parent[successor] = (pair, stimulus)
                frontier.append(successor)

    # Randomized stream cosimulation: RTL vs the software decoder on
    # encoder-produced streams (exercises full blocks end to end).
    rng = np.random.default_rng(seed)
    encoder = NineCEncoder(k, codebook)
    decoder = NineCDecoder(k, codebook)
    streams = 0
    for _ in range(stream_blocks):
        data = TernaryVector(
            rng.integers(0, 3, 6 * k).astype(np.uint8)
        )
        encoding = encoder.encode(data)
        bits = [0 if b == 2 else int(b) for b in encoding.stream]
        software = decoder.decode_stream(TernaryVector(bits))
        hardware = run_decoder_rtl(module, bits)
        streams += 1
        if hardware != [int(b) for b in software]:
            return LegResult(
                "EQ001", "fail",
                "RTL stream decode differs from the software decoder",
                checked + streams,
                Counterexample(
                    "EQ001", k, seed,
                    f"stream of {len(bits)} bits decodes to "
                    f"{len(hardware)} bits != software "
                    f"{len(software)} bits (first divergence at "
                    f"{next((i for i, (a, b) in enumerate(zip(hardware, [int(x) for x in software])) if a != b), min(len(hardware), len(software)))})",
                ),
            )
    return LegResult(
        "EQ001", "pass",
        f"product BFS over {len(parent)} reachable state pairs + "
        f"{streams} random streams",
        checked + streams,
    )


# ----------------------------------------------------------------------
# EQ002: gate netlist vs FSM truth tables (word level, vectorized)
# ----------------------------------------------------------------------

def _netlist_vs_tables(
    k: int,
    codebook: Codebook,
    netlist: Netlist,
    seed: int,
    vectors: int,
    exhaustive_limit: int,
) -> LegResult:
    """EQ002: check every functional net against its defining equation."""
    logic = fsm_logic(NineCDecoderFSM(codebook))
    half = k // 2
    count_width = max(1, (half - 1).bit_length()) if half > 1 else 1

    conventional = (
        ["data_in", "advance", "serial_in"]
        + [f"q{b}" for b in range(logic.state_bits)]
        + [f"c{b}" for b in range(count_width)]
        + [f"sh{b}" for b in range(half)]
    )
    if sorted(conventional) != sorted(netlist.scan_inputs):
        return LegResult(
            "EQ002", "skipped",
            "netlist does not use the conventional decoder net names "
            "(imported design?); EQ003 covers it name-independently",
        )

    width = netlist.scan_length
    exhaustive = (1 << width) <= exhaustive_limit
    if exhaustive:
        rows = 1 << width
        codes = np.arange(rows, dtype=np.int64)
        patterns = np.zeros((rows, width), dtype=np.uint8)
        columns = {net: i for i, net in enumerate(netlist.scan_inputs)}
        for net, column in columns.items():
            bit = netlist.scan_inputs.index(net)
            patterns[:, column] = (codes >> bit) & 1
    else:
        rng = np.random.default_rng(seed)
        rows = vectors
        patterns = rng.integers(0, 2, size=(rows, width), dtype=np.uint8)
        columns = {net: i for i, net in enumerate(netlist.scan_inputs)}
    values = simulate_patterns(netlist, patterns)

    def col(net: str) -> np.ndarray:
        return patterns[:, columns[net]].astype(np.int64)

    state_code = sum(col(f"q{b}") << b for b in range(logic.state_bits))
    word = (state_code << 1) | col("data_in")
    dont_cares = np.isin(word, np.asarray(logic.dont_cares,
                                          dtype=np.int64))
    specified = ~dont_cares

    failures: List[Tuple[str, np.ndarray, np.ndarray, np.ndarray]] = []

    def check(net: str, expected: np.ndarray,
              mask: Optional[np.ndarray] = None) -> None:
        actual = values[net].astype(np.int64)
        wrong = actual != expected
        if mask is not None:
            wrong &= mask
        if wrong.any():
            failures.append((net, wrong, expected, actual))

    # FSM next-state and Sel covers (specified words only; don't-care
    # words are free by construction).
    for bit in range(logic.state_bits):
        on_set = np.isin(word, np.asarray(logic.next_state[bit],
                                          dtype=np.int64))
        d_net = netlist.gates[f"q{bit}"].fanins[0]
        check(d_net, on_set.astype(np.int64), specified)
    for bit in (0, 1):
        on_set = np.isin(word, np.asarray(logic.sel[bit],
                                          dtype=np.int64))
        check(f"sel{bit}", on_set.astype(np.int64), specified)

    # Counter recurrence and done detector.
    count = sum(col(f"c{b}") << b for b in range(count_width))
    advance = col("advance")
    done_expected = (count == half - 1).astype(np.int64)
    check("done", done_expected)
    wrapped = (count + 1) & ((1 << count_width) - 1)
    next_count = np.where(
        advance == 0, count, np.where(count == half - 1, 0, wrapped)
    )
    for bit in range(count_width):
        d_net = netlist.gates[f"c{bit}"].fanins[0]
        check(d_net, (next_count >> bit) & 1)

    # Shifter wiring.
    previous = col("serial_in")
    for bit in range(half):
        d_net = netlist.gates[f"sh{bit}"].fanins[0]
        check(d_net, previous)
        previous = col(f"sh{bit}")

    mode = "exhaustive" if exhaustive else f"{rows} seeded random"
    if failures:
        net, wrong, expected, actual = failures[0]
        row = int(np.argmax(wrong))
        assignment = {
            name: int(patterns[row, columns[name]])
            for name in netlist.scan_inputs
        }
        return LegResult(
            "EQ002", "fail",
            f"{len(failures)} net(s) diverge from the FSM truth "
            f"tables ({mode} vectors)",
            int(rows),
            Counterexample(
                "EQ002", k, seed,
                f"net {net}: expected {int(expected[row])}, got "
                f"{int(actual[row])} ({int(wrong.sum())} of {rows} "
                "vectors wrong)",
                (TraceStep(0, assignment,
                           {net: int(expected[row])},
                           {net: int(actual[row])}),),
            ),
        )
    return LegResult(
        "EQ002", "pass", f"{mode} word-level check over {width} scan "
        "inputs", int(rows),
    )


# ----------------------------------------------------------------------
# EQ003: FSM recovered from gates vs the transition table
# ----------------------------------------------------------------------

def _bisimulate(
    recovered: RecoveredFSM,
    fsm: NineCDecoderFSM,
) -> Tuple[bool, str, int]:
    """(ok, reason, transitions checked) for one candidate group."""
    if len(recovered.inputs) != 1:
        return False, (
            f"group {recovered.registers} reads "
            f"{len(recovered.inputs)} external inputs (want 1)"
        ), 0

    arcs: Dict[Tuple[str, int], Tuple[str, Optional[int]]] = {}
    for src, bit, dst, case in fsm.transition_table():
        sel = None
        if case is not None:
            sel = _SEL_OF_KIND[case.halves[0].value]
        arcs[(src, bit)] = (dst, sel)

    code_of: Dict[str, int] = {fsm.IDLE: 0}
    frontier = [fsm.IDLE]
    checked = 0
    sel_expectations: Dict[int, Dict[Tuple[int, int], int]] = {0: {}, 1: {}}
    visited: Set[Tuple[str, int]] = set()
    while frontier:
        state = frontier.pop()
        code = code_of[state]
        for bit in (0, 1):
            if (state, bit) not in arcs or (state, bit) in visited:
                continue
            visited.add((state, bit))
            dst, sel = arcs[(state, bit)]
            successor = recovered.transitions[(code, bit)]
            checked += 1
            if dst in code_of:
                if code_of[dst] != successor:
                    return False, (
                        f"transition {state} --{bit}--> {dst} lands on "
                        f"code {successor}, but {dst} was already "
                        f"mapped to code {code_of[dst]}"
                    ), checked
            else:
                code_of[dst] = successor
                frontier.append(dst)
            expected_sel = sel if sel is not None else 0
            for sel_bit in (0, 1):
                sel_expectations[sel_bit][(code, bit)] = \
                    (expected_sel >> sel_bit) & 1

    # The Sel output functions must exist among the recovered outputs
    # (by value, not by name).
    for sel_bit in (0, 1):
        wanted = sel_expectations[sel_bit]
        matched = any(
            all(table.get(key) == value for key, value in wanted.items())
            for table in recovered.outputs.values()
        )
        if not matched:
            return False, (
                f"no recovered output realizes the Sel bit {sel_bit} "
                "function over the specified transitions"
            ), checked
    return True, (
        f"bisimulation over {len(code_of)} states / {checked} "
        f"transitions (registers {', '.join(recovered.registers)})"
    ), checked


def _recovered_vs_table(
    k: int,
    codebook: Codebook,
    netlist: Netlist,
) -> LegResult:
    """EQ003: some gate-recovered FSM must bisimulate the spec."""
    fsm = NineCDecoderFSM(codebook)
    recovered = detect_fsms(netlist)
    if not recovered:
        return LegResult(
            "EQ003", "fail",
            "no FSM recovered from the netlist (no flop dependency "
            "SCC within analysis bounds)",
        )
    reasons = []
    for candidate in recovered:
        ok, reason, checked = _bisimulate(candidate, fsm)
        if ok:
            return LegResult("EQ003", "pass", reason, checked)
        reasons.append(reason)
    return LegResult(
        "EQ003", "fail",
        "no recovered FSM bisimulates the transition table: "
        + "; ".join(reasons),
        0,
        Counterexample("EQ003", k, 0, reasons[0]),
    )


# ----------------------------------------------------------------------
# EQ004: structural round trip through emit -> parse -> elaborate
# ----------------------------------------------------------------------

def _roundtrip(k: int, netlist: Netlist) -> LegResult:
    """EQ004: Verilog emission must re-import bit-identically + lint clean."""
    from .elaborate import import_verilog
    from .emit import netlist_to_verilog

    try:
        text = netlist_to_verilog(netlist)
        elaboration = import_verilog(text)
        reimported = elaboration.netlist()
    except ValueError as exc:
        return LegResult(
            "EQ004", "fail",
            f"round trip raised: {exc}", 0,
            Counterexample("EQ004", k, 0, str(exc)),
        )
    if not netlist.structurally_equal(reimported):
        return LegResult(
            "EQ004", "fail",
            "re-imported netlist differs structurally from the "
            "original", 1,
            Counterexample(
                "EQ004", k, 0,
                f"original {netlist.stats()} vs reimported "
                f"{reimported.stats()}",
            ),
        )
    lint = [
        f for f in lint_netlist(reimported, waive=_ROUNDTRIP_WAIVERS)
        if f.severity is Severity.ERROR
    ]
    if lint:
        return LegResult(
            "EQ004", "fail",
            f"re-imported netlist has {len(lint)} lint error(s)", 1,
            Counterexample("EQ004", k, 0, lint[0].render()),
        )
    return LegResult(
        "EQ004", "pass",
        f"emit -> parse -> elaborate identity over "
        f"{len(netlist.gates)} nets", len(netlist.gates),
    )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def run_equiv(
    k: int,
    codebook: Optional[Codebook] = None,
    *,
    seed: int = 0,
    vectors: int = 10000,
    stream_blocks: int = 8,
    exhaustive_limit: int = 1 << 17,
    netlist: Optional[Netlist] = None,
    rtl_text: Optional[str] = None,
    codebook_label: str = "default",
) -> EquivReport:
    """Prove the three decoder models equivalent for one (K, codebook).

    ``netlist``/``rtl_text`` default to the generated artifacts; pass
    an imported netlist (from :mod:`repro.rtl.elaborate`) to verify an
    external design against the same specification.  Legs that need
    artifacts the caller did not provide still run on the generated
    ones, so the report always covers the full triangle.
    """
    if k < 2 or k % 2:
        raise ValueError("K must be an even integer >= 2")
    book = codebook or Codebook.default()
    gates = netlist if netlist is not None else decoder_netlist(k, book)
    report = EquivReport(k=k, codebook_label=codebook_label)
    report.legs.append(
        _rtl_vs_oracle(k, book, rtl_text, seed, stream_blocks)
    )
    report.legs.append(
        _netlist_vs_tables(k, book, gates, seed, vectors,
                           exhaustive_limit)
    )
    report.legs.append(_recovered_vs_table(k, book, gates))
    report.legs.append(_roundtrip(k, gates))
    return report
