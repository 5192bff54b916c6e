"""Interpreter for the Verilog dialect emitted by this package.

A small, honest RTL simulator: it parses the *text* of the generated
decoder module (not a Python re-statement of it) and executes it with
Verilog semantics — two-phase nonblocking updates on the clock edge,
asynchronous active-low reset, continuous assignments settled on demand
and cached until an input, a register or the clock changes them.
The equivalence tests drive the interpreted RTL bit-for-bit against the
software decoder, which is the strongest correctness statement we can
make about the hardware without an external simulator.

Supported subset (exactly what ``generate_decoder_verilog`` emits):

* ``module``/``endmodule`` with ``input/output wire|reg [w:0] name``;
* ``localparam NAME = <int expr>;`` (integer arithmetic over earlier
  localparams);
* ``reg [w:0] name;`` declarations;
* ``wire name = expr;`` and ``assign name = expr;`` continuous assigns;
* one ``always @(posedge clk or negedge rst_n)`` block containing
  ``begin/end``, ``if/else``, ``case/endcase`` and nonblocking ``<=``;
* expressions over identifiers, decimal and sized binary literals,
  ``()``, unary ``!``, binary ``== != && || + -`` and the ternary
  operator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple, Union

# ----------------------------------------------------------------------
# lexer
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<sized>\d+'b[01xz]+)"
    r"|(?P<num>\d+)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_$]*)"
    r"|(?P<op><=|==|!=|&&|\|\||[-+!~?:;,()\[\]{}=<>@.*])"
    r")"
)


def tokenize(text: str) -> List[str]:
    """Split Verilog source (comments pre-stripped) into tokens."""
    tokens: List[str] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if not match or match.end() == position:
            remainder = text[position : position + 20]
            if remainder.strip():
                raise ValueError(f"cannot tokenize near {remainder!r}")
            break
        token = match.group("sized") or match.group("num") \
            or match.group("id") or match.group("op")
        tokens.append(token)
        position = match.end()
    return tokens


def strip_comments(text: str) -> str:
    """Remove // line comments."""
    return re.sub(r"//[^\n]*", "", text)


# ----------------------------------------------------------------------
# expression AST + evaluation
# ----------------------------------------------------------------------

Expr = Union["Const", "Ident", "Unary", "Binary", "Ternary"]


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: Expr


@dataclass(frozen=True)
class Binary:
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Ternary:
    condition: Expr
    if_true: Expr
    if_false: Expr


class _TokenStream:
    def __init__(self, tokens: List[str]):
        self.tokens = tokens
        self.position = 0

    def peek(self) -> Optional[str]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise ValueError("unexpected end of input")
        self.position += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise ValueError(f"expected {token!r}, got {got!r}")

    def accept(self, token: str) -> bool:
        if self.peek() == token:
            self.position += 1
            return True
        return False


def _parse_literal(token: str) -> int:
    if "'" in token:
        _width, _b, bits = token.partition("'b")
        return int(bits, 2)
    return int(token)


def parse_expression(stream: _TokenStream) -> Expr:
    """Parse with precedence: ?: < || < && < ==/!= < +- < unary."""
    return _parse_ternary(stream)


def _parse_ternary(stream: _TokenStream) -> Expr:
    condition = _parse_or(stream)
    if stream.accept("?"):
        if_true = _parse_ternary(stream)
        stream.expect(":")
        if_false = _parse_ternary(stream)
        return Ternary(condition, if_true, if_false)
    return condition


def _parse_or(stream: _TokenStream) -> Expr:
    left = _parse_and(stream)
    while stream.accept("||"):
        left = Binary("||", left, _parse_and(stream))
    return left


def _parse_and(stream: _TokenStream) -> Expr:
    left = _parse_equality(stream)
    while stream.accept("&&"):
        left = Binary("&&", left, _parse_equality(stream))
    return left


def _parse_equality(stream: _TokenStream) -> Expr:
    left = _parse_additive(stream)
    while stream.peek() in ("==", "!="):
        op = stream.next()
        left = Binary(op, left, _parse_additive(stream))
    return left


def _parse_additive(stream: _TokenStream) -> Expr:
    left = _parse_unary(stream)
    while stream.peek() in ("+", "-"):
        op = stream.next()
        left = Binary(op, left, _parse_unary(stream))
    return left


def _parse_unary(stream: _TokenStream) -> Expr:
    if stream.accept("!"):
        return Unary("!", _parse_unary(stream))
    return _parse_primary(stream)


def _parse_primary(stream: _TokenStream) -> Expr:
    token = stream.next()
    if token == "(":
        inner = parse_expression(stream)
        stream.expect(")")
        return inner
    if re.fullmatch(r"\d+'b[01]+", token) or token.isdigit():
        return Const(_parse_literal(token))
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_$]*", token):
        return Ident(token)
    raise ValueError(f"unexpected token in expression: {token!r}")


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------

@dataclass
class NonBlocking:
    target: str
    expr: Expr


@dataclass
class If:
    condition: Expr
    then_body: List
    else_body: List = field(default_factory=list)


@dataclass
class Case:
    subject: Expr
    arms: List[Tuple[Optional[Expr], List]]  # (label or None=default, body)


Statement = Union[NonBlocking, If, Case]


def _parse_statement(stream: _TokenStream) -> Statement:
    if stream.peek() == "if":
        stream.next()
        stream.expect("(")
        condition = parse_expression(stream)
        stream.expect(")")
        then_body = _parse_body(stream)
        else_body: List[Statement] = []
        if stream.accept("else"):
            else_body = _parse_body(stream)
        return If(condition, then_body, else_body)
    if stream.peek() == "case":
        stream.next()
        stream.expect("(")
        subject = parse_expression(stream)
        stream.expect(")")
        arms: List[Tuple[Optional[Expr], List]] = []
        while stream.peek() != "endcase":
            if stream.accept("default"):
                label: Optional[Expr] = None
            else:
                label = parse_expression(stream)
            stream.expect(":")
            arms.append((label, _parse_body(stream)))
        stream.expect("endcase")
        return Case(subject, arms)
    # nonblocking assignment: target <= expr ;
    target = stream.next()
    stream.expect("<=")
    expr = parse_expression(stream)
    stream.expect(";")
    return NonBlocking(target, expr)


def _parse_body(stream: _TokenStream) -> List[Statement]:
    if stream.accept("begin"):
        body: List[Statement] = []
        while not stream.accept("end"):
            body.append(_parse_statement(stream))
        return body
    return [_parse_statement(stream)]


# ----------------------------------------------------------------------
# module
# ----------------------------------------------------------------------

@dataclass
class Port:
    name: str
    direction: str  # "input" | "output"
    width: int
    is_reg: bool


@dataclass
class ModuleDef:
    name: str
    ports: Dict[str, Port]
    localparams: Dict[str, int]
    regs: Dict[str, int]            # name -> width
    wires: Dict[str, Expr]          # continuous assignments
    reset_body: List[Statement]
    clocked_body: List[Statement]


_PORT_RE = re.compile(
    r"(input|output)\s+(wire|reg)?\s*(\[(\d+):0\])?\s*([A-Za-z_]\w*)"
)
_LOCALPARAM_RE = re.compile(r"localparam\s+(\w+)\s*=\s*([^;]+);")
_REG_RE = re.compile(r"^\s*reg\s*(\[(\d+):0\])?\s*([A-Za-z_]\w*)\s*;",
                     re.MULTILINE)
_WIRE_RE = re.compile(
    r"^\s*wire\s*(\[(\d+):0\])?\s*([A-Za-z_]\w*)\s*=\s*([^;]+);",
    re.MULTILINE,
)
_ASSIGN_RE = re.compile(r"^\s*assign\s+([A-Za-z_]\w*)\s*=\s*([^;]+);",
                        re.MULTILINE)
_ALWAYS_RE = re.compile(
    r"always\s*@\s*\(\s*posedge\s+(\w+)\s+or\s+negedge\s+(\w+)\s*\)",
)


def _resolve_localparam(name: str, expr: str, known: Dict[str, int]) -> int:
    """Evaluate a localparam's integer expression.

    Earlier localparams may be referenced (``localparam HALF = K / 2;``);
    only integer arithmetic over ``+ - * / ( )`` is accepted, with ``/``
    truncating like Verilog integer division.
    """
    text = expr.strip()
    for other, value in known.items():
        text = re.sub(rf"\b{other}\b", str(value), text)
    if not re.fullmatch(r"[\d\s+\-*/()]+", text):
        raise ValueError(
            f"unsupported localparam expression: {name} = {expr.strip()}"
        )
    return int(eval(text.replace("/", "//"), {"__builtins__": {}}, {}))


def parse_module(source: str) -> ModuleDef:
    """Parse one module of the restricted dialect."""
    text = strip_comments(source)
    name_match = re.search(r"module\s+(\w+)", text)
    if not name_match:
        raise ValueError("no module declaration found")
    header_end = text.index(");", name_match.end())
    header = text[name_match.end() : header_end]
    ports: Dict[str, Port] = {}
    for direction, kind, _vec, msb, port_name in _PORT_RE.findall(header):
        width = int(msb) + 1 if msb else 1
        ports[port_name] = Port(port_name, direction, width,
                                is_reg=(kind == "reg"))
    body = text[header_end + 2 : text.rindex("endmodule")]

    localparams: Dict[str, int] = {}
    for param_name, param_expr in _LOCALPARAM_RE.findall(body):
        localparams[param_name] = _resolve_localparam(
            param_name, param_expr, localparams
        )
    regs = {m[2]: (int(m[1]) + 1 if m[1] else 1)
            for m in _REG_RE.findall(body)}
    for port in ports.values():
        if port.is_reg:
            regs.setdefault(port.name, port.width)

    wires: Dict[str, Expr] = {}
    for _vec, _msb, wire_name, expr_text in _WIRE_RE.findall(body):
        wires[wire_name] = parse_expression(
            _TokenStream(tokenize(expr_text))
        )
    for target, expr_text in _ASSIGN_RE.findall(body):
        wires[target] = parse_expression(_TokenStream(tokenize(expr_text)))

    always_match = _ALWAYS_RE.search(body)
    if not always_match:
        raise ValueError("no clocked always block found")
    stream = _TokenStream(tokenize(body[always_match.end():]))
    block = _parse_body(stream)
    # expected shape: begin if (!rst_n) <reset> else <clocked> end
    if len(block) != 1 or not isinstance(block[0], If):
        raise ValueError("always block must be a single if (!rst_n) ...")
    top = block[0]
    return ModuleDef(
        name=name_match.group(1),
        ports=ports,
        localparams=localparams,
        regs=regs,
        wires=wires,
        reset_body=top.then_body,
        clocked_body=top.else_body,
    )


# ----------------------------------------------------------------------
# simulation
# ----------------------------------------------------------------------

class RTLSimulator:
    """Execute a parsed module: Verilog edge semantics, two-phase NBA."""

    def __init__(self, module: ModuleDef):
        self.module = module
        #: Settled wire values for the current inputs and registers.
        self._wires: Dict[str, int] = {}
        self._regs: Dict[str, int] = {name: 0 for name in module.regs}
        self._inputs: Dict[str, int] = {
            p.name: 0 for p in module.ports.values()
            if p.direction == "input"
        }
        self.reset()

    @property
    def regs(self) -> Mapping[str, int]:
        """Read-only register values; assign a mapping to load a state."""
        return MappingProxyType(self._regs)

    @regs.setter
    def regs(self, values: Mapping[str, int]) -> None:
        self._regs = dict(values)
        self._wires.clear()

    @property
    def inputs(self) -> Mapping[str, int]:
        """Read-only input port values; drive them with :meth:`set_inputs`."""
        return MappingProxyType(self._inputs)

    # -- value resolution ------------------------------------------------
    def _lookup(self, name: str, visiting: frozenset) -> int:
        if name in self._inputs:
            return self._inputs[name]
        if name in self._regs:
            return self._regs[name]
        if name in self.module.localparams:
            return self.module.localparams[name]
        if name in self.module.wires:
            value = self._wires.get(name)
            if value is None:
                if name in visiting:
                    raise ValueError(f"combinational loop through {name}")
                value = self._wires[name] = self._eval(
                    self.module.wires[name], visiting | {name}
                )
            return value
        raise ValueError(f"undefined identifier {name!r}")

    def _eval(self, expr: Expr, visiting: frozenset = frozenset()) -> int:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Ident):
            return self._lookup(expr.name, visiting)
        if isinstance(expr, Unary):
            value = self._eval(expr.operand, visiting)
            if expr.op == "!":
                return 0 if value else 1
            raise ValueError(f"unsupported unary {expr.op}")
        if isinstance(expr, Binary):
            left = self._eval(expr.left, visiting)
            right = self._eval(expr.right, visiting)
            if expr.op == "==":
                return 1 if left == right else 0
            if expr.op == "!=":
                return 1 if left != right else 0
            if expr.op == "&&":
                return 1 if left and right else 0
            if expr.op == "||":
                return 1 if left or right else 0
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            raise ValueError(f"unsupported binary {expr.op}")
        if isinstance(expr, Ternary):
            if self._eval(expr.condition, visiting):
                return self._eval(expr.if_true, visiting)
            return self._eval(expr.if_false, visiting)
        raise TypeError(f"bad expression node {expr!r}")

    # -- statement execution ---------------------------------------------
    def _execute(self, body: List[Statement],
                 updates: Dict[str, int]) -> None:
        for statement in body:
            if isinstance(statement, NonBlocking):
                value = self._eval(statement.expr)
                width = self.module.regs.get(statement.target)
                if width is None:
                    raise ValueError(
                        f"nonblocking assign to non-reg "
                        f"{statement.target!r}"
                    )
                updates[statement.target] = value & ((1 << width) - 1)
            elif isinstance(statement, If):
                branch = statement.then_body \
                    if self._eval(statement.condition) \
                    else statement.else_body
                self._execute(branch, updates)
            elif isinstance(statement, Case):
                subject = self._eval(statement.subject)
                default_body: List[Statement] = []
                for label, arm_body in statement.arms:
                    if label is None:
                        default_body = arm_body
                        continue
                    if self._eval(label) == subject:
                        self._execute(arm_body, updates)
                        break
                else:
                    self._execute(default_body, updates)
            else:
                raise TypeError(f"bad statement {statement!r}")

    # -- public API --------------------------------------------------------
    def reset(self) -> None:
        """Apply the asynchronous reset branch."""
        updates: Dict[str, int] = {}
        self._execute(self.module.reset_body, updates)
        self._regs.update(updates)
        self._wires.clear()

    def set_inputs(self, **values: int) -> None:
        """Drive input ports (persist until changed)."""
        self._wires.clear()
        for name, value in values.items():
            if name not in self._inputs:
                raise ValueError(f"not an input port: {name!r}")
            self._inputs[name] = int(value)

    def read(self, name: str) -> int:
        """Read any port, reg or wire after combinational settling."""
        return self._lookup(name, frozenset())

    def step(self) -> None:
        """One posedge clk: evaluate, then commit nonblocking updates."""
        if self._inputs.get("rst_n", 1) == 0:
            self.reset()
            return
        updates: Dict[str, int] = {}
        self._execute(self.module.clocked_body, updates)
        self._regs.update(updates)
        self._wires.clear()


def run_decoder_rtl(
    rtl_source: Union[str, ModuleDef],
    stream_bits: List[int],
    max_cycles: Optional[int] = None,
) -> List[int]:
    """Drive the generated decoder RTL with a compressed bit stream.

    Plays the ATE side of the handshake (present a bit + ``ate_tick``
    whenever ``ready``), samples ``scan_out`` on every ``scan_en``
    strobe, and returns the decoded bit sequence.  Raises on deadlock
    (cycle budget exhausted with work remaining).  ``rtl_source`` is
    the Verilog text or a module :func:`parse_module` already parsed.
    """
    module = rtl_source if isinstance(rtl_source, ModuleDef) \
        else parse_module(rtl_source)
    simulator = RTLSimulator(module)
    simulator.set_inputs(rst_n=0, dec_en=0, ate_tick=0, data_in=0)
    simulator.step()
    simulator.set_inputs(rst_n=1, dec_en=1)

    budget = max_cycles if max_cycles is not None \
        else 64 * (len(stream_bits) + 16)
    decoded: List[int] = []
    index = 0
    for _cycle in range(budget):
        busy = simulator.read("case_valid")
        if index >= len(stream_bits) and not busy:
            return decoded
        ticking = bool(simulator.read("ready")) and index < len(stream_bits)
        simulator.set_inputs(
            ate_tick=1 if ticking else 0,
            data_in=stream_bits[index] if ticking else 0,
        )
        if simulator.read("scan_en"):
            decoded.append(simulator.read("scan_out"))
        simulator.step()
        if ticking:
            index += 1
    raise RuntimeError(
        f"decoder RTL did not finish within {budget} cycles "
        f"({index}/{len(stream_bits)} bits consumed)"
    )
