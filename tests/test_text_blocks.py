"""The block reader of the text formats against the whole-text code it replaced.

The reference functions below are `parse_circuit`, `_gate`, `_content_lines`,
`_headed_lines`, `emit_circuit` and `cli._load` as they stood before files
were read a block at a time, copied unchanged apart from their names. On
seeded texts with comments, blank lines, CRLF and form-feed separators,
trailing spaces, repeats that differ only in a comment, and one corrupted
token or one byte that is not UTF-8, the block reader must give the same
result or the same `(line, reason)`, with the block size forced down so that
lines fall on every cut. A child process under a 1 GiB address-space cap
reads a file of over two million gate lines, and exits 1 on a file one gate
past a lowered `MAX_GATES`, or with a line past a lowered `MAX_LINE_BYTES`,
naming that line.
"""

import io
import os
import subprocess
import sys
import time
from random import Random
from typing import Callable, Sequence, TypeVar

import pytest

import chainforge
from chainforge import cli, core
from chainforge.core import (
    _ARITY,
    _KIND_BY_NAME,
    Circuit,
    Gate,
    GateKind,
    ParseError,
    _AtLine,
    _content_lines,
    _headed_lines,
    _known_circuit,
    _wire_count,
    emit_circuit,
    parse_circuit,
)
from chainforge.linsynth import GF2Matrix, expand_to_cnot, synthesize_lnn
from chainforge.qft import QftSpec, qft_flat, qft_lnn
from chainforge.skeleton import SkeletonSpec, schedule_lnn
from chainforge.stabilizer import random_decomposition, schedule_stabilizer

SEED = 20261019
N_TEXTS = 300
ADDRESS_SPACE_LIMIT = 1 << 30  # bytes, as in tests/test_fuzz.py
BIG_WIRES = 64
BIG_ROUNDS = 16_000  # of 2 * (BIG_WIRES - 1) gate lines each: 2,016,000 lines

_T = TypeVar("_T")


# --- reference implementations ----------------------------------------------


def ref_content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, text) of each line with content, cut at its first '#'; none is an error."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    if not out:
        raise ParseError(1, "empty file: every line is blank or a comment")
    return out


def ref_headed_lines(text: str, keyword: str) -> tuple[int, list[tuple[int, str]]]:
    """N and the content lines, header included, of a text that opens with 'keyword N'."""
    lines = ref_content_lines(text)
    lineno, head = lines[0]
    toks = head.split()
    if len(toks) != 2 or toks[0] != keyword:
        raise ParseError(lineno, f"expected '{keyword} N', got {head!r}")
    return _wire_count(toks[1], lineno), lines


def ref_gate(lineno: int, name: str, args: Sequence[str], n: int) -> Gate:
    """The gate `name args` on wires 0..n-1, a cphase's k first. A CNOT keeps its
    direction; other gates store their wires ascending."""
    kind = _KIND_BY_NAME.get(name)
    if kind is None:
        raise ParseError(lineno, f"unknown gate {name!r}")
    want = _ARITY[kind] + (kind is GateKind.CPHASE)
    if len(args) != want:
        raise ParseError(lineno, f"{name} takes {want} arguments, got {len(args)}")
    with _AtLine(lineno):
        ints = [int(t) for t in args]
        k = ints.pop(0) if kind is GateKind.CPHASE else None
        g = Gate(kind, tuple(ints if kind is GateKind.CNOT else sorted(ints)), k)
    for q in g.qubits:
        if q >= n:
            raise ParseError(lineno, f"wire {q} outside 0..{n - 1}")
    return g


def ref_parse_circuit(text: str) -> Circuit:
    n, lines = ref_headed_lines(text, "qubits")
    gates = []
    seen: dict[str, Gate] = {}  # each distinct line is parsed and checked once
    for lineno, line in lines[1:]:
        g = seen.get(line)
        if g is None:
            toks = line.split()
            g = seen[line] = ref_gate(lineno, toks[0], toks[1:], n)
        gates.append(g)
    return _known_circuit(n, [(gates, seen.values())])  # `_gate` checked each one


def ref_emit_circuit(circuit: Circuit) -> str:
    out = [f"qubits {circuit.n_wires}"]
    seen: dict[Gate, str] = {}  # each distinct gate is formatted once
    for g in circuit.gates:
        line = seen.get(g)
        if line is None:
            kind, qs, k = g
            line = seen[g] = " ".join([kind.value, *map(str, qs if k is None else (k, *qs))])
        out.append(line)
    return "\n".join(out) + "\n"


def ref_load(parse: Callable[[str], _T], path: str) -> _T:
    """`parse` applied to the file's UTF-8 text; a ParseError, or a byte that is not UTF-8,
    names the file before its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse(data.decode("utf-8"))
    except UnicodeDecodeError as exc:  # lines counted as the parsers count them
        line = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        err = ParseError(line, f"byte {data[exc.start]:#x} is not UTF-8")
    except ParseError as exc:
        err = exc
    err.args = (f"{path}: {err}",)
    raise err


# --- seeded texts --------------------------------------------------------------

_SEPARATORS = ("\n", "\n", "\n", "\r\n", "\x0c", " ")
_COMMENTS = ("", "", "# note", "#", "  # café — ü", "#x 1 2", "# one\u2028# two")
_JUNK = ("x", "-1", "9", "1.5", "", "cnot", "qubits", "0 0", "h")
_BAD_BYTES = (b"\xff", b"\xc3", b"\xe2\x82", b"\x80")


def _gate_line(rng: Random, n: int) -> str:
    a, b = rng.sample(range(n), 2)
    return rng.choice(
        (f"h {a}", f"p {a}", f"cnot {a} {b}", f"cz {a} {b}", f"swap {a} {b}", f"cphase {rng.randint(1, 5)} {a} {b}",
         f"g {a} {b}")
    )


def _dress(rng: Random, line: str) -> str:
    """The line with spacing and a comment that leave its content as it is."""
    toks = line.split()
    gaps = [rng.choice((" ", " ", "  ", "\t")) for _ in toks[1:]]
    body = toks[0] + "".join(gap + tok for gap, tok in zip(gaps, toks[1:]))
    return rng.choice(("", " ", "\t")) + body + rng.choice(("", " ", "  ")) + rng.choice(_COMMENTS)


def _random_text(rng: Random) -> bytes:
    """A circuit file's bytes; a third carry one corrupted token, a fifth one byte that is not UTF-8."""
    n = rng.randint(2, 6)
    pool = [_gate_line(rng, n) for _ in range(rng.randint(1, 6))]  # few distinct lines, many repeats
    lines = [rng.choice(("", "# header next", "   ")) for _ in range(rng.randint(0, 2))]
    lines.append(_dress(rng, f"qubits {n}"))
    for _ in range(rng.randint(0, 40)):
        kind = rng.random()
        lines.append(rng.choice(_COMMENTS) if kind < 0.15 else _dress(rng, rng.choice(pool)))
    if rng.random() < 1 / 3:
        i = rng.randrange(len(lines))
        toks = lines[i].split(" ")
        toks[rng.randrange(len(toks))] = rng.choice(_JUNK)
        lines[i] = " ".join(toks)
    data = b"".join(line.encode("utf-8") + rng.choice(_SEPARATORS).encode("utf-8") for line in lines)
    if rng.random() < 0.2:
        at = rng.randrange(len(data) + 1)
        data = data[:at] + rng.choice(_BAD_BYTES) + data[at:]
    return data if rng.random() < 0.8 else data.rstrip(b"\n")


def _outcome(read: Callable[[], _T]) -> tuple[str, object]:
    try:
        return "ok", read()
    except ParseError as err:
        return "error", (err.line, err.reason, str(err))


def _random_files(tmp_path):
    rng = Random(SEED)
    path = str(tmp_path / "circuit.txt")
    for _ in range(N_TEXTS):
        data = _random_text(rng)
        with open(path, "wb") as fh:
            fh.write(data)
        yield rng, path, data


@pytest.fixture
def small_blocks(monkeypatch):
    """Block sizes of one byte to a few dozen, drawn per text, so that lines fall on every cut."""
    rng = Random(SEED + 1)

    def draw() -> None:
        monkeypatch.setattr(core, "_BLOCK_BYTES", rng.choice((1, 2, 5, rng.randint(8, 64))))

    return draw


def test_circuit_files_read_in_blocks_match_the_whole_text_reader(tmp_path, small_blocks):
    kinds: dict[str, int] = {}
    for _, path, data in _random_files(tmp_path):
        small_blocks()
        want = _outcome(lambda: ref_load(ref_parse_circuit, path))
        got = _outcome(lambda: cli._load(parse_circuit, path))
        assert got == want, data
        kinds[want[0]] = kinds.get(want[0], 0) + 1
        if want[0] == "ok":
            c = got[1]
            assert sorted(map(id, c._distinct)) == sorted({id(g) for g in c.gates})
            assert emit_circuit(c) == ref_emit_circuit(c)
            text = data.decode("utf-8")  # a text is one block, and reads as its file does
            assert parse_circuit(text) == c
        elif "UTF-8" not in want[1][1]:
            text = data.decode("utf-8")
            assert _outcome(lambda: parse_circuit(text))[1][:2] == want[1][:2]
    assert kinds.get("ok", 0) > N_TEXTS // 3 and kinds.get("error", 0) > N_TEXTS // 4, kinds


def test_other_formats_read_their_lines_through_the_same_blocks(tmp_path, small_blocks):
    for rng, path, _ in _random_files(tmp_path):
        small_blocks()
        assert _outcome(lambda: cli._load(_content_lines, path)) == _outcome(
            lambda: ref_load(ref_content_lines, path)
        )
        keyword = rng.choice(("qubits", "gf2"))
        assert _outcome(lambda: cli._load(lambda fh: _headed_lines(fh, keyword), path)) == _outcome(
            lambda: ref_load(lambda text: ref_headed_lines(text, keyword), path)
        )


def test_a_byte_that_is_not_utf8_is_reported_ahead_of_an_earlier_parse_error(tmp_path, monkeypatch):
    path = str(tmp_path / "circuit.txt")
    with open(path, "wb") as fh:
        fh.write(b"qubits 2\nfrob 0\n" + b"h 0\n" * 50 + b"h 1 # \xff\n")
    for size in (1, 16, 1 << 20):
        monkeypatch.setattr(core, "_BLOCK_BYTES", size)
        with pytest.raises(ParseError) as err:
            cli._load(parse_circuit, path)
        assert (err.value.line, err.value.reason) == (53, "byte 0xff is not UTF-8")


def test_emit_matches_the_reference_on_every_builder():
    a = GF2Matrix.random_nonsingular(8, Random(SEED))
    for c in (
        schedule_lnn(SkeletonSpec(9)).circuit,
        qft_lnn(QftSpec(7)).circuit,
        qft_flat(QftSpec(5)),
        synthesize_lnn(a).circuit,
        expand_to_cnot(synthesize_lnn(a)).circuit,
        schedule_stabilizer(random_decomposition(5, Random(SEED))).circuit,
        Circuit(3, (core.cnot(2, 0), core.cphase(3, 0, 2), core.cnot(2, 0))),  # equal gates, two objects
    ):
        assert emit_circuit(c) == ref_emit_circuit(c)


def test_gate_count_past_max_gates_is_a_parse_error_at_that_line(tmp_path, monkeypatch):
    monkeypatch.setattr(core, "MAX_GATES", 5)
    text = "# cap\nqubits 2\n" + "h 0\n\ncnot 0 1 # again\n" * 3
    assert len(parse_circuit(text.rsplit("cnot", 1)[0])) == 5  # at the cap, not past it
    path = tmp_path / "circuit.txt"
    path.write_text(text, encoding="utf-8")
    for size in (4, 10, 1 << 20):  # the cap is crossed in a later block, or in the first
        monkeypatch.setattr(core, "_BLOCK_BYTES", size)
        for read in (lambda: parse_circuit(text), lambda: cli._load(parse_circuit, str(path))):
            with pytest.raises(ParseError) as err:
                read()
            assert (err.value.line, err.value.reason) == (11, "more than 5 gates")


class _Endless(io.RawIOBase):
    """A binary file of `head`, then one line of spaces that never ends; counts the bytes it hands out."""

    def __init__(self, head: bytes) -> None:
        self.head, self.given = head, 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = len(buffer)
        part = self.head[self.given : self.given + size]
        buffer[:size] = part + b" " * (size - len(part))
        self.given += size
        return size


def test_a_line_past_max_line_bytes_is_a_parse_error_at_that_line(tmp_path, monkeypatch):
    """With the limit lowered to 16 bytes: lines of exactly 16 bytes read, in every parser and at every
    block size, and 17 bytes with no newline are a ParseError at the line of the 17th, as str.splitlines
    numbers it: CRLF and form feeds count as line ends, but a run of form-feed lines is one run. A line
    with no end stops the reader within a limit and a block of its start. Given as a `str`, the same texts
    are held to 16 characters a line, each form feed ending one: an over-long line is a ParseError at
    that line, and a line of 16 characters in 21 bytes reads as text but not from a file."""
    monkeypatch.setattr(core, "MAX_LINE_BYTES", 16)
    gate = "cnot 0 1".ljust(16).encode()  # 16 bytes, its newline apart
    at_limit = b"qubits 2\r\n" + gate + b"\n\x0c\n" + gate + b"\n" + b"# sixteen bytes!\n" + gate
    cases = [
        (b"qubits 2\r\n" + gate + b" \nh 0\n", 2),
        (b"qubits 2\n\n\x0c" + gate + b"#\n", 4),
        (b"qubits 2\r\n\x0cgate\x0c" + b"h 0 " * 5, 4),  # the 17th byte of the run is on line 4
        (b"qubits 2\n" + gate + b"\n" + gate + b"1", 3),
        (b"qubits 2\n" + b"\x0c" * 20 + b"\n", 18),
    ]
    path = tmp_path / "circuit.txt"
    for size in (1, 5, 16, 17, 64, 1 << 20):
        monkeypatch.setattr(core, "_BLOCK_BYTES", size)
        path.write_bytes(at_limit)
        assert cli._load(parse_circuit, str(path)).depth() == 3
        assert [line for line, _ in cli._load(_content_lines, str(path))] == [1, 2, 5, 7]
        for data, line in cases:
            path.write_bytes(data)
            for parse in (parse_circuit, _content_lines, lambda fh: _headed_lines(fh, "qubits")):
                with pytest.raises(ParseError) as err:
                    cli._load(parse, str(path))
                assert (err.value.line, err.value.reason) == (line, "more than 16 bytes with no newline"), data
        endless = _Endless(b"# no end\nqubits 2\n")
        with pytest.raises(ParseError) as err:
            parse_circuit(io.BufferedReader(endless, buffer_size=1))
        assert (err.value.line, err.value.reason) == (3, "more than 16 bytes with no newline")
        assert endless.given <= len(endless.head) + 16 + size, (size, endless.given)
    wide = "qubits 2\n" + "cnot 0 1 # " + "\u00e9" * 5  # line 2: 16 characters, 21 bytes
    assert parse_circuit(at_limit.decode()).depth() == 3 and parse_circuit(wide).depth() == 1
    assert [line for line, _ in _content_lines(cases[-1][0].decode())] == [1]  # 20 empty lines, none long
    for text, line in [(data.decode(), line) for data, line in cases[:-1]] + [(wide + "\u00e9", 2)]:
        for parse in (parse_circuit, _content_lines, lambda text: _headed_lines(text, "qubits")):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert (err.value.line, err.value.reason) == (line, "more than 16 characters with no newline"), text
    path.write_bytes(wide.encode())
    with pytest.raises(ParseError) as err:
        cli._load(parse_circuit, str(path))
    assert (err.value.line, err.value.reason) == (2, "more than 16 bytes with no newline")


# --- a file of over two million gate lines, under a capped address space -----


def _write_big(path: str, header: str) -> None:
    """Rounds of gates that all touch wire 0, so the depth is the gate count."""
    wires = range(1, BIG_WIRES)
    round_text = "".join(f"cnot 0 {w}\n" for w in wires) + "".join(f"swap 0 {w}  # s\n" for w in wires)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for _ in range(BIG_ROUNDS // 100):
            fh.write(round_text * 100)


def _run_child(
    path: str, max_gates: int = core.MAX_GATES, max_line_bytes: int = core.MAX_LINE_BYTES
) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(chainforge.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, __file__, path, str(max_gates), str(max_line_bytes)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_two_million_gate_file_is_read_under_a_one_gib_address_space(tmp_path):
    path = str(tmp_path / "big.txt")
    _write_big(path, f"qubits {BIG_WIRES}")
    proc = _run_child(path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == [f"n {BIG_WIRES}", f"depth {2 * (BIG_WIRES - 1) * BIG_ROUNDS}"]
    _write_big(path, f"qubits {BIG_WIRES} x")
    start = time.perf_counter()
    proc = _run_child(path)
    assert proc.returncode == 1 and proc.stdout == "", proc
    assert proc.stderr == f"error: {path}: line 1: expected 'qubits N', got 'qubits {BIG_WIRES} x'\n"
    assert time.perf_counter() - start < 5, time.perf_counter() - start
    os.remove(path)  # 25 MB that pytest would keep with the run's temporary directory


def test_a_file_past_max_gates_exits_1_at_that_line_under_a_one_gib_address_space(tmp_path):
    """The cap is crossed in the third 1 MiB block: at the cap the file reads, one gate past it
    the child exits 1 with the ParseError that names the last line."""
    gates = 300_001  # 9 bytes a line: 2.7 MB
    path = str(tmp_path / "past.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("qubits 2  # at the cap, then past it\n" + "cnot 0 1\n" * gates)
    proc = _run_child(path, gates)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["n 2", f"depth {gates}"]
    proc = _run_child(path, gates - 1)
    assert proc.returncode == 1 and proc.stdout == "", proc
    assert proc.stderr == f"error: {path}: line {gates + 1}: more than {gates - 1} gates\n"


def test_a_line_past_max_line_bytes_exits_1_at_that_line_under_a_one_gib_address_space(tmp_path):
    """With the limit lowered to 4 KiB: a line of exactly 4 KiB reads, and a second line of 64 MiB of
    'h 0 ' with no newline exits 1 with the ParseError that names line 2, read no further than its
    first blocks instead of split into 16 M tokens."""
    limit = 4096
    path = str(tmp_path / "long.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("qubits 2\n" + "cnot 0 1 #".ljust(limit, "-") + "\nh 1")
    proc = _run_child(path, max_line_bytes=limit)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["n 2", "depth 2"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("qubits 2\n")
        for _ in range(64):
            fh.write("h 0 " * (1 << 18))
    proc = _run_child(path, max_line_bytes=limit)
    assert proc.returncode == 1 and proc.stdout == "", proc
    assert proc.stderr == f"error: {path}: line 2: more than {limit} bytes with no newline\n"
    os.remove(path)  # 64 MB that pytest would keep with the run's temporary directory


if __name__ == "__main__":  # the child: `python test_text_blocks.py PATH MAX_GATES MAX_LINE_BYTES`
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    core.MAX_GATES, core.MAX_LINE_BYTES = int(sys.argv[2]), int(sys.argv[3])
    sys.exit(cli.main(["depth", "--circuit", sys.argv[1]]))
