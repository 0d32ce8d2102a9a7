"""Seeded fuzz of every text parser and of the CLI commands that read them.

Each mutated input parses or raises ParseError, and `cli.main` on a file
holding it returns 0, 1 or 2 without raising. The fuzz body runs in a child
process whose address space is capped with RLIMIT_AS, so a parser that
starts allocating without bound fails this test with a MemoryError instead
of exhausting the machine.
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from random import Random

import chainforge
from chainforge import cli
from chainforge.core import (
    Circuit,
    ParseError,
    cnot,
    cphase,
    cz,
    emit_circuit,
    generic2,
    h,
    p,
    parse_architecture,
    parse_circuit,
    swap,
)
from chainforge.css import emit_css, parse_css, steane_syndrome
from chainforge.linsynth import GF2Matrix, emit_gf2, parse_gf2
from chainforge.skeleton import SkeletonSpec, emit_skeleton, parse_skeleton
from chainforge.stabilizer import emit_stab, parse_stab, random_decomposition

SEED = 20261018
MUTANTS_PER_TEXT = 150
ADDRESS_SPACE_LIMIT = 1 << 30  # bytes; the child needs ~150 MB with one BLAS thread

# replacement tokens: sizes at and past MAX_WIRES, signs, non-integers, keywords
_JUNK = ("", "0", "-1", "1", "7", "1024", "1025", "99999999999", "x", "1.5", "0x3",
         "#", "qubits", "edge", "stage", "c", "absent", "payload", "cphase", "hadamard",
         "1" * 9, "01x", ".xz", "z" * 6)


def _valid_texts(rng: Random) -> list[tuple[object, str]]:
    gates = [h(0), p(1), cnot(0, 2), cz(1, 3), swap(2, 3), cphase(3, 0, 1), generic2(1, 2)]
    skeleton = SkeletonSpec(5, absent=frozenset({(0, 4), (1, 2)}), payload={(0, 1): cnot(1, 0), (2, 3): cz(2, 3)})
    return [
        (parse_circuit, emit_circuit(Circuit(4, tuple(rng.sample(gates, len(gates)))))),
        (parse_architecture, "lnn 5\n"),
        (parse_architecture, "grid 2 3\n"),
        (parse_architecture, "graph 4\nedge 0 1\nedge 1 2\nedge 1 3\n"),
        (parse_skeleton, emit_skeleton(skeleton)),
        (parse_gf2, emit_gf2(GF2Matrix.random_nonsingular(4, rng))),
        (parse_stab, emit_stab(random_decomposition(3, rng))),
        (parse_css, emit_css(steane_syndrome())),
    ]


def _mutate(text: str, rng: Random) -> str:
    """Drop, duplicate or corrupt one to three tokens or lines."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        op = rng.choice(("drop", "dup", "corrupt", "drop_line", "dup_line"))
        if op == "drop_line" and len(lines) > 1:
            del lines[i]
        elif op == "dup_line":
            lines.insert(i, list(lines[i]))
        elif lines[i]:
            j = rng.randrange(len(lines[i]))
            if op == "drop":
                del lines[i][j]
            elif op == "dup":
                lines[i].insert(j, lines[i][j])
            else:
                lines[i][j] = rng.choice(_JUNK)
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


def _mutants(seed: int):
    """(parser, valid text, its MUTANTS_PER_TEXT mutants) per valid text."""
    rng = Random(seed)
    for parse, text in _valid_texts(rng):
        yield parse, text, [_mutate(text, rng) for _ in range(MUTANTS_PER_TEXT)]


def fuzz_parsers(seed: int) -> int:
    """Parse every mutant; return how many were accepted."""
    accepted = 0
    for parse, text, mutants in _mutants(seed):
        parse(text)
        for mutant in mutants:
            try:
                parse(mutant)
            except ParseError:
                continue
            except Exception as exc:
                raise AssertionError(f"{parse.__name__} raised {exc!r} on {mutant!r}") from exc
            accepted += 1
    return accepted


def _cli_calls(parse, path: str, valid: dict[str, str]) -> list[list[str]]:
    """The CLI commands that read a file of the parser's format from `path`."""
    if parse is parse_circuit:
        return [
            ["depth", "--circuit", path],
            ["audit", "--circuit", path, "--arch", valid["arch"]],
            ["verify", "--a", path, "--b", valid["circuit"], "--method", "gf2"],
            ["verify", "--a", path, "--b", valid["circuit"], "--method", "tableau"],
        ]
    if parse is parse_architecture:
        return [["audit", "--circuit", valid["circuit"], "--arch", path]]
    flag, command = {
        parse_skeleton: ("--spec", "skeleton"),
        parse_gf2: ("--matrix", "linsynth"),
        parse_stab: ("--spec", "stab"),
        parse_css: ("--spec", "css"),
    }[parse]
    return [[command, flag, path]]


def fuzz_cli(seed: int, tmp: str) -> dict[int, int]:
    """Run every mutant through the CLI; return how often each exit code came."""
    valid = {"arch": os.path.join(tmp, "arch.txt"), "circuit": os.path.join(tmp, "circuit.txt")}
    with open(valid["arch"], "w") as fh:
        fh.write("lnn 4\n")
    with open(valid["circuit"], "w") as fh:  # a CNOT/SWAP circuit, so gf2 and tableau both apply
        fh.write(emit_circuit(Circuit(4, (cnot(0, 1), swap(1, 2), cnot(3, 2), swap(0, 1)))))
    path = os.path.join(tmp, "mutant.txt")
    codes: dict[int, int] = {}
    for parse, _, mutants in _mutants(seed):
        for mutant in mutants:
            with open(path, "w") as fh:
                fh.write(mutant)
            try:
                parse(mutant)
                rejected = False
            except ParseError:
                rejected = True
            for argv in _cli_calls(parse, path, valid):
                sink = io.StringIO()
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        code = cli.main(argv)
                except Exception as exc:
                    raise AssertionError(f"main({argv}) raised {exc!r} on {mutant!r}") from exc
                assert code in (0, 1, 2), (argv, code, mutant)
                assert not (rejected and code == 0), (argv, mutant)
                codes[code] = codes.get(code, 0) + 1
    return codes


def _run_child(mode: str) -> str:
    src = os.path.dirname(os.path.dirname(chainforge.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, __file__, mode, str(SEED)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_mutated_texts_parse_or_raise_parse_error():
    accepted = int(_run_child("parse"))
    # some mutants (dropped comments, reordered gates) are still valid input
    assert 0 < accepted < len(_valid_texts(Random(SEED))) * MUTANTS_PER_TEXT


def test_mutated_files_through_cli_exit_cleanly():
    codes = dict(tuple(map(int, item.split(":"))) for item in _run_child("cli").split())
    # both the success and the domain-error paths are reached
    assert codes.get(0, 0) > 0 and codes.get(1, 0) > 0, codes


if __name__ == "__main__":
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    mode, seed = sys.argv[1], int(sys.argv[2])
    if mode == "parse":
        print(fuzz_parsers(seed))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            print(" ".join(f"{code}:{k}" for code, k in sorted(fuzz_cli(seed, tmp).items())))
