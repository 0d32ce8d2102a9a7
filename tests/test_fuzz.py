"""Seeded fuzz of every text parser: each input parses or raises ParseError.

The fuzz body runs in a child process whose address space is capped with
RLIMIT_AS, so a parser that starts allocating without bound fails this test
with a MemoryError instead of exhausting the machine.
"""

import os
import subprocess
import sys
from random import Random

import chainforge
from chainforge.core import (
    Architecture,
    Circuit,
    ParseError,
    cnot,
    cphase,
    cz,
    emit_architecture,
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
        (parse_architecture, emit_architecture(Architecture.lnn(5))),
        (parse_architecture, emit_architecture(Architecture.grid(2, 3))),
        (parse_architecture, emit_architecture(Architecture.graph(4, ((0, 1), (1, 2), (1, 3))))),
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


def fuzz_parsers(seed: int) -> int:
    """Parse every mutant; return how many were accepted."""
    rng = Random(seed)
    accepted = 0
    for parse, text in _valid_texts(rng):
        parse(text)
        for _ in range(MUTANTS_PER_TEXT):
            mutant = _mutate(text, rng)
            try:
                parse(mutant)
            except ParseError:
                continue
            except Exception as exc:
                raise AssertionError(f"{parse.__name__} raised {exc!r} on {mutant!r}") from exc
            accepted += 1
    return accepted


def test_mutated_texts_parse_or_raise_parse_error():
    src = os.path.dirname(os.path.dirname(chainforge.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, __file__, str(SEED)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    accepted = int(proc.stdout)
    # some mutants (dropped comments, reordered gates) are still valid input
    assert 0 < accepted < len(_valid_texts(Random(SEED))) * MUTANTS_PER_TEXT


if __name__ == "__main__":
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    print(fuzz_parsers(int(sys.argv[1])))
