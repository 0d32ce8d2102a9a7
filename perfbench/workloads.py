"""The three seeded workloads: inputs, instances and their known answers.

An instance is one schedule generated through the package and then checked
in full. Inputs are drawn here, from the seed alone, with the benchmark's
own generators; the package only ever receives the drawn data. Every check
compares against an answer fixed in advance: an oracle verdict, a depth
formula from the paper, or an exit code.

Each workload object offers
  setup(seed, workdir) -> inputs   (seeded draws and, for cli_text, files)
  instances(inputs)    -> [Instance] (one pass, run in this order)
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Callable

import numpy as np

CHECK_KINDS = ("gf2", "tableau", "dense", "audit", "formula")


@dataclass
class Outcome:
    """Checks made on one instance, plus the schedule quality it delivered."""

    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    depth: int = 0
    generic_depth: int = 0
    cnot_depth: int = 0
    gates: int = 0

    def check(self, kind: str, ok: bool, what: str) -> None:
        self.checks.append((kind, bool(ok), what))


@dataclass
class Instance:
    label: str
    run: Callable[[object], Outcome]
    # untimed preparation that reads earlier outputs of the same pass
    prepare: Callable[[], None] | None = None


# --- the benchmark's own input generators ----------------------------------


def gf2_full_rank(rows: list[int]) -> bool:
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in basis:
                basis[top] = r
                break
            r ^= basis[top]
        else:
            return False
    return True


def random_invertible(n: int, rng: Random) -> tuple[int, ...]:
    """Rows of a uniformly drawn nonsingular n x n GF(2) matrix."""
    while True:
        rows = [rng.getrandbits(n) for _ in range(n)]
        if gf2_full_rank(rows):
            return tuple(rows)


def random_stab(n: int, rng: Random) -> tuple:
    """Raw 11-stage data: two H masks, four P masks, five C matrices."""
    return (
        tuple(rng.getrandbits(n) for _ in range(2)),
        tuple(rng.getrandbits(n) for _ in range(4)),
        tuple(random_invertible(n, rng) for _ in range(5)),
    )


def random_css(n_wires: int, with_mask: bool, rng: Random) -> tuple:
    """Raw CSS spec on exactly n_wires wires with half its cells present."""
    mode = rng.choice(("encode", "syndrome"))
    extra = 1 if mode == "encode" else 0
    s = rng.randint(1, n_wires - 1 - extra)
    t = n_wires - s - extra
    rows = s + extra
    cells = rows * t
    present = set(rng.sample(range(cells), cells // 2))
    types = tuple(
        "".join(rng.choice("xz") if r * t + c in present else "." for c in range(t))
        for r in range(rows)
    )
    mask = 0
    if with_mask:
        for w in rng.sample(range(n_wires), n_wires // 2):
            mask |= 1 << w
    return mode, s, t, types, mask


def random_payload(n: int, rng: Random) -> tuple:
    """One payload per skeleton pair: (a, b, kind, arg)."""
    out = []
    for a in range(n - 1):
        for b in range(a + 1, n):
            kind = rng.choice(("cnot", "cz", "g", "cphase"))
            arg = rng.randint(1, 4) if kind == "cphase" else rng.random() < 0.5
            out.append((a, b, kind, arg))
    return tuple(out)


# --- shared pieces of the instances ----------------------------------------


def measure(cf, sc, outcome: Outcome, cnot: bool) -> None:
    """The metric calls every generated schedule gets."""
    circuit = sc.circuit
    outcome.depth = circuit.depth()
    outcome.generic_depth = cf.core.generic_depth(circuit)
    outcome.gates = len(circuit.gates)
    if cnot:
        outcome.cnot_depth = cf.linsynth.expand_to_cnot(sc).circuit.depth()


def reversal(n: int) -> tuple[int, ...]:
    return tuple(range(n - 1, -1, -1))


def gf2_matrix(cf, n: int, rows):
    return cf.linsynth.GF2Matrix(n, tuple(rows))


def stab_decomposition(cf, n: int, raw):
    h_masks, p_masks, c_rows = raw
    return cf.stabilizer.StageDecomposition(
        n, h_masks, p_masks, tuple(gf2_matrix(cf, n, r) for r in c_rows)
    )


def lin_instance(cf, n: int, rows, audit: bool = False) -> Outcome:
    out = Outcome()
    a = gf2_matrix(cf, n, rows)
    sc = cf.linsynth.synthesize_lnn(a)
    measure(cf, sc, out, cnot=True)
    out.check("gf2", cf.oracle.gf2_action(sc.circuit).relabel(sc.final_map) == a, "action == A")
    out.check("audit", cf.core.validate_on(sc.circuit, cf.core.Architecture.lnn(n)).ok, "locality")
    if audit:
        out.check("audit", cf.bounds.stage_audit(sc).ok, "swap discipline")
    out.check("formula", out.generic_depth <= 6 * n - 9, f"generic {out.generic_depth} <= 6n-9")
    out.check("formula", out.cnot_depth <= 18 * n - 27, f"cnot {out.cnot_depth} <= 18n-27")
    return out


def stab_instance(cf, n: int, raw, audit: bool = False) -> Outcome:
    out = Outcome()
    d = stab_decomposition(cf, n, raw)
    sc = cf.stabilizer.schedule_stabilizer(d)
    measure(cf, sc, out, cnot=True)
    ok = cf.stabilizer.tableau_equiv(sc.circuit, cf.stabilizer.stabilizer_flat(d), relabel=sc.final_map)
    out.check("tableau", ok, "tableau == flat")
    if audit:
        out.check("audit", cf.bounds.stage_audit(sc).ok, "swap discipline")
    out.check("formula", out.generic_depth <= 30 * n - 45, f"generic {out.generic_depth} <= 30n-45")
    out.check("formula", out.cnot_depth <= 90 * n - 129, f"cnot {out.cnot_depth} <= 90n-129")
    return out


def css_instance(cf, raw) -> Outcome:
    out = Outcome()
    mode, s, t, types, mask = raw
    css = cf.css
    cells = tuple(tuple(css.CssGate(ch) for ch in row) for row in types)
    spec = css.CssSpec(css.CssMode(mode), s, t, cells, mask)
    sc = css.css_schedule_lnn(spec)
    measure(cf, sc, out, cnot=False)
    eye = np.eye(2**spec.n_wires, dtype=complex)
    u_sched = cf.oracle.simulate(sc.circuit, eye)
    u_flat = cf.oracle.simulate(css.css_flat(spec), eye)
    out.check("dense", cf.oracle.matrices_equiv(u_sched, u_flat, out_perm=sc.final_map), "unitary == flat")
    return out


def qft_instance(cf, n: int, dense: bool) -> Outcome:
    out = Outcome()
    o = cf.oracle
    sc = cf.qft.qft_lnn(cf.qft.QftSpec(n))
    measure(cf, sc, out, cnot=False)
    if dense:
        u = o.circuit_unitary(sc.circuit) @ o.permutation_matrix(o.bit_reversal_permutation(n))
        out.check("dense", o.matrices_equiv(u, o.dft_matrix(n), out_perm=sc.final_map), "unitary == DFT")
    else:
        layers = cf.core.two_qubit_layer_count(sc.circuit)
        out.check("formula", layers == 4 * n - 6, f"two-qubit layers {layers} == 4n-6")
        out.check("formula", out.depth == 4 * n - 4, f"depth {out.depth} == 4n-4")
        out.check("audit", cf.bounds.stage_audit(sc).ok, "swap discipline")
    out.check("formula", sc.final_map == reversal(n), "final_map is the reversal")
    return out


def skeleton_instance(cf, n: int, payload) -> Outcome:
    out = Outcome()
    core = cf.core
    if payload is None:
        spec = cf.skeleton.SkeletonSpec(n)
    else:
        gates = {}
        for a, b, kind, arg in payload:
            if kind == "cnot":
                g = core.cnot(b, a) if arg else core.cnot(a, b)
            elif kind == "cz":
                g = core.cz(a, b)
            elif kind == "cphase":
                g = core.cphase(arg, a, b)
            else:
                g = core.generic2(a, b)
            gates[(a, b)] = g
        spec = cf.skeleton.SkeletonSpec(n, frozenset(), gates)
    sc = cf.skeleton.schedule_lnn(spec)
    measure(cf, sc, out, cnot=False)
    layers = core.two_qubit_layer_count(sc.circuit)
    out.check("formula", layers == 4 * n - 6, f"two-qubit layers {layers} == 4n-6")
    out.check("formula", sc.final_map == reversal(n), "final_map is the reversal")
    out.check("audit", cf.bounds.stage_audit(sc).ok, "swap discipline")
    return out


# --- many_small --------------------------------------------------------------

# One pass holds a fixed multiset of (family, size); the seed draws the
# contents and the order. Fixing the sizes keeps the work per pass nearly
# equal across seeds, so seeds change what is computed, not how much.
# 396 instances: 62.6% linsynth, 21.2% stabilizer, 10.1% CSS, 2% QFT, 4% skeleton.
LIN_SIZES = (4, 8, 16, 32)
LIN_EACH = 62
STAB_SIZES = tuple(range(2, 9))
STAB_EACH = 12
CSS_WIRES = tuple(range(3, 11)) * 5
QFT_SIZES = tuple(range(2, 10))
SKEL_SIZES = (*range(3, 17), 9, 13)


class ManySmall:
    name = "many_small"

    def setup(self, seed: int, workdir: Path) -> list[tuple]:
        rng = Random(seed)
        items: list[tuple] = []
        for n in LIN_SIZES:
            items += [("linsynth", n, random_invertible(n, rng)) for _ in range(LIN_EACH)]
        for n in STAB_SIZES:
            items += [("stab", n, random_stab(n, rng)) for _ in range(STAB_EACH)]
        for i, n in enumerate(CSS_WIRES):
            items.append(("css", n, random_css(n, i % 2 == 1, rng)))
        items += [("qft", n, None) for n in QFT_SIZES]
        items += [("skeleton", n, random_payload(n, rng)) for n in SKEL_SIZES]
        rng.shuffle(items)
        return items

    def instances(self, items: list[tuple]) -> list[Instance]:
        out = []
        for i, (family, n, raw) in enumerate(items):
            label = f"many_small#{i} {family} n={n}"
            if family == "linsynth":
                run = lambda cf, n=n, raw=raw: lin_instance(cf, n, raw)
            elif family == "stab":
                run = lambda cf, n=n, raw=raw: stab_instance(cf, n, raw)
            elif family == "css":
                run = lambda cf, raw=raw: css_instance(cf, raw)
            elif family == "qft":
                run = lambda cf, n=n: qft_instance(cf, n, dense=True)
            else:
                run = lambda cf, n=n, raw=raw: skeleton_instance(cf, n, raw)
            out.append(Instance(label, run))
        return out


# --- large_schedule ----------------------------------------------------------

LARGE_SKEL = 256
LARGE_QFT = 256
LARGE_LIN = 256
LARGE_STAB = 128


class LargeSchedule:
    name = "large_schedule"

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = Random(seed)
        return {
            "lin": random_invertible(LARGE_LIN, rng),
            "stab": random_stab(LARGE_STAB, rng),
        }

    def instances(self, raw: dict) -> list[Instance]:
        return [
            Instance(f"skeleton n={LARGE_SKEL}", lambda cf: self._skeleton(cf)),
            Instance(f"qft n={LARGE_QFT}", lambda cf: qft_instance(cf, LARGE_QFT, dense=False)),
            Instance(f"linsynth n={LARGE_LIN}", lambda cf: lin_instance(cf, LARGE_LIN, raw["lin"], audit=True)),
            Instance(f"stab n={LARGE_STAB}", lambda cf: stab_instance(cf, LARGE_STAB, raw["stab"], audit=True)),
        ]

    @staticmethod
    def _skeleton(cf) -> Outcome:
        out = skeleton_instance(cf, LARGE_SKEL, None)
        n = LARGE_SKEL
        out.check("formula", out.depth == 4 * n - 6, f"depth {out.depth} == 4n-6")
        return out


# --- cli_text ----------------------------------------------------------------

CLI_SKEL = 128
CLI_QFT = 128
CLI_LIN = 64
CLI_STAB = 24
CLI_QFT_DENSE = 8
BOUNDS_N = 30
HAMMING = ((1, 0, 1, 0, 1, 0, 1), (0, 1, 1, 0, 0, 1, 1), (0, 0, 0, 1, 1, 1, 1))


def steane_text() -> str:
    """The seven-qubit code's syndrome spec: 7 data wires, 6 checks."""
    s, t = 7, 6
    rows = [
        "".join(("x" if j <= 3 else "z") if HAMMING[(j - 1) % 3][p - 1] else "." for j in range(1, t + 1))
        for p in range(1, s + 1)
    ]
    n = s + t
    mask = "".join("1" if n - 6 <= w <= n - 4 else "0" for w in range(n))
    return "\n".join([f"css syndrome {s} {t}", *rows, f"hadamard {mask}"]) + "\n"


def bits(row: int, n: int) -> str:
    return "".join("1" if (row >> j) & 1 else "0" for j in range(n))


def gf2_text(n: int, rows) -> str:
    return "\n".join([f"gf2 {n}", *(bits(r, n) for r in rows)]) + "\n"


def stab_text(n: int, raw) -> str:
    h_masks, p_masks, c_rows = raw
    its = {"h": iter(h_masks), "p": iter(p_masks), "c": iter(c_rows)}
    out = [f"stab {n}"]
    for kind in ("h", "c", "p", "c", "p", "c", "h", "p", "c", "p", "c"):
        out.append(f"stage {kind}")
        content = next(its[kind])
        if kind == "c":
            out.extend(bits(r, n) for r in content)
        else:
            out.append(bits(content, n))
    return "\n".join(out) + "\n"


def replay_gf2(text: str, n: int) -> list[int]:
    """The benchmark's own GF(2) reading of a CNOT/SWAP circuit file."""
    rows = [1 << i for i in range(n)]
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks or toks[0] == "qubits":
            continue
        a, b = int(toks[1]), int(toks[2])
        if toks[0] == "cnot":
            rows[b] ^= rows[a]
        elif toks[0] == "swap":
            rows[a], rows[b] = rows[b], rows[a]
        else:
            raise ValueError(f"unexpected gate {toks[0]!r} in a CNOT/SWAP circuit")
    return rows


class CliText:
    name = "cli_text"

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        lin_rows = random_invertible(CLI_LIN, rng)
        files = {
            "matrix": gf2_text(CLI_LIN, lin_rows),
            "stab": stab_text(CLI_STAB, random_stab(CLI_STAB, rng)),
            "steane": steane_text(),
            "arch": f"lnn {CLI_SKEL}\n",
        }
        for name, text in files.items():
            (workdir / f"in_{name}.txt").write_text(text, encoding="utf-8")
        # position of the CNOT that the corrupted copy reverses, as a fraction
        return {"dir": workdir, "lin_rows": lin_rows, "flip_at": rng.random()}

    def instances(self, inp: dict) -> list[Instance]:
        d: Path = inp["dir"]
        f = lambda name: str(d / f"out_{name}.txt")
        given = lambda name: str(d / f"in_{name}.txt")
        records: dict[str, dict] = {}

        def generate(key: str, argv: list[str], n: int, expect: Callable[[dict, str, Outcome], None]):
            def run(cf) -> Outcome:
                out = Outcome()
                code, stdout, stderr = call_cli(cf, [*argv, "--report", "json", "--out", f(key)])
                out.check("formula", code == 0, f"exit {code} == 0 {stderr.strip()}")
                if code != 0:
                    return out
                rec = records[key] = json.loads(stdout)
                text = Path(f(key)).read_text(encoding="utf-8")
                out.depth = rec["depth"]
                out.generic_depth = rec["generic_depth"]
                out.cnot_depth = rec["cnot_depth"] or 0
                out.gates = sum(1 for line in text.splitlines() if line and line[0] not in "#q")
                out.check("formula", rec["n"] == n, f"n {rec['n']} == {n}")
                expect(rec, text, out)
                return out

            return Instance("cli " + " ".join(Path(a).name for a in argv), run)

        def tool(argv: list[str], kind: str, want_code: int, want_text: str):
            def run(cf) -> Outcome:
                out = Outcome()
                code, stdout, stderr = call_cli(cf, argv)
                out.check(kind, code == want_code, f"exit {code} == {want_code} {stderr.strip()}")
                out.check(kind, want_text in stdout, f"output holds {want_text!r}")
                return out

            return run

        def gf2_matches_input(rec, text, out):
            n = CLI_LIN
            fm = rec["final_map"]
            got = replay_gf2(text, n)
            ok = sorted(fm) == list(range(n)) and [got[fm[l]] for l in range(n)] == list(inp["lin_rows"])
            out.check("gf2", ok, "own GF(2) replay == input matrix")

        def skel_expect(rec, text, out):
            n = CLI_SKEL
            out.check("formula", rec["depth"] == 4 * n - 6, f"depth {rec['depth']} == 4n-6")
            out.check("formula", rec["final_map"] == list(reversal(n)), "final_map is the reversal")
            out.check("audit", rec["violations"] == [], "no swap-discipline violations")

        def qft_expect(n):
            def expect(rec, text, out):
                out.check("formula", rec["depth"] == 4 * n - 4, f"depth {rec['depth']} == 4n-4")
                out.check("formula", rec["final_map"] == list(reversal(n)), "final_map is the reversal")
                out.check("audit", rec["violations"] == [], "no swap-discipline violations")

            return expect

        def qft_flat_expect(rec, text, out):
            out.check("formula", rec["final_map"] is None, "flat circuit has no final_map")

        def lin_expect(rec, text, out):
            n = CLI_LIN
            gf2_matches_input(rec, text, out)
            out.check("formula", rec["generic_depth"] <= 6 * n - 9, f"generic {rec['generic_depth']} <= 6n-9")
            out.check("formula", rec["cnot_depth"] <= 18 * n - 27, f"cnot {rec['cnot_depth']} <= 18n-27")
            out.check("audit", rec["violations"] == [], "no swap-discipline violations")

        def lin_cnot_expect(rec, text, out):
            n = CLI_LIN
            gf2_matches_input(rec, text, out)
            out.check("formula", rec["depth"] == rec["cnot_depth"], "CNOT-only depth == cnot_depth")
            out.check("formula", rec["cnot_depth"] <= 18 * n - 27, f"cnot {rec['cnot_depth']} <= 18n-27")
            # no SWAP layers at all, so every three L layers break the 3L1S rule
            out.check("audit", len(rec["violations"]) > 0, "SWAP-free circuit violates the discipline")

        def stab_expect(rec, text, out):
            n = CLI_STAB
            out.check("formula", rec["generic_depth"] <= 30 * n - 45, f"generic {rec['generic_depth']} <= 30n-45")
            out.check("formula", rec["cnot_depth"] <= 90 * n - 129, f"cnot {rec['cnot_depth']} <= 90n-129")
            out.check("formula", sorted(rec["final_map"]) == list(range(n)), "final_map is a permutation")
            out.check("audit", rec["violations"] == [], "no swap-discipline violations")

        def steane_expect(rec, text, out):
            out.check("formula", rec["generic_depth"] == 12, f"generic {rec['generic_depth']} == 12")
            out.check("formula", rec["depth"] <= 26, f"depth {rec['depth']} <= 26")
            out.check("audit", rec["violations"] == [], "no swap-discipline violations")

        def depth_run(cf) -> Outcome:
            out = Outcome()
            code, stdout, _ = call_cli(cf, ["depth", "--circuit", f("lin"), "--report", "json"])
            out.check("formula", code == 0, f"exit {code} == 0")
            if code == 0:
                rec, gen = json.loads(stdout), records.get("lin", {})
                same = all(rec[k] == gen.get(k) for k in ("depth", "generic_depth", "cnot_depth"))
                out.check("formula", same, "depth of the file == depth reported at generation")
            return out

        def strip_swaps() -> None:
            text = Path(f("skel")).read_text(encoding="utf-8")
            kept = [line for line in text.splitlines() if not line.startswith("swap ")]
            Path(f("skel_stripped")).write_text("\n".join(kept) + "\n", encoding="utf-8")

        def flip_one_cnot() -> None:
            lines = Path(f("lincnot")).read_text(encoding="utf-8").splitlines()
            at = [i for i, line in enumerate(lines) if line.startswith("cnot ")]
            i = at[int(inp["flip_at"] * len(at))]
            _, c, t = lines[i].split()
            lines[i] = f"cnot {t} {c}"
            Path(f("lincnot_bad")).write_text("\n".join(lines) + "\n", encoding="utf-8")

        q8 = CLI_QFT_DENSE
        arch = given("arch")
        return [
            generate("skel", ["skeleton", "--n", str(CLI_SKEL)], CLI_SKEL, skel_expect),
            generate("qft", ["qft", "--n", str(CLI_QFT)], CLI_QFT, qft_expect(CLI_QFT)),
            generate("lin", ["linsynth", "--matrix", given("matrix")], CLI_LIN, lin_expect),
            generate("lincnot", ["linsynth", "--matrix", given("matrix"), "--cnot-only"], CLI_LIN, lin_cnot_expect),
            generate("stab", ["stab", "--spec", given("stab")], CLI_STAB, stab_expect),
            generate("css", ["css", "--spec", given("steane")], 7 + 6, steane_expect),
            generate("q8", ["qft", "--n", str(q8)], q8, qft_expect(q8)),
            generate("q8flat", ["qft", "--n", str(q8), "--flat"], q8, qft_flat_expect),
            Instance("cli depth lin", depth_run),
            Instance(
                "cli audit skeleton",
                tool(["audit", "--circuit", f("skel"), "--arch", arch], "audit", 0, "swap discipline PASS"),
            ),
            Instance(
                "cli verify gf2",
                tool(["verify", "--a", f("lin"), "--b", f("lincnot"), "--method", "gf2"], "gf2", 0, "gf2 PASS"),
            ),
            Instance(
                "cli verify dense",
                tool(
                    ["verify", "--a", f("q8"), "--b", f("q8flat"), "--method", "dense", "--relabel", "reverse"],
                    "dense", 0, "dense PASS",
                ),
            ),
            Instance(
                "cli bounds",
                tool(["bounds", "--model", "A", "--arch", "lnn", "--n", str(BOUNDS_N)], "formula", 0, "coefficient 10/3"),
            ),
            Instance(
                "cli audit stripped skeleton",
                tool(["audit", "--circuit", f("skel_stripped"), "--arch", arch], "audit", 1, "swap discipline FAIL"),
                prepare=strip_swaps,
            ),
            Instance(
                "cli verify corrupted copy",
                tool(["verify", "--a", f("lincnot"), "--b", f("lincnot_bad"), "--method", "gf2"], "gf2", 1, "gf2 FAIL"),
                prepare=flip_one_cnot,
            ),
        ]


def call_cli(cf, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cf.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


WORKLOADS = {w.name: w for w in (ManySmall(), LargeSchedule(), CliText())}
