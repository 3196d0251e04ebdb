#!/usr/bin/env python3
"""AVX→SSE transition check over the SIMD kernels' object file.

Usage: scripts/check_vzeroupper.py <path/to/simd.cc.o>

Legacy SSE code that runs while the upper halves of the YMM registers are
dirty pays a penalty on every instruction. Every `*Avx2` function in
src/lsh/simd.cc therefore has to execute `vzeroupper` after its last YMM
write on any path that leaves the function through a `call` or `jmp` (a
tail call to a scalar kernel is the usual case; GCC's own vzeroupper
insertion has been seen to miss it).

The check disassembles the object with `objdump -dr`, builds each
`*Avx2` function's control-flow graph from its branch targets and
fall-throughs, and propagates a may-be-dirty flag forward: an instruction
whose destination is a %ymm register sets it, `vzeroupper`/`vzeroall`
clears it. Any `call` or `jmp`/`jcc` whose target lies outside the
function (another symbol, a relocation, or an indirect target) that can
be reached with the flag set is reported. Exits non-zero on a report.
"""

import re
import subprocess
import sys

FUNC_RE = re.compile(r"^([0-9a-f]+) <([^>]+)>:$")
INSN_RE = re.compile(r"^\s*([0-9a-f]+):\s+(\S+)\s*(.*)$")
RELOC_RE = re.compile(r"^\s*[0-9a-f]+: R_\S+\s+(\S+)")
TARGET_RE = re.compile(r"^([0-9a-f]+) <([^>+]+)(?:\+0x[0-9a-f]+)?>")
CLEAR = ("vzeroupper", "vzeroall")


class Insn:
    def __init__(self, addr, mnemonic, operands):
        self.addr = addr
        self.mnemonic = mnemonic
        self.operands = operands
        self.reloc = None


def parse(text):
    """Maps each function symbol to its list of instructions."""
    functions = {}
    current = None
    for line in text.splitlines():
        m = FUNC_RE.match(line)
        if m:
            current = functions.setdefault(m.group(2), [])
            continue
        if current is None:
            continue
        m = RELOC_RE.match(line)
        if m and current:
            current[-1].reloc = m.group(1)
            continue
        m = INSN_RE.match(line)
        if m:
            # Drop prefixes objdump prints as words (notrack, bnd, rep).
            words = (m.group(2) + " " + m.group(3)).split(None, 1)
            while words and words[0] in ("notrack", "bnd", "rep", "repz"):
                words = words[1].split(None, 1) if len(words) > 1 else []
            if not words:
                continue
            operands = words[1].split("#")[0].strip() if len(words) > 1 else ""
            current.append(Insn(int(m.group(1), 16), words[0], operands))
    return functions


def writes_ymm(insn):
    # AT&T syntax: the destination is the last operand.
    return insn.operands.split(",")[-1].strip().startswith("%ymm")


def branch_target(name, insn):
    """(internal_addr, leaves) for a call/jmp/jcc, else None."""
    m = insn.mnemonic
    if not (m.startswith("j") or m.startswith("call")):
        return None
    if insn.reloc is not None or insn.operands.startswith("*"):
        return (None, True)
    t = TARGET_RE.match(insn.operands)
    if t is None or t.group(2) != name:
        return (None, True)
    if m.startswith("call"):
        return (None, True)
    return (int(t.group(1), 16), False)


def check_function(name, insns):
    index = {insn.addr: i for i, insn in enumerate(insns)}
    dirty_in = [None] * len(insns)  # None = unreached
    work = [0]
    dirty_in[0] = False
    reports = set()
    while work:
        i = work.pop()
        insn = insns[i]
        dirty = dirty_in[i]
        target = branch_target(name, insn)
        if target is not None and target[1] and dirty:
            reports.add(i)
        if insn.mnemonic in CLEAR:
            out = False
        elif writes_ymm(insn):
            out = True
        else:
            out = dirty
        successors = []
        unconditional = insn.mnemonic.startswith(("jmp", "ret", "ud2"))
        if not unconditional and i + 1 < len(insns):
            successors.append(i + 1)
        if target is not None and not target[1] and target[0] in index:
            successors.append(index[target[0]])
        for s in successors:
            if dirty_in[s] is None or (out and not dirty_in[s]):
                dirty_in[s] = out if dirty_in[s] is None else True
                work.append(s)
    return [insns[i] for i in sorted(reports)]


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    text = subprocess.run(
        ["objdump", "-dr", "--no-show-raw-insn", sys.argv[1]],
        check=True, capture_output=True, text=True).stdout
    functions = {n: f for n, f in parse(text).items() if "Avx2" in n and f}
    if not functions:
        print("check_vzeroupper: no *Avx2 functions in " + sys.argv[1])
        return 1
    failures = 0
    for name, insns in sorted(functions.items()):
        for insn in check_function(name, insns):
            failures += 1
            print("%s+0x%x: %s %s leaves with dirty upper YMM halves "
                  "(no vzeroupper after the last ymm write)"
                  % (name, insn.addr - insns[0].addr, insn.mnemonic,
                     insn.reloc or insn.operands))
    print("check_vzeroupper: %d *Avx2 functions, %d unguarded exits"
          % (len(functions), failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
