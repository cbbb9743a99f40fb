"""Compare the CLI output of two source trees byte for byte; fail on an
undeclared change.

Usage: python .github/cli_bytes.py BASE_TREE HEAD_TREE

Runs every `nlsqueeze` command of HEAD_TREE's README plus the fixed MATRIX
below as `python -m nlsqueeze`, once per tree, with PYTHONPATH=<tree>/src,
one BLAS thread and a fresh working directory each.  Prints a Markdown
report: "identical" when stdout, stderr, the exit code and every file the
command writes agree, else their unified diffs.

A change of bytes may be intended, so a command may be declared in
HEAD_TREE's DECLARED file, one line per command: the sha256 of the
command's new output (see `digest`), two spaces, and the command as the
report prints it.  The script exits 1 when a command differs and is not
declared with the digest of its new output; the report gives the line to
declare for each.  A declaration names the bytes it admits, so one left
from an earlier change matches nothing and is reported as stale, to be
pruned.
"""

import difflib
import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

DECLARED = Path(".github/cli_bytes_declared.txt")

MATRIX = [
    "sweep --model TAT --n 20 --kmax 4 --steps 11 --format json --parity --qfi",
    "sweep --n 2",
    "sweep --n 400 --kmax 3 --steps 21 --qfi --format json",
    # the largest family, K = 6 (83 members), and its tau = pi/2 kernel
    "sweep --n 16 --kmax 6 --steps 11 --qfi --format json",
    "analyze --model OAT --n 7 --kmax 6 --tau 1.5707963267948966",
    "analyze --model TAT --n 30 --kmax 5 --tau 0.2",
    # K > N: the families span every operator and hold exact-zero members
    "sweep --n 1 --kmax 6 --steps 11 --qfi --format json",
    # pure tables of 2 row chunks and 2 column slices in `moments._center`
    "sweep --n 1000 --kmax 3 --steps 5 --qfi --format json",
    "sweep --n 400 --kmax 5 --steps 5 --qfi --format json",
    "analyze --model TAT --n 3 --kmax 6 --tau 0.4",
    *(f"fock --n {n} --order {order}" for n in (0, 5, 60) for order in (2, 3)),
    # the smallest cutoff that holds the cubic family: an order-2 request
    # there builds the cubic members too
    "fock --n 0 --cutoff 4",
    "fock --n 0 --cutoff 4 --order 2",
    # the largest cv families: cutoff 1020, checked at 1024 = MAX_DIMENSION
    "fock --n 1012",
    "fock --n 1012 --order 2",
    "estimate --model OAT --n 16 --tau 0.1",
    # finite ends whose span overflows: one error line, no numpy warning
    "sweep --n 4 --tau-start=-1e308 --tau-end=1e308 --steps 3",
    "estimate --n 4 --window 1e308",
    # a mu beyond int64 is refused with one error line, not a traceback
    "estimate --n 4 --mu 100000000000000000000",
    # generator and observable read from `DickeBasis.spin_axes` at large D
    "estimate --n 400 --generator Jy --observable Jx --tau 0.05 --mu 1000 --trials 20",
    # a library warning: stderr is one `warning:` line, which no longer
    # carries the checkout's path and a source line, so two trees can agree
    "estimate --n 4 --mu 10 --trials 5",
    # --model, --n and --tau of analyze and estimate come from one parent
    # parser; the help of each shows its options' order and text
    "analyze --help",
    "estimate --help",
]


def readme_commands(tree: Path) -> list[str]:
    """Every `nlsqueeze` command of the README's shell blocks, without the program name."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", (tree / "README.md").read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["nlsqueeze"]:
                commands.append(shlex.join(words[1:]))
    return commands


def run(tree: Path, command: str) -> dict[str, bytes]:
    """stdout, stderr, exit code and the files written by one command."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-m", "nlsqueeze", *shlex.split(command)],
                              cwd=cwd, env=env, capture_output=True)
        out = {"stdout": proc.stdout, "stderr": proc.stderr, "exit code": b"%d\n" % proc.returncode}
        for path in sorted(Path(cwd).iterdir()):
            out[f"file {path.name}"] = path.read_bytes()
    return out


def digest(out: dict[str, bytes]) -> str:
    """sha256 of every part of a command's output (stdout, stderr, exit code
    and files), each as its name, its length and its bytes, in name order."""
    h = hashlib.sha256()
    for part in sorted(out):
        h.update(b"%s\0%d\0" % (part.encode(), len(out[part])) + out[part])
    return h.hexdigest()


def declarations(tree: Path) -> dict[str, str]:
    """command -> declared digest, from the tree's DECLARED file ('#' starts a comment)."""
    path = tree / DECLARED
    declared = {}
    for line in path.read_text().splitlines() if path.exists() else []:
        if line.strip() and not line.startswith("#"):
            sha, command = line.split("  ", 1)
            declared[command] = sha
    return declared


def main() -> int:
    base, head = (Path(arg).resolve() for arg in sys.argv[1:3])
    commands = readme_commands(head) + MATRIX
    declared = declarations(head)
    differing, undeclared, used = 0, [], set()
    report = []
    for command in commands:
        old, new = run(base, command), run(head, command)
        if old == new:
            report.append(f"- `{command}`: identical")
            continue
        differing += 1
        if declared.get(command) == digest(new):
            used.add(command)
            report.append(f"- `{command}`: differs, declared")
        else:
            undeclared.append(f"{digest(new)}  {command}")
            report.append(f"- `{command}`: differs, NOT declared")
        report.append("```diff")
        for part in sorted(old.keys() | new.keys()):
            a = old.get(part, b"").decode(errors="replace").splitlines()
            b = new.get(part, b"").decode(errors="replace").splitlines()
            report.extend(difflib.unified_diff(a, b, f"base {part}", f"head {part}", lineterm=""))
        report.append("```")
    print("### CLI bytes against the base commit")
    print(f"{len(commands) - differing} of {len(commands)} commands identical, "
          f"{differing - len(undeclared)} declared changes, {len(undeclared)} undeclared")
    print("\n".join(report))
    if stale := sorted(declared.keys() - used):
        print(f"\nStale declarations in `{DECLARED}` (they match no change; prune them):")
        print("\n".join(f"- `{command}`" for command in stale))
    if undeclared:
        print(f"\nUndeclared changes; if intended, add these lines to `{DECLARED}`:")
        print("```\n" + "\n".join(undeclared) + "\n```")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
