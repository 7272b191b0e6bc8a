"""The CLI output on a fixed matrix of calls, pinned by digest.

Each call runs in-process through ``cli.main``.  The sha256 of its exit
code, stdout and stderr must equal the digest on its line of
``cli_matrix.sha256``.  Running this module as a script rewrites that file:

    PYTHONPATH=src python tests/test_cli_matrix.py
"""

import contextlib
import hashlib
import io
import pathlib
import shlex

from effparse.cli import main

HERE = pathlib.Path(__file__).resolve().parent
DIGESTS = HERE / "cli_matrix.sha256"

SENTENCES = ("the cat sleeps", "the cat eats a mouse", "a cat in a box",
             "no cat sleeps", "everyone eats jupiter", "it sleeps",
             "jupiter , a planet sleeps", "a box in a mouse be carnivorous",
             "the cat in a box eats it", "a cat in a box in a box in a box",
             "jupiter eats no skillful mouse", "it eats a mouse in the box",
             "everyone chases the mouse")
COMMANDS = (("parse", "--all-parses", "--eval"), ("eval", "--all-parses"),
            ("parse", "--all-parses", "--no-prune"),
            *((command, "--index", str(i)) for command in ("diagram", "normalize")
              for i in range(4)),
            ("equal", "--indices", "0", "1"))


def calls():
    """Every argv of the matrix; file paths are relative to the repository."""
    for sentence in SENTENCES:
        for syntax in ((), ("--syntax", "data/english.cfg")):
            for command, *flags in COMMANDS:
                yield (command, "--language", "data/english.lang",
                       "--model", "data/solar.model", *syntax, *flags, sentence)


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    resolved = [str(HERE.parent / a) if a.startswith("data/") else a for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(resolved)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def test_cli_matrix_matches_pinned_digests():
    pinned = {call: pin for pin, call in (line.split("  ", 1)
                                          for line in DIGESTS.read_text().splitlines())}
    got = {shlex.join(argv): digest(argv) for argv in calls()}
    differ = sorted(call for call in got.keys() | pinned.keys()
                    if got.get(call) != pinned.get(call))
    assert not differ, "calls whose output differs from the pinned digest:\n" + \
        "\n".join(differ)


if __name__ == "__main__":
    DIGESTS.write_text("".join(f"{digest(argv)}  {shlex.join(argv)}\n"
                               for argv in calls()))
