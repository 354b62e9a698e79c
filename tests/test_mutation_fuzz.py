"""Randomly edited equation files through the command line, in process.

One to three characters of `burgers.eqn`, `kdv.eqn` or `nls1.eqn` are
replaced, inserted or deleted, and the result goes through a set of
commands that read every kind of line.  Whatever the edit, each call ends
with one of the documented exit codes (0, 1 or 2) and raises nothing.
"""

import contextlib
import io
import os

from hypothesis import HealthCheck, given, settings, strategies as st

from jetcalc.cli import main

EQN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "eqn")
FILES = {name: open(os.path.join(EQN, f"{name}.eqn"), encoding="utf-8").read() for name in ("burgers", "kdv", "nls1")}
ALPHABET = sorted(set("".join(FILES.values())) | set("0123456789(){}^_*/+-=:;,"))
COMMANDS = (
    ("euler", "--density", "H1"),
    ("adjoint", "--op", "A2"),
    ("linearize",),
    ("verify-current", "--current", "J"),
    ("check-hamiltonian", "--op", "A1"),
    ("symmetries", "--order", "1", "--deg", "1"),
    ("recursion", "--covering", "pot", "--order", "1", "--deg", "1"),
)

edits = st.lists(st.tuples(st.sampled_from(("replace", "insert", "delete")),
                           st.integers(0, 400), st.sampled_from(ALPHABET)), min_size=1, max_size=3)


def _edit(text, kind, pos, char):
    i = pos % (len(text) + 1)
    if kind == "insert":
        return text[:i] + char + text[i:]
    return text[:i] + (char if kind == "replace" else "") + text[i + 1:]


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(FILES)), changes=edits)
def test_an_edited_equation_file_exits_0_1_or_2(tmp_path, name, changes):
    text = FILES[name]
    for change in changes:
        text = _edit(text, *change)
    path = tmp_path / "edited.eqn"
    path.write_text(text, encoding="utf-8")
    for argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([argv[0], str(path), *argv[1:]])
        assert code in (0, 1, 2), (argv, text)
