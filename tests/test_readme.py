"""README as a test: the Library example runs and prints what its comments
say, the command examples print what README shows, and every shotbudget
name README mentions is importable."""

import importlib.util
import json
import pathlib
import re
import shlex

import shotbudget
from shotbudget import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.S | re.M)


LIBRARY = re.search(r"```python\n(.*?)```", README.split("## Library", 1)[1], flags=re.S).group(1)


def test_library_example_runs_and_matches_its_comments():
    namespace: dict = {}
    exec(compile(LIBRARY, "README.md", "exec"), namespace)
    checked = 0
    for line in LIBRARY.splitlines():
        commented = re.fullmatch(r"(\S.*?)\s+#\s+(\d+)\b.*", line)
        if commented:
            assert eval(commented.group(1), namespace) == int(commented.group(2)), line
            checked += 1
    assert checked == 4


def _shown_commands() -> list[tuple[list[str], str]]:
    """(argv, shown output) for each `$ shotbudget` line of a text block that reads no file."""
    shown = []
    for block in _blocks("text"):
        for command in re.split(r"^(?=\$ shotbudget )", block, flags=re.M)[1:]:
            line, _, output = command.partition("\n")
            argv = shlex.split(line)[2:]
            if not any(arg.endswith(".json") for arg in argv):
                shown.append((argv, output.rstrip("\n") + "\n"))
    return shown


def test_command_examples_print_what_readme_shows(capsys):
    shown = _shown_commands()
    assert [argv[:2] for argv, _ in shown] == [
        ["shots", "--fidelity"], ["noise", "plan"], ["noise", "decide"], ["validate", "--scenario"]]
    for argv, output in shown:
        assert cli.main(argv) == 0, argv
        printed = capsys.readouterr().out
        assert re.sub(r" +\n", "\n", printed) == output, argv


def _not_library_words() -> set[str]:
    """Backticked words that name something else: JSON keys, curve kinds, code variables."""
    words = set(cli._CURVE_DEFAULTS)
    words.update(key for block in _blocks("json") for key in re.findall(r'"(\w+)"\s*:', block))
    words.update(re.findall(r"^(\w+)\s*=", LIBRARY, flags=re.M))
    return words


def _mentioned_names() -> set[str]:
    """Names imported in README code, and backticked code-like identifiers:
    dotted, snake_case or capitalized (files, JSON literals, RNG outputs
    and names of other packages excepted)."""
    names = {name.strip() for block in _blocks("python")
             for group in re.findall(r"from shotbudget import \((.*?)\)", block, flags=re.S)
             for name in group.split(",") if name.strip()}
    skip = _not_library_words()
    for token in re.findall(r"`([A-Za-z_][\w.]*)`", README):
        head = token.split(".")[0]
        if len(token) < 2 or not ("_" in token or "." in token or token[0].isupper()):
            continue  # single letters and plain words: symbols, CLI values, prose
        if token.endswith(".py") or head in skip or re.fullmatch(r"[0-9a-f]{16}", token):
            continue
        try:
            json.loads(token)  # NaN, Infinity
            continue
        except ValueError:
            pass
        if head != "shotbudget" and importlib.util.find_spec(head) is not None:
            continue  # numpy.linalg.eigh and the like
        names.add(token)
    return names


def _resolves(token: str) -> bool:
    obj = shotbudget
    for part in token.split(".")[1:] if token.startswith("shotbudget") else token.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_name_readme_mentions_is_importable():
    names = _mentioned_names()
    assert {"shots_inverse_ideal", "shots_swap_ideal", "estimate", "BudgetReport.columns"} <= names
    assert sorted(name for name in names if not _resolves(name)) == []
