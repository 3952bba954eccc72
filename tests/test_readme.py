"""README's CLI and Library sections run as written, and the Library section names
what the package root exports."""

import pathlib
import re
import shlex

import trimsum
from trimsum.cli import main

README = pathlib.Path(__file__).parent.parent / "README.md"

# the commands whose comment is their whole stdout; the rest summarise theirs
EXACT = {
    "weight -q 79",
    "trim -q 7 32184",
    "sum -q 17 32184",
    "binomial -q 7 32184",
    "talmud 32184",
    "lastdigit -q 8 32184",
}


def _section(name):
    return README.read_text().split(f"\n## {name}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_examples_run_and_print_what_they_say(capsys):
    block = re.search(r"```sh\n(.*?)```", _section("CLI"), re.S).group(1)
    exact = set()
    for line in block.splitlines():
        command, comment = (part.strip() for part in line.split("#", 1))
        assert command.startswith("trimsum "), line
        args = command.removeprefix("trimsum ")
        assert main(shlex.split(args)) == 0, line
        out, err = capsys.readouterr()
        assert err == "", line
        if args in EXACT:
            assert out == comment + "\n", line
            exact.add(args)
    assert exact == EXACT


def test_readme_library_example_runs_and_lists_the_root_exports():
    section = _section("Library")
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    exports = re.search(r"The package root exports exactly these:(.*?)\.\s", section, re.S).group(1)
    assert sorted(re.findall(r"`(\w+)`", exports)) == sorted(trimsum.__all__)
