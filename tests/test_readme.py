"""README's Library section runs as written and names what the package root exports."""

import pathlib
import re

import trimsum

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_library_example_runs_and_lists_the_root_exports():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    exports = re.search(r"The package root exports exactly these:(.*?)\.\s", section, re.S).group(1)
    assert sorted(re.findall(r"`(\w+)`", exports)) == sorted(trimsum.__all__)
