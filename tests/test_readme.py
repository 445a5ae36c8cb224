"""README's Library section is the package's documented surface: its example
runs as written, and the package namespace holds the names it imports."""

import re
import types
from pathlib import Path

import cycleweights

README = Path(__file__).parents[1] / "README.md"
NAMES = {"random_config", "check_bounds", "enumerate_cycles", "trace", "sequence_table",
         "optimize"}


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ")[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs_as_written(capsys):
    exec(compile(_library_example(), str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    assert out[1].startswith("(Fraction(0, 1), Fraction(1, 1), Fraction(3, 4)")


def test_package_namespace_is_the_readme_names():
    imported = re.search(r"from cycleweights import \((.*?)\)", _library_example(), re.S)
    public = {name for name, value in vars(cycleweights).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(imported.group(1).replace(",", " ").split()) == public == NAMES
    assert cycleweights.__version__ == "0.1.0"
