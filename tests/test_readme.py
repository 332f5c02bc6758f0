import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    """The ``python`` block of README.md's "Library example" section."""
    section = README.read_text().split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "the Library example section holds one python block"
    return blocks[0]


def test_readme_library_example_runs():
    scope: dict = {}
    exec(compile(_library_example(), "README.md (Library example)", "exec"), scope)
    # the example ends with both distances of the warped pair
    assert 0.0 <= scope["dq"] <= scope["dc"]
    assert scope["recovered"].knots_x[-1] == 1.0
