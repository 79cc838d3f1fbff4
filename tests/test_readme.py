"""README's library tour runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    """The python block under the "## Library tour" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library tour\n")[1]
    section = section.split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, "the tour should hold one python block"
    return blocks[0]


def test_library_tour_runs():
    scope = {}
    exec(compile(_tour(), str(README), "exec"), scope)
    # the bill the tour's comment states
    assert scope["counter"].total_evals == 50
    assert scope["refined"].samples.size == 10**6
