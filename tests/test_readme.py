"""The README's Python tour runs as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_the_readme_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", open(README, encoding="utf-8").read(), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert len(namespace["recursion"]) == 2
