import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    surface = namespace["surface"]
    assert surface.predictions.shape == (namespace["grid"].ncells,)
    assert np.all(np.isfinite(surface.predictions))
