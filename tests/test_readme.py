"""The README's library quickstart runs as written, without a warning."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    text = README.read_text()
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    names = {}
    with warnings.catch_warnings():
        # a documented fit that stops at its own i_max would warn here
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(block, "README.md quickstart", "exec"), names)
    model, scores = names["model"], names["scores"]
    assert 0 <= model.i_selected < 60
    assert names["q"].shape == (100, 3)
    assert scores.shape == (len(model.feature_names),)
