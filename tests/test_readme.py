"""The README's library quickstart runs as written, without a warning, and
its command lines parse."""

import re
import shlex
import warnings
from pathlib import Path

from flexts import cli

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


def test_readme_commands_parse():
    # each flexts line of every sh block, its backslash continuations joined
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("flexts "):
                commands.append(shlex.split(line, comments=True)[1:])
    assert len(commands) >= 8
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]
