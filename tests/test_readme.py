"""The README's library example runs and prints what its comments say, and
its CLI examples parse."""

import ast
import re
import shlex
from pathlib import Path

from hilbertdepth import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_values():
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(),
                      re.M | re.S).group(1)
    namespace: dict = {}
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expression = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = eval(expression, namespace)
        # a comment that names a tuple of integers states the line's value
        stated = re.search(r"\(\d+(?:, \d+)*\)", comment)
        if stated:
            assert value == ast.literal_eval(stated.group()), line
            checked.append(value)
    assert checked == [(2, 3), (1, 2, 0)]


def test_cli_block_parses():
    # parsing only: a renamed or removed flag fails here, and no command runs
    block = re.search(r"^## CLI\n.*?^```\n(.*?)^```", README.read_text(),
                      re.M | re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("hdepth ")]
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # a usage error exits with SystemExit
    assert {argv[1] for argv in commands} == {"compute", "verify", "search"}
