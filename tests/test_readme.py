"""The README's Library block runs as written.

Run as a script (``python tests/test_readme.py``) it executes the block
against whichever ``corematch`` the interpreter imports, such as an
installed package.
"""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The first ``python`` code block under the README's Library heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_the_library_block_runs():
    exec(compile(library_block(), str(README), "exec"), {})


if __name__ == "__main__":
    test_the_library_block_runs()
