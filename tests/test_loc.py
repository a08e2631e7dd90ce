import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# one line of each kind: "code" marks the lines that count
MODULE = '''"""Module docstring,
over two lines."""

import os   # code

# a comment line


class Box:   # code
    """Class docstring."""

    size = 2   # code

    def area(self):   # code
        """Function docstring,

        with a blank line."""
        # a comment in a body
        text = """a string that is   # code
not a docstring"""   # code
        return (self.size   # code
                * self.size)   # code


async def wait():   # code
    """Docstring of an async function."""
    return "done"   # code
'''


def test_counts_code_lines_of_a_package(tmp_path):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text('"""Only a docstring."""\n')
    (package / "mod.py").write_text(MODULE)
    (package / "sub" / "leaf.py").write_text("x = 1\n\n\ny = [\n    x,\n]\n")
    (package / "notes.txt").write_text("x = 1\n")
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "loc.py"), str(package)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "     0  __init__.py",
        "    %2d  mod.py" % MODULE.count("# code"),
        "     4  sub/leaf.py",
        "    %2d  total" % (MODULE.count("# code") + 4),
    ]
    assert MODULE.count("# code") == 10
