import os
import pathlib
import re
import subprocess
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs():
    # the README's one python block ends in ``assert regret <= bound``
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        (_ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
