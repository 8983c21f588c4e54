"""The fixture regenerators (worked examples, evaluation files and the desk
corpus) reproduce the committed fixtures byte for byte.

Each script writes under its own ``ROOT/fixtures``, ``ROOT`` being the
script's grandparent directory, so copies run from ``tmp_path/scripts``
write into ``tmp_path/fixtures`` and leave the repository alone.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import ontoenrich

ROOT = Path(__file__).resolve().parent.parent
REGENERATORS = ("make_example_fixtures.py", "make_eval_fixtures.py", "make_desk_corpus.py")


def files_under(root: Path) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_regenerators_reproduce_committed_fixtures(tmp_path):
    (tmp_path / "scripts").mkdir()
    src = Path(ontoenrich.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name in REGENERATORS:
        script = tmp_path / "scripts" / name
        shutil.copyfile(ROOT / "scripts" / name, script)
        subprocess.run([sys.executable, str(script)], env=env, cwd=tmp_path,
                       check=True, capture_output=True, timeout=300)
    regenerated = files_under(tmp_path / "fixtures")
    committed = files_under(ROOT / "fixtures")
    assert sorted(regenerated) == sorted(committed)
    changed = [name for name in committed if regenerated[name] != committed[name]]
    assert changed == []
