"""The mutation registry (``tests/mutants.py``) still applies: every
planted fault's ``old`` text occurs exactly once in its file, so a
refactor that moves the code cannot leave an entry silently stale."""

from mutants import MUTANTS, ROOT


def test_every_old_text_occurs_once():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.file.startswith("src/") and m.red, m.id
        assert (ROOT / m.file).read_text().count(m.old) == 1, m.id
