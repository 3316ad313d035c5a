"""The identity set's outputs equal the lines pinned in fingerprints.txt.

A change that moves an output edits fingerprints.txt in its diff and says
why; see fingerprints.py for what each line holds.
"""

import itertools

import fingerprints


def moved(pinned: list[str], printed: list[str]) -> list[str]:
    """One entry per line that differs: its number and name, and the fields
    of each side that the other lacks."""
    out = []
    for k, (want, got) in enumerate(itertools.zip_longest(pinned, printed, fillvalue="")):
        if want == got:
            continue
        name = " ".join(itertools.takewhile(lambda word: "=" not in word, want.split()))
        was, now = want.split(), got.split()
        out.append(f"line {k + 1} ({name[:60]}): pinned {[f for f in was if f not in now]}, "
                   f"printed {[f for f in now if f not in was]}")
    return out


def test_fingerprints_match_the_pinned_lines(tmp_path):
    pinned = fingerprints.PINNED.read_text().splitlines()
    lines = moved(pinned, list(fingerprints.fingerprint_lines(tmp_path)))
    assert not lines, f"{len(lines)} fingerprint lines moved:\n" + "\n".join(lines)
