"""Regenerate tests/golden.json from the current source, print every
value that moved against the file it replaces, and end with one summary
line that names which of the exit codes, pass flags, stdout and stderr
moved (a change of round-off alone moves none of them).

    PYTHONPATH=src python tests/regen_golden.py
"""

import json
import tempfile
from pathlib import Path

import test_golden

# the records a change of round-off alone leaves as they are, by the key
# test_golden.moved gives them
_KINDS = {
    "exit codes": lambda key: key == "exit",
    "pass flags": lambda key: key.endswith(".pass"),
    "stdout": lambda key: key == "stdout",
    "stderr": lambda key: key == "stderr",
}


def summary(moved) -> str:
    """One line: how many values moved, and which kinds of _KINDS did."""
    keys = [key for _, key, _, _ in moved]
    n_report = sum(key.startswith("report.") for key in keys)
    n_files = sum(key.startswith("files.") for key in keys)
    line = (f"{len(keys)} values moved ({n_report} report values, "
            f"{n_files} file hashes)")
    hit = [kind for kind, match in _KINDS.items() if any(map(match, keys))]
    kept = [kind for kind in _KINDS if kind not in hit]
    if hit:
        line += "; MOVED: " + ", ".join(hit)
    if kept:
        line += "; " + ", ".join(kept) + " unchanged"
    return line


def main():
    with tempfile.TemporaryDirectory() as work:
        new = test_golden.collect(Path(work))
    diff = []
    if test_golden.GOLDEN.exists():
        old = json.loads(test_golden.GOLDEN.read_text())
        exact = old["machine"] == new["machine"]
        diff = test_golden.moved(old["runs"], new["runs"], exact)
        for name, key, a, b in diff:
            print(f"{name} {key}: {a!r} -> {b!r}")
    test_golden.GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True)
                                  + "\n")
    print(f"wrote {test_golden.GOLDEN}")
    print(summary(diff))


if __name__ == "__main__":
    main()
