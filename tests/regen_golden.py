"""Regenerate tests/golden.json from the current source, and print every
value that moved against the file it replaces.

    PYTHONPATH=src python tests/regen_golden.py
"""

import json
import tempfile
from pathlib import Path

import test_golden


def main():
    with tempfile.TemporaryDirectory() as work:
        new = test_golden.collect(Path(work))
    if test_golden.GOLDEN.exists():
        old = json.loads(test_golden.GOLDEN.read_text())
        exact = old["machine"] == new["machine"]
        for name, key, a, b in test_golden.moved(old["runs"], new["runs"],
                                                 exact):
            print(f"{name} {key}: {a!r} -> {b!r}")
    test_golden.GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True)
                                  + "\n")
    print(f"wrote {test_golden.GOLDEN}")


if __name__ == "__main__":
    main()
