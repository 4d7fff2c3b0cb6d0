"""Pinned bytes of every artifact and stdout line of one fixed CLI session.

Each step runs through ``main()`` into its own ``--out`` directory under a
temporary root. Every file written there, and the stdout transcript with
the root written as ``OUT``, must equal ``tests/golden/`` byte for byte.
The session covers both log forms, a two-run report whose tables hold
true and false flags and empty cells, ``sc --fit-target``, and ASC
scenarios in online-labeled and calibration-only mode, each scripting a
``null`` answer.

After a deliberate, versioned format change, regenerate the pins with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from refineloop.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"

SCENARIOS = {
    "online.json": {
        "format": "asc-scenario/v1",
        "tau": 8,
        "max_iterations": 3,
        "equilibrium_mode": "online-labeled",
        "problems": [
            {"id": "conf", "answers": ["a0", "a1"], "confidences": [9, 2], "correct": [1, 1]},
            {"id": "fix", "answers": ["b0", "b1", "b2", "b3"], "confidences": [3, 4, 9, 9],
             "correct": [0, 1, 1, 1]},
            {"id": "spoil", "answers": ["c0", "c1", None, "c3"], "confidences": [4, 5, 5.5, 5],
             "correct": [True, True, False, False]},
            {"id": "flat", "answers": [1, 2, 3, 4], "confidences": [2, 2, 2, 2], "correct": [1, 1, 1, 1]},
            {"id": "bad", "answers": ["d0", "d1", "d2", "d3"], "confidences": [1, 1, 1, 1],
             "correct": [1, 0, 0, 0]},
        ],
        "metadata": {"note": "golden"},
    },
    "calibration.json": {
        "format": "asc-scenario/v1",
        "tau": 7.5,
        "max_iterations": 2,
        "equilibrium_mode": "calibration-only",
        "calibration_rates": {"eir": 0.02, "ecr": 0.01},
        "problems": [
            {"id": "sure", "answers": ["s0"], "confidences": [8]},
            {"id": "unsure", "answers": ["u0", "u1"], "confidences": [3, 4]},
            {"id": "late", "answers": [None, "l1"], "confidences": [2, 9]},
        ],
    },
}

# (out directory, argv without --out); {root} is the session's root directory
STEPS = [
    ("strong", ["simulate", "--eir", "0.01", "--ecr", "0.5", "--acc0", "0.3", "--iterations", "3",
                "--n", "60", "--seed", "1", "--label", "strong"]),
    ("flat", ["simulate", "--eir", "0", "--ecr", "0", "--acc0", "0.5", "--iterations", "3",
              "--n", "60", "--seed", "2", "--label", "flat", "--form", "compact"]),
    ("preset", ["simulate", "--preset", "gpt-4o-mini", "--n", "30", "--seed", "3"]),
    ("report", ["report", "{root}/strong/log.csv", "{root}/flat/log.csv", "--resamples", "200", "--seed", "1"]),
    ("analyze", ["analyze", "{root}/strong/log.csv", "--confidence", "0.9"]),
    ("diagnose", ["diagnose", "{root}/flat/log.csv", "{root}/preset/log.csv"]),
    ("sc", ["sc", "--p", "0.7", "--k", "5", "--rho", "0.3", "--n", "2000", "--seed", "1", "--fit-target", "0.8"]),
    ("asc-online", ["asc", "{root}/online.json"]),
    ("asc-calibration", ["asc", "{root}/calibration.json"]),
]


def run_session(root: Path) -> dict[str, bytes]:
    """Run every step under ``root``; return each written file and the transcript, keyed by relative path."""
    for name, doc in SCENARIOS.items():
        (root / name).write_text(json.dumps(doc, indent=1), encoding="utf-8")
    transcript = []
    for out, argv in STEPS:
        argv = [arg.format(root=root) for arg in argv] + ["--out", str(root / out)]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(argv) == EXIT_OK, argv
        transcript += ["$ refineloop " + " ".join(argv), stdout.getvalue()]
    artifacts = {
        str(path.relative_to(root)): path.read_bytes()
        for out, _ in STEPS for path in sorted((root / out).iterdir())
    }
    artifacts["stdout.txt"] = "\n".join(transcript).replace(str(root), "OUT").encode("utf-8")
    return artifacts


def test_cli_session_matches_pinned_bytes(tmp_path):
    got = run_session(tmp_path)
    pinned = {str(path.relative_to(GOLDEN)): path.read_bytes() for path in GOLDEN.rglob("*") if path.is_file()}
    assert sorted(got) == sorted(pinned)
    for name, content in pinned.items():
        assert got[name] == content, name


if __name__ == "__main__":  # regenerate the pins
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = run_session(Path(tmp))
    for name, content in artifacts.items():
        (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
        (GOLDEN / name).write_bytes(content)
    print(f"wrote {len(artifacts)} files under {GOLDEN}")
