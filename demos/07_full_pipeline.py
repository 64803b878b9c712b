"""Drive the whole pipeline through the CLI.

prepare -> calibrate -> run -> report, exactly as you would from a
shell, against a synthetic corpus written on the fly. Every stage drops
a manifest.json with input/output fingerprints, and a rerun with the
same seed reproduces the run artifacts byte for byte.

Run: python3 demos/07_full_pipeline.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

INTENTS = ["clarification", "typo_grammar", "links", "meaning_change", None]


def write_chains(path, n=40):
    with open(path, "w") as fh:
        for ci in range(n):
            base = f"claim {ci} about the proposal its relevant"
            claims = [base, base.capitalize() + ".",
                      base.capitalize() + ". The context makes this clear."]
            fh.write(json.dumps({
                "chain_id": f"demo{ci:03d}",
                "debate_id": f"debate{ci % 5}",
                "claims": [{"id": f"demo{ci:03d}_v{i}", "text": t}
                           for i, t in enumerate(claims)],
                "intents": [INTENTS[ci % 5], INTENTS[(ci + 1) % 5]],
                "topic": f"topic {ci % 5}",
                "previous_claim": "the previous speaker disagreed",
            }) + "\n")


def cli(*args):
    cmd = [sys.executable, "-m", "claimpolish.cli", *map(str, args)]
    print(f"\n$ claimpolish {' '.join(map(str, args))}")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.stdout:
        print(proc.stdout.rstrip())
    if proc.returncode != 0:
        print(proc.stderr.rstrip())
        raise SystemExit(proc.returncode)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        chains = root / "chains.jsonl"
        write_chains(chains)

        cli("prepare", "--chains", chains, "--out", root / "data",
            "--seed", 0, "--per-label-test", 3)
        cli("calibrate", "--chains", root / "data" / "validation_chains.jsonl",
            "--out", root / "cal", "--seed", 0)
        cli("run", "--pairs", root / "data" / "test.jsonl",
            "--out", root / "run", "--seed", 1, "--context", "both",
            "--weights", root / "cal" / "weights.json",
            "--train-pairs", root / "data" / "train.jsonl")
        cli("report", "--selections", root / "run" / "selections.jsonl",
            "--pairs", root / "data" / "test.jsonl", "--out", root / "rebuilt")

        report = json.loads((root / "run" / "report.json").read_text())
        print("\nper-strategy metrics:")
        print(f"  {'strategy':<14} {'BLEU':>6} {'RougeL':>7} {'SARI':>6} {'NoEd':>5}")
        for name, payload in report["reports"].items():
            print(f"  {name:<14} {payload['bleu']:6.1f} {payload['rouge_l']:7.3f} "
                  f"{payload['sari']:6.1f} {payload['no_edit_ratio']:5.2f}")

        rebuilt = json.loads((root / "rebuilt" / "report.json").read_text())
        print(f"\nreport rebuild matches run: {rebuilt['reports'] == report['reports']}")


if __name__ == "__main__":
    main()
