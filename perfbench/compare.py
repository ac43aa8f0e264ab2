#!/usr/bin/env python3
"""Compare two benchmark result files written by ``perfbench/run.py``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric's value in both results and the change.  Refuses (exit
2) to compare results of different workloads or trace modes, or results
whose runs used different training kernels: a kernel switch would show as
a speed change of the program.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def refusal(base: dict, new: dict) -> str | None:
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            return f"different {key}: {base[key]!r} vs {new[key]!r}"
    kernels = base["manifest"]["kernel"], new["manifest"]["kernel"]
    if kernels[0] != kernels[1]:
        return f"different kernels ran: {kernels[0]!r} vs {kernels[1]!r}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 perfbench/compare.py BASE.json NEW.json", file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    reason = refusal(base, new)
    if reason:
        print(f"perfbench compare: refused: {reason}", file=sys.stderr)
        return 2
    before, after = base["result"]["metrics"], new["result"]["metrics"]
    for name, metric in before.items():
        old, cur = metric["value"], after.get(name, {}).get("value")
        change = "" if cur is None or old == 0 else f"{(cur - old) / old:+.1%}"
        print(f"{name:32s} {old:14.6g} {'-' if cur is None else f'{cur:14.6g}'} {change} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
