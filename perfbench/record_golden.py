"""Record the golden answers in golden/ from the program at this commit.

Run from the repository root::

    python3 perfbench/record_golden.py [workload ...]

Each answer is recorded on seed 0 and re-derived on seed 1 (the answers
must not depend on the relabeling). Where they reach, the independent
enumerators of tests/oracles.py (read only) cross-check the answers:
the H^2 dimensions of small groups.
"""

from __future__ import annotations

import itertools
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import covercalc as cc  # noqa: E402
import oracles  # noqa: E402
import workloads as wl  # noqa: E402


def cli_answers(seed: int, workdir: Path) -> dict:
    w = wl.Cli(seed, workdir)
    out = {}
    for op in sorted(w.ops, key=w.key):
        code, text = wl.run_main(w.argv(op))
        assert code == 0, (op, code)
        out[w.key(op)] = {"sha256": wl.digest(text), "bytes": len(text)}
        json_flag = op[0]
        if not json_flag:
            out[w.key(op)]["text"] = text
    return out


def decide_answers(seed: int, workdir: Path) -> dict:
    w = wl.Decide(seed, workdir)
    out = {}
    for name, pool in w.pools.items():
        dom = [[False] * len(pool) for _ in pool]
        iso = [[False] * len(pool) for _ in pool]
        for i, j in itertools.product(range(len(pool)), repeat=2):
            tau, tau_p = pool[i], pool[j]
            dom[i][j] = cc.find_epimorphism_over(tau, tau_p) is not None
            iso[i][j] = cc.find_isomorphism_over(tau, tau_p) is not None
            assert cc.dominates(tau_p, tau) == dom[i][j], (name, i, j)
            assert cc.isomorphic_fundamental(tau, tau_p) == iso[i][j], (name, i, j)
        out[name] = {"dominates": dom, "isomorphic": iso}
    return out


def h2_answers(seed: int, workdir: Path) -> dict:
    w = wl.H2(seed, workdir)
    out = {}
    for op in sorted(w.ops):
        name, p = op
        group = w.groups[name]
        module = cc.trivial_module(group, p)
        space = cc.cohom_space(group, module)
        out[w.key(op)] = {
            "dim_p": space.dim_p,
            "dim_F": space.f_dim,
            "field_order": space.endo_field.order,
        }
        if p ** ((group.order - 1) ** 2) <= 20000:
            action = [tuple(map(tuple, module.action[g])) for g in range(group.order)]
            brute = oracles.h2_dim_by_enumeration(group.mul.tolist(), p, action)
            assert brute == space.dim_p, (op, brute, space.dim_p)
            print(f"oracle agrees: H^2({name}, F{p}) dim {brute}")
    return out


def main() -> int:
    recorders = {
        "cli": cli_answers,
        "decide": decide_answers,
        "h2": h2_answers,
    }
    names = sys.argv[1:] or list(recorders)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            record = recorders[name]
            golden = record(0, Path(tmp))
            assert record(1, Path(tmp)) == golden, f"{name}: answers depend on the seed"
            with open(wl.GOLDEN / f"{name}.json", "w", encoding="utf-8") as fh:
                json.dump(golden, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"recorded golden/{name}.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
