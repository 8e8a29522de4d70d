"""Rewrite perfbench/answers.json: oracle answers for every workload and stored seed.

Run from the root of a checkout after changing a workload generator:

    python3 perfbench/record_answers.py
"""

from __future__ import annotations

import json

from run import ANSWER_SEEDS, ANSWERS, answers, import_program, pool_digest


def main() -> None:
    import_program()
    from workloads import WORKLOADS, build_cases

    stored = {}
    for workload in WORKLOADS:
        stored[workload] = {}
        for seed in ANSWER_SEEDS:
            cases = build_cases(workload, seed)
            stored[workload][str(seed)] = {"pool": pool_digest(cases), "answers": answers(cases)}
    ANSWERS.write_text(json.dumps(stored, indent=1) + "\n")


if __name__ == "__main__":
    main()
