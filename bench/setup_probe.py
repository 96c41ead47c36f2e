"""Set-up cost of one workload, measured in a fresh process.

    python3 bench/setup_probe.py CONFIG_JSON SEED

Times importing ``amcsim``, building and validating the workload config
and generating every rep's ground truths, then prints the seconds.
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

from amcsim import config_from_dict, generate_ground_truth  # noqa: E402


def main(cfg_path: str, seed: int) -> float:
    with open(cfg_path) as fh:
        cfg = replace(config_from_dict(json.load(fh)), seed=seed)
    for rep in range(cfg.reps):
        for pos, spec in enumerate(cfg.specs()):
            generate_ground_truth(spec, (cfg.seed, rep, 0, pos))
    return time.perf_counter() - T0


if __name__ == "__main__":
    print(f"{main(sys.argv[1], int(sys.argv[2])):.9f}")
