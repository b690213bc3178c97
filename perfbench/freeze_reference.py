#!/usr/bin/env python3
"""Write reference.json: the analytical value of every workload point.

Run once at the commit whose values the benchmark freezes, from the root of
a checkout:

    PYTHONPATH=src python3 perfbench/freeze_reference.py

Values come from the public ``analytical_ber`` and ``outage_probability``
with the inputs the CLI receives (grid values parsed back from the text the
benchmark passes), so they are bit-identical to what the CLI computes.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from dafsc import ModulationParams, PowerProfile, analytical_ber, outage_probability  # noqa: E402


def cli_value(v):
    return float(run.fmt(v))


def main():
    ber = []
    cases = [("dqpsk", run.MC_DQPSK_POWERS, [run.Q]),
             ("dqpsk", run.SWEEP_POWERS, run.SWEEP_Q)]
    for mod, powers, qs in cases:
        params = ModulationParams.from_name(mod)
        powers, qs = [cli_value(p) for p in powers], [cli_value(q) for q in qs]
        ber.append({"order": params.order, "power_db": powers, "q": qs, "values": [
            [analytical_ber(params, PowerProfile.from_db(p_db, q)) for q in qs]
            for p_db in powers]})
    powers = [cli_value(p) for p in run.OUTAGE_POWERS]
    gammas = [cli_value(g) for g in run.OUTAGE_GAMMA]
    outage = {"q": run.Q, "power_db": powers, "gamma_db": gammas, "values": [
        [outage_probability(10.0 ** (g_db / 10.0), PowerProfile.from_db(p_db, run.Q))
         for g_db in gammas] for p_db in powers]}
    with open(run.REFERENCE, "w") as fh:
        json.dump({"ber": ber, "outage": outage}, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
