"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR SPECS_JSON

Imports trainload from SRC_DIR, generates each instance of SPECS_JSON (a
list of GenSpec fields) and evaluates its initial plan, which fills the
instance's cached lookups.  Prints the seconds this took.
"""

import json
import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import trainload  # noqa: E402
from trainload import annealing  # noqa: E402

for fields in json.loads(sys.argv[2]):
    inst = trainload.generate_instance(trainload.GenSpec(**fields))
    trainload.evaluate(inst, annealing.initial_solution(inst))
print(time.perf_counter() - started)
