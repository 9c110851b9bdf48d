"""Golden QUBO exports and encodings.

Each case is an (instance, weight unit) pair; it has three digests, the
SHA-256 of:

``text`` / ``json``
    ``export_qubo`` of the default-penalty model in that format;
``encode``
    the ``encode_solution`` bits of every plan in a seeded sample of
    ``random_feasible_solution`` plans that encodes with an energy equal to
    its objective, each line the plan's sample index and its bits.  Plans
    that do not encode exactly are left out, so the digest pins which plans
    encode exactly as well as their bits.

The digests in ``data/qubo_golden.json`` were captured from the exporter
that spelled out every penalty row three times (register layout, penalty
terms, encoded residuals), before one row list replaced the three copies.
The ``json`` digests were replaced once, when the six equal per-family
weights of the export's ``penalties`` object became one ``penalty``
integer; each new export equals the old one with that one key swapped in
place.  Both export digests were replaced once more, in a commit touching
only the data file, for two deliberate changes: the JSON export is
written on one line (every old ``json`` export parses to the same
document as the new one), and wagon and train weight rows read the
registers of the rows below them where that form has fewer terms, which
changed the ``text`` and ``json`` digests of 7 cases.  That replacement
came after the ground-state sweep, the encode sweep and the unchanged
acceptance tests passed on the new rows; no ``encode`` digest changed.
All three digests were replaced a third time, again in a commit touching
only the data file, when the assignment bits became the eligible pairs of
``Instance.eligible_slots`` instead of every length-compatible pair.  They
changed on exactly the 52 cases whose instance has a length-compatible
pair that the table leaves out, and on no other (one ``encode`` digest,
``random-30-u100``, stayed the digest of an empty sample).  That
replacement came after the energy-contract, ground-state-sweep and
naive-expansion tests passed on the new layout.
Never regenerate them to make a change pass.

``python tests/test_qubo_golden.py`` prints the digests of the current
exporter as JSON, for comparison against the committed file.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from conftest import DATA_DIR, random_feasible_solution, random_instance
from trainload.evaluation import evaluate
from trainload.instance import GenSpec, generate_instance
from trainload.qubo import EncodingError, build_qubo, encode_solution, energy_of, export_qubo

GOLDEN = DATA_DIR / "qubo_golden.json"

UNITS = (1, 100)
PLANS_PER_CASE = 8

SHAPES = {
    # The small, medium and large shapes of scripts/run_benchmark.py.
    "bench-small": GenSpec(6, 1, 3, 2, 9, seed=42),
    "bench-medium": GenSpec(12, 2, 4, 5, 18, seed=1),
    "bench-large": GenSpec(20, 8, 4, 19, 28, seed=7),
    # The benchmark's certify corpus.
    "certify-12c2w": GenSpec(12, 2, 4, 7, 18, seed=1),
    "certify-12c3w": GenSpec(12, 3, 4, 8, 18, seed=1),
    "certify-14c3w": GenSpec(14, 3, 4, 8, 21, seed=1),
    "certify-16c3w": GenSpec(16, 3, 4, 8, 24, seed=1),
    # The benchmark's export yard.
    "export-60c12w": GenSpec(60, 12, 4, 40, 90, seed=1),
}


def cases():
    """(name, instance, weight unit) for every golden case."""
    rng = random.Random(50_417)
    for i in range(40):
        instance = random_instance(rng)
        for unit in UNITS:
            yield f"random-{i}-u{unit}", instance, unit
    for name, spec in SHAPES.items():
        instance = generate_instance(spec)
        for unit in UNITS:
            yield f"{name}-u{unit}", instance, unit


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def encode_digest(instance, model, varmap, seed: str) -> str:
    rng = random.Random(seed)
    lines = []
    for k in range(PLANS_PER_CASE):
        solution = random_feasible_solution(instance, rng)
        try:
            bits = encode_solution(varmap, instance, solution)
        except EncodingError:
            continue
        if energy_of(model, bits) == evaluate(instance, solution).objective:
            lines.append(f"{k} {''.join(map(str, bits))}\n")
    return _sha("".join(lines))


def digests(name: str, instance, unit: int) -> dict[str, str]:
    model, varmap = build_qubo(instance, weight_unit=unit)
    return {
        "text": _sha(export_qubo(model, varmap, fmt="text")),
        "json": _sha(export_qubo(model, varmap, fmt="json")),
        "encode": encode_digest(instance, model, varmap, name),
    }


def test_golden_file_covers_every_case():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 96
    assert set(golden) == {name for name, *_ in cases()}


@pytest.mark.parametrize("case", list(cases()), ids=lambda case: case[0])
def test_qubo_export_and_encoding_are_unchanged(case):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[case[0]]
    assert digests(*case) == golden


if __name__ == "__main__":
    print(json.dumps({case[0]: digests(*case) for case in cases()}, indent=2))
