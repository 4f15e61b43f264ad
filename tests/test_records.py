"""Answers as a committed record: the bundled studies and the boundary
battery recomputed and compared, byte for byte and float.hex for
float.hex. The study records ship with the package, in specteig/data,
where ``specteig verify`` compares with them too; the boundary record is
tests/records/boundary.json. A change that moves an answer on purpose
rewrites them: the studies with ``specteig examples 5.x --seed 1729
--format json --sidecar src/specteig/data/examples_5.x.json``, the
battery with ``scripts/record_answers.py``."""

import importlib.util
import json
import math
from importlib import resources
from pathlib import Path

import pytest

from specteig.cli import main

TESTS = Path(__file__).resolve().parent
RECORDS = TESTS / "records"
STUDY_RECORDS = resources.files("specteig.data")
SCRIPT = TESTS.parent / "scripts" / "record_answers.py"


@pytest.fixture(scope="module")
def recorder():
    spec = importlib.util.spec_from_file_location("record_answers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def boundary(recorder):
    """The recomputed record, and the committed one."""
    committed = (RECORDS / "boundary.json").read_text(encoding="utf-8")
    return recorder.record(), committed


@pytest.mark.parametrize("tag", ["5.1", "5.2", "5.3"])
def test_studies_reproduce_their_records(tag, tmp_path, capsys):
    sidecar = tmp_path / f"examples_{tag}.json"
    assert main(["examples", tag, "--seed", "1729", "--format", "json",
                 "--sidecar", str(sidecar)]) == 0
    capsys.readouterr()
    assert sidecar.read_bytes() == \
        (STUDY_RECORDS / f"examples_{tag}.json").read_bytes()


def test_boundary_answers_reproduce_their_record(recorder, boundary):
    got, committed = boundary
    want = json.loads(committed)
    assert [len(got[k]) for k in ("battery", "sweep")] == [182, 10]
    for part in ("battery", "sweep"):
        for new, old in zip(got[part], want[part]):
            assert new == old, (part, old["seed"], old["n"], old["delta"])
    # the file is the script's own output, so rewriting it shows no diff
    assert recorder.dump(got) == committed


@pytest.mark.parametrize("field", ["value", "lambda_", "s", "history",
                                   "proj_min_eig"])
def test_one_ulp_fails_the_comparison(recorder, boundary, field):
    # a mutant that moves one boundary value by one ulp
    got, committed = boundary
    moved = json.loads(json.dumps(got))
    entry = moved["battery"][100]
    values = entry[field] if isinstance(entry[field], list) \
        else [entry[field]]
    x = float.fromhex(values[-1])
    values[-1] = math.nextafter(x, math.inf).hex()
    if not isinstance(entry[field], list):
        entry[field] = values[-1]
    assert moved != json.loads(committed)
    assert recorder.dump(moved) != committed
