"""Hostile text files: each of the four outside-input text readers returns or raises `FloodgateError`.

The capture contract in `test_hostile_captures.py` holds `extract` to its
windows or a typed error; this one holds `read_csv`, `read_truth`,
`load_model` and `load_scenario` to a value or a typed error, on seeded
mutants of a file each writer wrote. By the rule in `errors`, nothing a file
holds may end in another exception, and so in a traceback. Three inputs that
once did (a quote, and fields past `csv`'s limit) are pinned through the
command line.
"""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodgate import cli
from floodgate.dataset import NUM_FEATURES, Dataset, read_csv, write_csv
from floodgate.errors import FloodgateError
from floodgate.features import read_truth, write_truth
from floodgate.mlp import init_model, load_model, save_model
from floodgate.synth import load_scenario

from conftest import write_records

# More than `csv`'s default field limit, so that a quote early in the file
# would make one field of the rest of it.
CSV_FIELD_LIMIT = 131_072
INSERTS = (b'"', b"\x00", b"\r", b"\n", b",", b" ")
SCENARIO = b"""\
duration 8
seed 3  # a comment
benign_rate 150
episode syn_flood 1.0 2.5 600 20
episode udp 5.5 7.0 600 20
"""

READERS = {"features": read_csv, "truth": read_truth, "model": load_model, "scenario": load_scenario}


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """The bytes of one file per reader, as the package writes them."""
    work, rng = tmp_path_factory.mktemp("seeds"), np.random.default_rng(9)
    write_csv(Dataset(rng.normal(size=(400, NUM_FEATURES)), rng.integers(0, 5, 400)), work / "features")
    write_truth(work / "truth", [(1.0, 2.5, 1), (2.5, 4.0, 2), (5.5, 7.0, 4)])
    save_model(init_model(4, rng.normal(size=NUM_FEATURES), rng.uniform(0.5, 2, NUM_FEATURES)), work / "model")
    (work / "scenario").write_bytes(SCENARIO)
    files = {name: (work / name).read_bytes() for name in READERS}
    assert len(files["features"]) > CSV_FIELD_LIMIT
    return files


def mutate(data: bytes, rnd) -> bytes:
    """1-6 edits: overwrite a byte (append one at the end); insert one of `INSERTS`;
    insert a run of 10 or 200,000 digits; or delete up to 50 bytes."""
    data = bytearray(data)
    for _ in range(rnd.randint(1, 6)):
        at, op = rnd.randrange(len(data) + 1), rnd.randrange(4)
        if op == 0:
            data[at : at + 1] = bytes([rnd.randrange(256)])
        elif op == 1:
            data[at:at] = rnd.choice(INSERTS)
        elif op == 2:
            data[at:at] = bytes([rnd.randrange(48, 58)]) * rnd.choice((10, 200_000))
        else:
            del data[at : at + rnd.randint(1, 50)]
    return bytes(data)


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=100, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_mutated_text_gives_a_value_or_a_typed_error(seeds, name, rnd):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(mutate(seeds[name], rnd))
        try:
            READERS[name](path)
        except FloodgateError:
            pass


def quote_at_row_3(features: bytes) -> bytes:
    lines = features.split(b"\r\n")
    lines[3] = b'"' + lines[3]
    assert len(b"\r\n".join(lines[3:])) > CSV_FIELD_LIMIT
    return b"\r\n".join(lines)


def quote_first_number_of_line_3(features: bytes) -> bytes:
    lines = features.split(b"\r\n")
    first, rest = lines[2].split(b",", 1)
    lines[2] = b'"' + first + b'",' + rest
    return b"\r\n".join(lines)


def a_start_of_140_000_digits(_truth: bytes) -> bytes:
    return b"start_ts,end_ts,label\r\n" + b"1" * 140_000 + b",2.0,syn\r\n"


@pytest.mark.parametrize("command, name, edit, message", [
    ("eval", "features", quote_at_row_3, ":4: non-numeric value"),
    ("extract", "truth", a_start_of_140_000_digits, ":2: non-finite value"),
    ("eval", "features", quote_first_number_of_line_3, ":3: non-numeric value"),
], ids=["quote_at_row_3", "a_start_of_140_000_digits", "quote_first_number_of_line_3"])
def test_a_quote_or_a_long_field_exits_2_naming_its_line(seeds, tmp_path, capsys, command, name, edit, message):
    """No writer quotes a field; a quote, or a field longer than `csv`'s limit, is a typed error like any other."""
    bad, model = tmp_path / name, tmp_path / "model"
    bad.write_bytes(edit(seeds[name]))
    model.write_bytes(seeds["model"])
    write_records(tmp_path / "c.pcap", [])
    argv = {
        "eval": ["eval", "--data", bad, "--model", model, "--report", tmp_path / "report"],
        "extract": ["extract", "--pcap", tmp_path / "c.pcap", "--truth", bad, "--out", tmp_path / "out"],
    }[command]
    before = sorted(os.listdir(tmp_path))
    assert cli.main([str(a) for a in argv]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"floodgate {command}: {bad}{message}\n"
    assert sorted(os.listdir(tmp_path)) == before
