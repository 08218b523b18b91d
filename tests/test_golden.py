"""Byte-identity of serialized results across changes to the scalar kernel.

The digests were taken with the Fraction-based kernel that the integer
kernel replaced.  They cover the canonical JSON of four module payloads
(B2 (2,1) carries denominators of degree 32 and numerators spanning 80
powers of v) and the quick verification report.  Any change in the normal
form, the text form or an iteration order shows up here.  The full-grid
report digest was taken with the whole-matrix word evaluator that the
one-vector evaluator replaced.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import qgroups
from qgroups.cache import canonical_json
from qgroups.cartan import cartan_data
from qgroups.cli import EXIT_OK, main
from qgroups.uqrep import build_irrep, irrep_to_json

PAYLOAD_DIGESTS = {
    ("A2", (1, 1)): "9447f8c49d58929626696dedc3b7e879552eeb7a967d774c09741becf58dca39",
    ("B2", (1, 1)): "59089804b9f534c646ab78c75a6ec1950e86a1fcf6c5ea0fca4886ecc06c5abf",
    ("B2", (2, 1)): "890788465aba8d64b9755296467c190791b5355b6762de6297d15421c0bc26a0",
    ("A3", (1, 0, 1)): "5794956b649d27d74d4e759d6df9adc32314a0d96fb63a48666425c8704339b0",
}
QUICK_REPORT_DIGEST = "3f6ed72ac71d3aa78949e67d71cee2a3e378946ccfcfdf95c74889b945f4be8e"
FULL_REPORT_DIGEST = "80d3675f96c3011d460e4c30faec17d8f5976779c35aa80586b743a717ee8f0b"


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name,weight", sorted(PAYLOAD_DIGESTS))
def test_irrep_payload_digest(name, weight):
    payload = irrep_to_json(build_irrep(cartan_data(name), weight))
    assert sha256(canonical_json(payload)) == PAYLOAD_DIGESTS[(name, weight)]


def test_quick_report_digest(capsys):
    assert main(["verify", "--quick", "--format", "json"]) == EXIT_OK
    assert sha256(capsys.readouterr().out) == QUICK_REPORT_DIGEST


def test_full_report_digest(capsys):
    assert main(["verify", "--format", "json"]) == EXIT_OK
    assert sha256(capsys.readouterr().out) == FULL_REPORT_DIGEST


def test_report_independent_of_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(qgroups.__file__)))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "qgroups.cli", "verify", "--quick",
             "--check", "dimensions", "--format", "json"],
            env=env, capture_output=True, timeout=300, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]
