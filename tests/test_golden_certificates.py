"""Byte-for-byte certificate JSON for a fixed grid of solver calls.

tests/golden_certificates.json holds the SHA-256 of
dumps(certificate_to_dict(...)) for every certificate below, and of the
residuals of one failing check_* per family.  The expected values were
recorded with certificate_texts() before the certificate inequalities were
written through game._utility, so any change to a certificate's integers,
residuals or layout fails here.
"""

import hashlib
import json
from pathlib import Path

from evocycle import (
    CertificateFailure,
    GameParams,
    check_fcsh,
    check_hdpd,
    check_tree,
    solve_fcsh,
    solve_hdpd,
    solve_tree,
)
from evocycle.serialize import certificate_to_dict, dumps, rational_to_str

GOLDEN = Path(__file__).with_name("golden_certificates.json")

# Two quadruples per scenario; both HD quadruples also admit trees.
QUADRUPLES = {
    "FC": ["1,1/2,4/5,0", "1,3/10,9/10,0"],
    "SH": ["1,0,1/2,1/4", "1,-1,1/2,1/5"],
    "HD": ["1,0.45,1.24,0", "1,0.6,2,0"],
    "PD": ["1,-0.45,1.35,0", "1,-1/10,6/5,1/5"],
}
PERIODS = (2, 3, 8, 32)
TREE_BOUNDS = (4, 12, 24)

# One failing check per family: (name, check, quadruple, integers).
FAILURES = [
    ("fcsh", check_fcsh, "1,-1,0.5,0.2", (3, 1, 1, 1)),
    ("hdpd", check_hdpd, "1,0.45,1.24,0", (3, 1, 1, 1, 1)),
    ("tree", check_tree, "1,0.45,1.24,0", (2, 6)),
]


def _params(text):
    return GameParams(*text.split(","))


def certificate_texts():
    """Case name -> the canonical JSON text it must produce."""
    texts = {}
    for scenario, quadruples in QUADRUPLES.items():
        solve = solve_fcsh if scenario in ("FC", "SH") else solve_hdpd
        for quadruple in quadruples:
            for p in PERIODS:
                cert = solve(_params(quadruple), p)
                texts[f"{scenario}:{quadruple}:p={p}"] = dumps(certificate_to_dict(cert))
    for quadruple in QUADRUPLES["HD"]:
        for bound in TREE_BOUNDS:
            cert = solve_tree(_params(quadruple), bound)
            texts[f"tree:{quadruple}:bound={bound}"] = dumps(certificate_to_dict(cert))
    for name, check, quadruple, integers in FAILURES:
        try:
            check(_params(quadruple), *integers)
        except CertificateFailure as exc:
            residuals = {k: rational_to_str(v) for k, v in exc.residuals.items()}
            texts[f"{name}:failure:{quadruple}:{integers}"] = dumps(residuals)
        else:
            raise AssertionError(f"{name} check unexpectedly passed")
    return texts


def test_certificates_match_golden():
    golden = json.loads(GOLDEN.read_text())
    digests = {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in certificate_texts().items()
    }
    assert sorted(digests) == sorted(golden)
    for name, expected in golden.items():
        assert digests[name] == expected, name
