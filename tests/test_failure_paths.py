"""Byte-level guard on the failure paths of the model suites.

The goldens (``tests/test_goldens.py``) cover the pass paths of ``verify``.
These four perturbed documents reach every failing or skipped statement
that a single-entry edit of the theta, antisym or pathological document
reaches, so the SHA-256 of their structured ``verify`` and ``conjecture``
reports pins each failure's detail, witness and position:

* pathological(2), fm[0][0] = 2: model-validate, prop-F_qmF_pn, thm-fm-iso
  (square law), exchange-law, pushforward-star-hom,
  star-pushforward-commute, thm-fm-iso-filtration fail;
  cor-star-vanishing and gamma-vanishing are skipped; conj-pi-subset-gamma,
  rem-conj-proved-cases and conj-3-vanishing fail;
* theta(2), the rational of mul triple 1 set to 2: model-validate,
  thm-fm-iso (origin class), gamma-addition-law, line-bundle-suite and
  lem-epsilon-gamma-morphism fail;
* theta(2), fm[0][0] = 2: cor-star-vanishing fails, besides the Fourier
  failures of the first document;
* theta(2) with the label e1 renamed h: line-bundle-suite is skipped.
"""

import hashlib
import json

import pytest

from kring import modelio, reports
from tests.conftest import fm00, mul1, rename_e1


# (builder, g, edit, suite) -> SHA-256 of the structured report
CASES = {
    ("pathological", 2, fm00, "verify"):
        "ce63154dcc83fc8a72101a99285ea5fa3aa4529f02376b406fbba311647f57a0",
    ("pathological", 2, fm00, "conjecture"):
        "046787133eaf82ebf1694bb1e031851a5f74019cf91a0b10b4549dbf94c8afc5",
    ("theta", 2, mul1, "verify"):
        "c19df371959f8a400b9dd789d93f63397aa44a8aa42e04dc60c20c01eb4acab4",
    ("theta", 2, mul1, "conjecture"):
        "35c8d8fc011250bc915f4750798e43fe1e0d2d9296556a2c34fae22eb25f4467",
    ("theta", 2, fm00, "verify"):
        "8354a87653eb02ebd2d9b08d78e0d28a1767b307dd7ade1a8704d197e181187c",
    ("theta", 2, fm00, "conjecture"):
        "bd534294160f782f0a25041dd530a9c28f8dbdc893ac0bd6eb89880795c5e4c2",
    ("theta", 2, rename_e1, "verify"):
        "91e2993b2c67257e150a8e37b896655e0a0d20573c0fd0b0d4c86397a0fff4b0",
    ("theta", 2, rename_e1, "conjecture"):
        "3b24af01540f239dbebd512d488f92a29f5c7f24e10f44b1aea84f0b7ed92306",
}

RUNNERS = {
    "verify": reports.run_verify_suite,
    "conjecture": reports.run_conjecture_suite,
}


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{b}{g}-{edit.__name__}-{s}" for b, g, edit, s in CASES]
)
def test_perturbed_report_hash(case):
    builder, g, edit, suite = case
    doc = json.loads(modelio.export_model(modelio.build_model(builder, g)))
    edit(doc)
    model = modelio.import_model(json.dumps(doc))
    report = RUNNERS[suite](model, f"{builder}(g={g})")
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    assert digest == CASES[case]
