"""Bit-level fingerprints of the dispatch models the package builds.

Each fingerprint is a sha256 over every array ``MilpModel.to_sparse()``
returns (dtype, shape and bytes), the objective constant, the relation
codes and the row and column names.  Each variant is pinned twice: built
with every storage gate, the paper's model, and built gate-free, as
``run_scenario`` first solves it.  The full S5 fingerprints also cover
``write_lp``.  The digests pin every model bit for bit, so a change to how
forms, rows and columns are built, stored or emitted cannot move a
coefficient, a bound, an order or a name unnoticed.

Run ``PYTHONPATH=src python tests/test_model_fingerprint.py`` to print the
current digests.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from milp_oracles import every_gate

from iesdispatch.dispatch import SCENARIO_IDS, build_model
from iesdispatch.lp_format import write_lp
from iesdispatch.model_core import default_case_path, load_case, reduce_case


def _variants():
    case = load_case(default_case_path())
    yield from ((f"full-{sid}", case, sid) for sid in SCENARIO_IDS)
    reduced = reduce_case(case)
    yield from ((f"reduced-{sid}", reduced, sid) for sid in SCENARIO_IDS)
    # the branches the bundled case does not take
    yield "extraction-S5", replace(case, chp=replace(case.chp, extraction_mode=True)), "S5"
    yield "literal-eq2-S5", replace(case, dr=replace(case.dr, literal_eq2=True)), "S5"
    floor = {"electric": (1.0, 30.0), "gas": None, "heat": None}
    yield "shift-floor-S4", replace(case, dr=replace(case.dr, shift_bounds=floor)), "S4"


def fingerprint(model, with_lp: bool = False) -> str:
    h = hashlib.sha256()
    c, c0, A, relations, rhs, lb, ub, is_binary = model.to_sparse()
    arrays = (c, np.float64(c0), A.data, A.indices, A.indptr, np.asarray(A.shape), rhs, lb, ub, is_binary)
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    h.update("\n".join(relations).encode())
    h.update("\n".join(con.name for con in model.constraints).encode())
    h.update("\n".join(v.name for v in model.variables).encode())
    if with_lp:
        h.update(write_lp(model).encode())
    return h.hexdigest()


def fingerprints() -> dict[str, str]:
    out = {}
    for label, case, sid in _variants():
        with_lp = label == "full-S5"
        out[label] = fingerprint(build_model(case, sid, gates=every_gate(case))[0], with_lp)
        out[f"{label}/gate-free"] = fingerprint(build_model(case, sid)[0], with_lp)
    return out


EXPECTED = {
    "full-S1": "493ad0d8a701144bb0cd46f8f80e77aa58018e39e017d9716e5bb5fb596776cf",
    "full-S2": "54440697bd52d5b721486f0bbe5c079b2d1ca91f25497f1828c353283f9f146d",
    "full-S3": "050c21ab67509ab3d8a78cf19dc491d8669fab7b610eadf5676c484a4f509b74",
    "full-S4": "9f3d2b4b2d897b30c5ae1319a697b7c4e3bf220e8cb33ad214b9815127aac68f",
    "full-S5": "426d3085ff68ef7905015bb4878a29406a34d88d9fd1ba8daea02c44d7d5361f",
    "reduced-S1": "07b72e5a8dec7a65fef9f6d0a676841fd04fa84d0123a792cbadfb172fd286ff",
    "reduced-S2": "d83efa4c60a364a5190589b459e74983ac2f87dc7a51b4da2cd67f88e0d48947",
    "reduced-S3": "651554aa3d70f9c3d21c2a9ee0b7b898988fbfad915c814117bff73387b16058",
    "reduced-S4": "d1e8fc0fdee51b07e15dd17293c23de4a1daa4da331b4f0e913e6b8dc3fb54bc",
    "reduced-S5": "8089a8a4992e15cfc7c3709b8deaee53260f5600b90bcb4241cb0aec33f81b7d",
    "extraction-S5": "f8db45bf2030fa0d8ffe15bd388c0a70a0141373a27e6b166bca65ed82f8d2ab",
    "literal-eq2-S5": "e4f55da49a806ab25f26b7a99855ada01fedb085b5fa2fbc35e9ce7fcf2fcea8",
    "shift-floor-S4": "e6e9c4d98a819ae8cdff838b29eb64747d64b2e6349419e1dc8abaaefced6f4d",
    # the same variants without a storage gate
    "full-S1/gate-free": "6099ad036040e962b51518bf7fd1634887b84d55dd2e75837cfbd1dd709c81d1",
    "full-S2/gate-free": "5472da973361ee919ee0109e355cb249f806f407da18e791cee40cfffd9f3d65",
    "full-S3/gate-free": "73e97b70acbf9b07e8d05949ca784648234b8821d501e42243934201d456c73c",
    "full-S4/gate-free": "bad845df4d6a45c8d3d9fb0c8fb15ee6bd761f150153fe783f9929461f13f6f4",
    "full-S5/gate-free": "c822493e5aef89810a57ba10e37d6f576d780b06b6f3672a0e09915b3329f051",
    "reduced-S1/gate-free": "f32600b332ccc0202d8d960014fde8362c41d0f430d58da51b576ecf62299040",
    "reduced-S2/gate-free": "194dd1c497c883c6fe50bd2128df3843e428ae05044cd8bb6efd70fea2694033",
    "reduced-S3/gate-free": "fbcc8cbb88553f128c652853d9c74471bccbbebd22dec0d9a1b5bd1cb792ffbc",
    "reduced-S4/gate-free": "df3f56cc11114c9924df3fd81526e78867b14c837749325bb445f3acd4794cec",
    "reduced-S5/gate-free": "6e61e9eb10c9ade4b3213e7154359d8e42fbe415df2b0d0dfa204b4cd5bd7167",
    "extraction-S5/gate-free": "0987948ab5d45d715e33fc34b99e25ccdc0b0f245a7f1696d846a56431f21277",
    "literal-eq2-S5/gate-free": "07d38e3f2cdb94f0a2fddf7033c80404675c3ba3faaf855b304f795ee6f7035f",
    "shift-floor-S4/gate-free": "59fb6c432916dec50f339c14be16d3bbab5886d0c1d9bf6c5a1b24ee0ec19d53",
}


@pytest.fixture(scope="module")
def current():
    return fingerprints()


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_model_fingerprint_is_unchanged(current, label):
    assert current[label] == EXPECTED[label]


def test_every_variant_is_pinned(current):
    assert set(current) == set(EXPECTED)


if __name__ == "__main__":
    for label, digest in fingerprints().items():
        print(f'    "{label}": "{digest}",')
