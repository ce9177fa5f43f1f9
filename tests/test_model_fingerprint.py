"""Bit-level fingerprints of the dispatch models the package builds.

Each fingerprint is a sha256 over every array ``MilpModel.to_sparse()``
returns (dtype, shape and bytes), the row bounds taken as the right-hand
sides and relations they encode, the objective constant and the row and
column names.  Each variant is pinned twice: built
gate-free, as ``run_scenario`` first solves it, and with a gate appended
on every store-period, the paper's model.  The full S5 fingerprints also cover
``write_lp``.  The digests pin every model bit for bit, so a change to how
forms, rows and columns are built, stored or emitted cannot move a
coefficient, a bound, an order or a name unnoticed.

Run ``PYTHONPATH=src python tests/test_model_fingerprint.py`` to print the
current digests.
"""

import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest

from milp_oracles import every_gate_model, relations_and_rhs

from iesdispatch.dispatch import SCENARIO_IDS, build_model
from iesdispatch.lp_format import write_lp
from iesdispatch.model_core import default_case_path, load_case, reduce_case, scale_profiles


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
    # load and wind perturbations as acceptance criterion 5 draws them, so
    # the pins do not rest on the bundled profiles alone
    for seed in (0, 1):
        rng = random.Random(1000 + seed)
        factors = {key: rng.uniform(0.9, 1.1) for key in ("electric", "gas", "heat", "wind")}
        perturbed = scale_profiles(case, factors)
        yield from ((f"perturbed{seed}-{sid}", perturbed, sid) for sid in ("S3", "S5"))


def fingerprint(model, with_lp: bool = False) -> str:
    h = hashlib.sha256()
    c, c0, A, row_lower, row_upper, lb, ub, is_binary = model.to_sparse()
    # the relation-and-rhs form the digests were first taken over
    relations, rhs = relations_and_rhs(row_lower, row_upper)
    arrays = (c, np.float64(c0), A.data, A.indices, A.indptr, np.asarray(A.shape), rhs, lb, ub, is_binary)
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    h.update("\n".join(relations).encode())
    h.update("\n".join(con.name for con in model.constraints).encode())
    h.update("\n".join(model.column_names).encode())
    if with_lp:
        h.update(write_lp(model).encode())
    return h.hexdigest()


def fingerprints() -> dict[str, str]:
    out = {}
    for label, case, sid in _variants():
        with_lp = label == "full-S5"
        out[label] = fingerprint(every_gate_model(case, sid)[0], with_lp)
        out[f"{label}/gate-free"] = fingerprint(build_model(case, sid)[0], with_lp)
    return out


EXPECTED = {
    "full-S1": "5c8202ecf8c9ec6a23b8f6d0e471ccef4ca317a26c55e5518906e3d30112509d",
    "full-S2": "cb9c875c14ad0a7ba7f4f4c572809ddd5a0120cef539de3c182221ca65e17c3d",
    "full-S3": "5876de0ada398b8bdf1ede59871cf3f7eaf41948f617b605e41e067d6debb1d2",
    "full-S4": "f73139ce29375f93bb86c714c49f5a00544972097dcef73847f2bbdf63ebfa73",
    "full-S5": "c2f994b8fba9844ab3631d1041e076d6b8cea52bf84402542be9f80edb29f5d5",
    "reduced-S1": "874e45e9ca61c0d80dc79ff5d8e4d5f6db233a1c5cc1cd43121fec0e03ded804",
    "reduced-S2": "302b695bc75e21b7256faf0e143a64b5d68665e4aa579ed27254fd565e6f85c6",
    "reduced-S3": "b19e74688c4e497a4249ed58d28030c0089b30411c37b873297b48ced96f7d2b",
    "reduced-S4": "f0169c88921bfc060ae8e54b491d654016d48db51810fb1da2a68ab7062178da",
    "reduced-S5": "e69770e5a4e5088eac25105a05f5a1a83e03fd3f6c2249480aae65eef76dfd31",
    "extraction-S5": "9878f6ec8c5aecd45d0e4a1afbc6765bb6cd1a1817289836669335e825b703df",
    "literal-eq2-S5": "1a8ea607a5831b974bcb58f19b88d4c502655dfa62f93bd5298fca48ae04fa91",
    "shift-floor-S4": "0dc86af34c2d2206e955784545008e6dabe31d3dcc6e9c20d857c3408e4cc019",
    "perturbed0-S3": "1a1d3ad6340e7ddfbe0724a8b90881cfa3e53c7259b867573339697ccc3ede4d",
    "perturbed0-S5": "5d9b2cf378e4c3c76712489048ebf4ac257785cf9709b673233e652307297f45",
    "perturbed1-S3": "feb0d46e60b2d4da8fa4324183f6611317a70f653272c8effe4af108cb7f0890",
    "perturbed1-S5": "fe3ad2e97d8f506c39129b0addfe880f649435775fa6c1090141fd4afee528f0",
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
    "perturbed0-S3/gate-free": "7502015f864c29913375ee6fd7edcb1466e283997914847fd1e49242bfc19d95",
    "perturbed0-S5/gate-free": "03a92765a60a0facb38f4d0357f6e8f229225d1c28b5730240bccfd00004b8a0",
    "perturbed1-S3/gate-free": "65007d85c6034ba1c6e4f764352b29ef4a03b6aafe820b82dd70ef5bba68c75e",
    "perturbed1-S5/gate-free": "fe856151610537a2880343e9aea006c9323ecdfff7336c2ae4ba2f5a97b4186f",
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
