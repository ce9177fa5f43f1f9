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
    "full-S1": "7d220a85c823a939123598f45a5d6d49ce9981a718ceb6b5aa94db14d3d5996b",
    "full-S2": "0683d466de308c15863437831b6a8883d98b06b455d8aebd5181586f5321cc6b",
    "full-S3": "9aebbcaa3460729c5c6a62325fc03537e937b40911582543cf423de1c0df64c2",
    "full-S4": "fd41d7d2551a76f0891c980661d727425dcee187a502e73d672dc937845d1fd4",
    "full-S5": "cbe26a9379d307fbc6862f63fe1dc800d76653fa177dcfb9f6e75b09ac541834",
    "reduced-S1": "4b1b155e7d38658d94062a53e6bb30c0bcdfcaca91e898a3c8a32d9389838066",
    "reduced-S2": "cf0f8d9142f54575f5381ade6855a728dea08888b46ba9ccb306bda2fc9e3393",
    "reduced-S3": "5a72f07c8e66acecf898e9caf9644b2f9609133f0b3ac76416f24364d5d777f9",
    "reduced-S4": "ba9870f110cd544729905c4165bbecd5663bfd587a5992cdc4e97addaeebaa8b",
    "reduced-S5": "dfc3500d679a4795ef442576dc3d7c401fa5a16e06c69e0ab168a92ff2a7b219",
    "extraction-S5": "9878f6ec8c5aecd45d0e4a1afbc6765bb6cd1a1817289836669335e825b703df",
    "literal-eq2-S5": "c25384ee722e7a6dcce9074e5a2ec0a4fd2f1a5b75d685ac46b6713febd4e7e3",
    "shift-floor-S4": "142bad91100a5a395b100a48aeadc3809d9ea0d57dd110af4bc6b912db1cde08",
    "perturbed0-S3": "95fa02dc68c99b480425e95f7cf54dbb20e1366dbc2064289cb76bb629651952",
    "perturbed0-S5": "3b9cf89ccbf4eaec9f5e656dbea6d0f001477ab5a3584b975102b5696da8394d",
    "perturbed1-S3": "1fbd05c7ab400c85b37b7f05efe5b93320e731681baf1e16744c2012ad735784",
    "perturbed1-S5": "a794808210414cca26109e0c3afbd1535653ce8262fac23d133194f829ee3730",
    # the same variants without a storage gate
    "full-S1/gate-free": "0c9e03e1852ad29aca18b9fa42de1941b4d70ffd76a5c5488adb902db664d541",
    "full-S2/gate-free": "31052a2bbe80ff4585ad7f56ced6925dd3d284aae8a44fdb74826f199d0f8bf5",
    "full-S3/gate-free": "bad9f3bcbfa319623e0023a06841bf5d5f6d9e8d777f6218b6b3e8369ef07294",
    "full-S4/gate-free": "250ada80e5c49ec4a69a010d50ca706084fb62106d1b40d64775bc4615d0a849",
    "full-S5/gate-free": "309c3699492491c6d34366f9c868a8cf71f7fe1e19cb0a306ce3ea436fc5cffb",
    "reduced-S1/gate-free": "2ff47a004842046f26730b396a58faf800f1fd8fbaa7ef23eb54415339c3bb48",
    "reduced-S2/gate-free": "fea5b9a19003b3038047897cfa04f11a0616a1adcc52fbb91f2df204b11fe8d2",
    "reduced-S3/gate-free": "6b2ec75af7fe6ae05e01a961ea16218da1c48649cdaf701d86f7ce72fcae14a5",
    "reduced-S4/gate-free": "e9e291b8d9c4816f74cad73ea739736028c1689bbb4e576bd1b57457f9a550f6",
    "reduced-S5/gate-free": "95a19971000dad80969ca9f3624d5ee6d4abc5c335415729c6ee4cf3cd97b28a",
    "extraction-S5/gate-free": "0987948ab5d45d715e33fc34b99e25ccdc0b0f245a7f1696d846a56431f21277",
    "literal-eq2-S5/gate-free": "8a4f23dadc3c7527606770973cdbec679b17282c5f689aa7c9447561b467381f",
    "shift-floor-S4/gate-free": "3d365dedbcc890cf4957188e2b9eb0802683350a3d443087df1e73d4e5e4470f",
    "perturbed0-S3/gate-free": "cbf46d62e1038bdf7394ee96d1c7631c45966eb2153ed462871ae010d7b4292e",
    "perturbed0-S5/gate-free": "5474a3ede4fb602f1701d726e5bb2795f742a8db177f2ae55b964ca6325e9f56",
    "perturbed1-S3/gate-free": "607ef2c3cf358e8003a7fff26b7826aad5a8c2812b47be78fce7756a93373852",
    "perturbed1-S5/gate-free": "a2b2b3608c9c20506e94392290928c6485541614ea74259b0030172795c8ba42",
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
