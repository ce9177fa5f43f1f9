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

Run ``PYTHONPATH=src python tests/test_model_fingerprint.py`` to print
``label: old -> new`` for each digest that differs from ``EXPECTED``
(``None`` for a label on one side only).
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
    "full-S1": "649ee6c2b74d7cbd9c3c1cf31b699dddd0633d799abd71075558f5b3a4a4ca9e",
    "full-S2": "04351869a583f3d681b1811769b569326305e0559ecb65773e74f2dbb46dd6e2",
    "full-S3": "b08de4043bd914cde5ec0fdf32a0d3e0deb5ca2310e5eb002d03826dde059094",
    "full-S4": "b34cdcceaa319a8ef6f137ac280f97ea888776fb8fdd22389484f8def7e6416e",
    "full-S5": "2abf4e3e35e444208ffe4eb7b32c9913f6b5755a505c55cdce9828f8d545242a",
    "reduced-S1": "44717a3954588b9d40776418e2656f211213064388d4ef457775f2cf16f531d9",
    "reduced-S2": "22e781c8756c66fa3685e354d745531c8a9e2bfba927ad4f6ca74d21e8adb249",
    "reduced-S3": "158141f5606a0a880028ab87a1fe557954aac18bf0005424a3917111002d59b2",
    "reduced-S4": "e1cbb46a6a7936223330c336222b46b995fa78288ed714cd1a9f29eb9332644f",
    "reduced-S5": "316d7657bbd3886c7a625303c50ff19ddbdc7d59bd346eba0d5df34d45dd0f8d",
    "extraction-S5": "de3901334a05a0a80e47946874ffe5d87c68c8f570d028d26bd7eac3e82e4cbc",
    "literal-eq2-S5": "0346472b0df5ea2ac8347e506e5ae71e5c1bcada87662f459245768a65a5106f",
    "shift-floor-S4": "9be8ecbbce2d8fd401e02ab1e71ad03ebe3db2d88f2a12f89f97f2464d57168f",
    "perturbed0-S3": "f9f3562fd2029db094b8cdc97f2e83b927fef6ae386fde8dd33ae8fa9ff631e1",
    "perturbed0-S5": "3fe938bda1629b6a716a68156efff25cf7fd98ed3a5e64283e6a5f162c1dbe08",
    "perturbed1-S3": "de3a563eded14ea117be4c2f2de787d574e9bf5fc5aa0911b00b18b31818ecde",
    "perturbed1-S5": "8213f98e032c5cd5802b8964544c2813fd421c3c23c3ecb4bd281fe1996f4775",
    # the same variants without a storage gate
    "full-S1/gate-free": "80690965b382f661d496404ffcb2eb05837643840a568cdf8683f611c08d4074",
    "full-S2/gate-free": "2a51bc64a7544bbe0e75f4faf50c1d23285b1715cbae6a7ec1092945aa2d51e5",
    "full-S3/gate-free": "643373c17cf88ecc09a0fdd9153075c35f942622e730cab63a94e94cc31b1f17",
    "full-S4/gate-free": "47b7bdb1c4eba2bb1e82bdb2b8e2da8f0e638a903b2973430ef487885d772672",
    "full-S5/gate-free": "fa22e3cb27ff55be7dc49f52377b38b198b67fac9cc136d93e10aea1ae27a589",
    "reduced-S1/gate-free": "35b11a49fbe05ba51d4020b907879c92492858f0673099c94d25b15a8913ff7e",
    "reduced-S2/gate-free": "88039bab03721c782976837887b324138ff282fffa02b0e50cf2cf5e20dc8fbe",
    "reduced-S3/gate-free": "0c4502ccacbe0bbaaec87832189f05aa61ecaf37cea788f645b8bae2ec48cfae",
    "reduced-S4/gate-free": "261f4ccf41d4949599b79a4718740f76b1f897d10a5bc22b0eaeded86e06bf44",
    "reduced-S5/gate-free": "bbf91ab435a58e6c29fb4b11deb7c7a1ab2b716e8208b60344a7fb2cb443fcbc",
    "extraction-S5/gate-free": "1e88de7a9b95107fc0255740cee9043fc9c151ac7b506eaa479ded394918e983",
    "literal-eq2-S5/gate-free": "83cb8dd679a6a367d163d69c7f9f4b44c81ffa5df8bd89d59fcc29f0be131f7d",
    "shift-floor-S4/gate-free": "211280dbbc156f91569781c73eedb654092531bc67743b6463a675033dc0cccd",
    "perturbed0-S3/gate-free": "e6390964537769ab3a91d97dddbbb1edc29f11730032ca499939bf14ae53bf8e",
    "perturbed0-S5/gate-free": "eac500c89f728945ae75a7f475d808ffcc466bfd834491f46f8d69e3bbc3d7bc",
    "perturbed1-S3/gate-free": "bc1408f04d581ea02ab477298796799d7601f0e823ba6906f70eb7ffc5e42814",
    "perturbed1-S5/gate-free": "9238b50a00630702ea94dffbff1b471d8d10de8159200dfe6324b7e54e5b4c26",
}


@pytest.fixture(scope="module")
def current():
    return fingerprints()


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_model_fingerprint_is_unchanged(current, label):
    assert current[label] == EXPECTED[label]


def test_every_variant_is_pinned(current):
    assert set(current) == set(EXPECTED)


def test_no_row_has_a_single_column():
    # a one-column row is a bound on its column, and build_model states it as one
    for label, case, sid in _variants():
        for model in (every_gate_model(case, sid)[0], build_model(case, sid)[0]):
            A = model.to_sparse()[2]  # no stored zeros
            nnz = np.bincount(A.indices, minlength=A.shape[0])
            names = [con.name for con in model.constraints]
            assert not [name for name, k in zip(names, nnz.tolist()) if k < 2], label


if __name__ == "__main__":
    now = fingerprints()
    moved = [label for label in {**EXPECTED, **now} if EXPECTED.get(label) != now.get(label)]
    for label in moved:
        print(f"{label}: {EXPECTED.get(label)} -> {now.get(label)}")
    print(f"{len(moved)} of {len(now)} digests differ from EXPECTED")
