"""Golden CLI artifacts: the sha256 of every file the main commands write.

The commands run in-process through ``cli.main`` on the embedded backend,
each into a directory of its own:

- ``scenarios`` on the bundled case, on ``--reduced`` and on a case whose
  storage gates bind in S2 (`binding_case`);
- ``solve --scenario S5``;
- the reduced S5 lambda sweep over 0.10:0.60:0.05 and the full S5 d sweep
  over 1000:4000:250.

A change that moves no optimum and no reported vertex leaves every digest
as it is.  The pins hold for the pinned numpy and scipy, as the model
fingerprints do.

Run ``PYTHONPATH=src python tests/test_cli_artifacts.py`` to print
``label: old -> new`` for each digest that differs from ``EXPECTED``
(``None`` for a label on one side only).
"""

import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from iesdispatch import cli
from iesdispatch.model_core import case_to_dict, default_case_path, load_case, reduce_case

COMMANDS = {
    "scenarios-full": ["scenarios"],
    "scenarios-reduced": ["scenarios", "--reduced"],
    "scenarios-binding": ["scenarios", "--case", "{binding}", "--segments", "4"],
    "solve-S5": ["solve", "--scenario", "S5"],
    "sweep-lambda-reduced-S5": ["sweep", "--param", "lambda", "--grid", "0.10:0.60:0.05", "--scenario", "S5",
                                "--reduced"],
    "sweep-d-full-S5": ["sweep", "--param", "d", "--grid", "1000:4000:250", "--scenario", "S5"],
}


def binding_case():
    """The reduced-by-4 bundled case with a heat quota of 2 kg/kWh sold at 2 per kg: its gates bind in S2."""
    case = reduce_case(load_case(default_case_path()), 4)
    return replace(case, carbon=replace(case.carbon, sigma_h=2.0, lambda_base=2.0))


def digests(root: Path) -> dict[str, str]:
    """Run every command into its own directory under ``root``; ``label/file`` -> sha256 of each file written."""
    binding = root / "binding.json"
    binding.write_text(json.dumps(case_to_dict(binding_case())), encoding="utf-8")
    out = {}
    for label, argv in COMMANDS.items():
        target = root / label
        argv = [arg.format(binding=binding) for arg in argv]
        assert cli.main([*argv, "--out", str(target)]) == 0, label
        for path in sorted(target.iterdir()):
            out[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


EXPECTED = {
    "scenarios-full/meta.json": "b536530f93475a3141560fb349327b5ea8664c5c987aa15751b07429594691ea",
    "scenarios-full/scenarios.csv": "c736ef30d1fa979d824dd852684aaaf4f61fd870c05215ad25b0d150a133ba1b",
    "scenarios-full/scenarios_vs_S1.json": "c5dccc88eae5405797a26c83d3cc69d3ef8b724bc44703c394ba33fe3769deb9",
    "scenarios-reduced/meta.json": "064b85ff8aa9c87dc19536b4cbdc7efb77518d458fdcc191ea9b6261fab65463",
    "scenarios-reduced/scenarios.csv": "3a37e717faf81f03d2a0b7019560d009741c631c48c0efe7cd241140d96031c8",
    "scenarios-reduced/scenarios_vs_S1.json": "084c75fe62171de31e0b76ee49600e0571f5c16f189eee5a4a80a2d7390356fb",
    "scenarios-binding/meta.json": "5f70ebe8964050f70b85556a2b737b60465fbf9e9c7adba56a672e3ebdc4f6e5",
    "scenarios-binding/scenarios.csv": "04914e72f4c957de32db395df740abb392da8fbb8cbce4046135d9ae661fe1a8",
    "scenarios-binding/scenarios_vs_S1.json": "a449acf51e6881b59b0e89809268523358eb99dd80f46d3000e8efa35beb84cd",
    "solve-S5/meta.json": "7c3e12724280bb979e2f36df8d10a9436e8d1b51db1b21ad3b42f00c6718d1a0",
    "solve-S5/schedule_S5.csv": "e91ff8a64651d9613a32a5b01fa7f3f316ddd5470e0dbdd27ee0665e729fc559",
    "solve-S5/solution_S5.json": "fb71daed6c288591520dc477f0771aff568ef2b1bafeb934cf21cea8d96ff5a5",
    "sweep-lambda-reduced-S5/meta.json": "69014d1116042a70bb48b8ba616702fd61e3e49bff1ff3794f4e9599d622e884",
    "sweep-lambda-reduced-S5/sweep_lambda_S5.csv": "fe4ef1b29caa7bf3f88a72e45a6cec2a75a9878b82067c314204df48d8d00ac7",
    "sweep-d-full-S5/meta.json": "65dc10948d9060046e2c63c21c5aa0f8a63048a9758543721fcd4cd886a1d455",
    "sweep-d-full-S5/sweep_d_S5.csv": "2b9f62de5ad326af31a0723d825d5285869d7b13541ed516aa38cde6d5b72a1c",
}


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return digests(tmp_path_factory.mktemp("artifacts"))


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_cli_artifact_is_unchanged(current, label):
    assert current[label] == EXPECTED[label]


def test_every_artifact_is_pinned(current):
    assert set(current) == set(EXPECTED)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        now = digests(Path(tmp))
    moved = [label for label in {**EXPECTED, **now} if EXPECTED.get(label) != now.get(label)]
    for label in moved:
        print(f"{label}: {EXPECTED.get(label)} -> {now.get(label)}")
    print(f"{len(moved)} of {len(now)} digests differ from EXPECTED")
