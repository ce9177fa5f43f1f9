"""Golden CLI artifacts: the sha256 of every file the main commands write.

The commands run in-process through ``cli.main``, on each backend in
`BACKENDS`, each into a directory of its own:

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
(``None`` for a label on one side only).  With ``--keep DIR`` it also
keeps the files it wrote in ``DIR``; with ``--against DIR``, a directory
such a run kept (say, on the parent commit), it prints every field of a
CSV or JSON file that moved as ``file: field old -> new``.
"""

import argparse
import csv
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
BACKENDS = ("embedded", "scipy-milp")  # an embedded label is the command's; another is prefixed "backend/"


def binding_case():
    """The reduced-by-4 bundled case with a heat quota of 2 kg/kWh sold at 2 per kg: its gates bind in S2."""
    case = reduce_case(load_case(default_case_path()), 4)
    return replace(case, carbon=replace(case.carbon, sigma_h=2.0, lambda_base=2.0))


def artifacts(root: Path) -> dict[str, Path]:
    """Run every command on every backend into its own directory under ``root``; ``label/file`` -> path."""
    binding = root / "binding.json"
    binding.write_text(json.dumps(case_to_dict(binding_case())), encoding="utf-8")
    out = {}
    for backend in BACKENDS:
        for label, argv in COMMANDS.items():
            label = label if backend == "embedded" else f"{backend}/{label}"
            target = root / label
            argv = [arg.format(binding=binding) for arg in argv]
            assert cli.main([*argv, "--backend", backend, "--out", str(target)]) == 0, label
            out.update((f"{label}/{path.name}", path) for path in sorted(target.iterdir()))
    return out


def digests(files: dict[str, Path]) -> dict[str, str]:
    """``label/file`` -> sha256 of each file `artifacts` wrote."""
    return {label: hashlib.sha256(path.read_bytes()).hexdigest() for label, path in files.items()}


def fields(path: Path) -> dict[str, str]:
    """Each field of a JSON or CSV artifact as text, by name.

    A JSON field is named by its dotted key path (``costs.total``, a list
    item by ``[i]``); a CSV cell by its column and its row's first cell
    (``total_cost[scenario=S5]``).
    """
    if path.suffix == ".json":
        out = {}

        def walk(name, value):
            if isinstance(value, dict):
                for key, item in value.items():
                    walk(f"{name}.{key}" if name else key, item)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    walk(f"{name}[{i}]", item)
            else:
                out[name] = json.dumps(value)

        walk("", json.loads(path.read_text(encoding="utf-8")))
        return out
    with path.open(newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return {f"{column}[{header[0]}={row[0]}]": cell for row in rows for column, cell in zip(header[1:], row[1:])}


def moved_fields(old: Path, new: Path) -> list[str]:
    """``field old -> new`` for each field of two versions of one artifact that differs (None on one side only)."""
    before, after = fields(old), fields(new)
    return [f"{name} {before.get(name)} -> {after.get(name)}" for name in {**before, **after}
            if before.get(name) != after.get(name)]


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
    "scipy-milp/scenarios-full/meta.json": "b1b5fa8afec2954408ee91c4699e54072c090d0dc4389e8554b210164543d308",
    "scipy-milp/scenarios-full/scenarios.csv": "c19b6293ce862d7e454a59b7898f6ee58616fbfc26fd12596b64758beb792c0e",
    "scipy-milp/scenarios-full/scenarios_vs_S1.json": "a84ba8f8bfa9ec3ab2fefe9ae68519b1723c111ce27ee5625b527f2c29752aaf",
    "scipy-milp/scenarios-reduced/meta.json": "1fb0047d86cfb9fe6fffb4cb2dbd7c2a5ba24c91dd02966719e156c948a28aae",
    "scipy-milp/scenarios-reduced/scenarios.csv": "c4c6a70bd69240714c15874f8d1227a17bcd2b9feeabd8ed38112058a30a9868",
    "scipy-milp/scenarios-reduced/scenarios_vs_S1.json": "513dbe2978c48fc16a2999d0a32c298e158a7b911fa80cbf79e23fac36a8bb60",
    "scipy-milp/scenarios-binding/meta.json": "5cb43d3d0bbafa433237fd7d779c6cd1f6a367fa6dd4e37fe4b7e477863a05dc",
    "scipy-milp/scenarios-binding/scenarios.csv": "04914e72f4c957de32db395df740abb392da8fbb8cbce4046135d9ae661fe1a8",
    "scipy-milp/scenarios-binding/scenarios_vs_S1.json": "a449acf51e6881b59b0e89809268523358eb99dd80f46d3000e8efa35beb84cd",
    "scipy-milp/solve-S5/meta.json": "f281f883124c2d325430d2d3c707b569be86b34279a18f01f2a944e9de97a782",
    "scipy-milp/solve-S5/schedule_S5.csv": "448ee5897e3c7bf5351ced0ff3c71a16a431b82bf00d94d499761496608cf381",
    "scipy-milp/solve-S5/solution_S5.json": "73a2e3b369139843592952dff488ca08442eefc50e34323f594fe65a0a5cac44",
    "scipy-milp/sweep-lambda-reduced-S5/meta.json": "5e60fbecde84a1a627f1ebfcd5e09a91e1c5df1f538cb4d9145e70f20529a0d6",
    "scipy-milp/sweep-lambda-reduced-S5/sweep_lambda_S5.csv": "4817c3540398a37c61cf23c58ea68dfae26ccb39c9220377bff133f24e53e780",
    "scipy-milp/sweep-d-full-S5/meta.json": "4f62244e35593758faa170f2392993de7eddca43e2f198e2ee574715f31a927d",
    "scipy-milp/sweep-d-full-S5/sweep_d_S5.csv": "4ca70e3cc0ad4c40d0529d71b4d2d62437e3276633e071756bc5a46002d16c13",
}


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return digests(artifacts(tmp_path_factory.mktemp("artifacts")))


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_cli_artifact_is_unchanged(current, label):
    assert current[label] == EXPECTED[label]


def test_every_artifact_is_pinned(current):
    assert set(current) == set(EXPECTED)


def test_moved_fields_name_each_changed_json_and_csv_field(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for root, total, tags in ((old, 1.5, ["S1"]), (new, 2.0, ["S1", "S5"])):
        root.mkdir()
        (root / "a.json").write_text(json.dumps({"costs": {"total": total, "dr": 0.0}, "scenario": tags}))
        (root / "a.csv").write_text(f"scenario,total_cost,gap\nS1,{total},0\nS2,3.0,0\n")
    assert moved_fields(old / "a.json", new / "a.json") == ["costs.total 1.5 -> 2.0", 'scenario[1] None -> "S5"']
    assert moved_fields(old / "a.csv", new / "a.csv") == ["total_cost[scenario=S1] 1.5 -> 2.0"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Compare the CLI artifacts with EXPECTED, and field by field "
                                                 "with the artifacts of an earlier run.")
    parser.add_argument("--keep", type=Path, help="write the artifacts into this new directory and keep them")
    parser.add_argument("--against", type=Path, help="a directory an earlier --keep run wrote")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) if args.keep is None else args.keep
        root.mkdir(parents=True, exist_ok=args.keep is None)
        files = artifacts(root)
        now = digests(files)
        if args.against is not None:
            for label, path in files.items():
                old = args.against / label
                if path.suffix in (".csv", ".json") and old.exists() and old.read_bytes() != path.read_bytes():
                    for line in moved_fields(old, path):
                        print(f"{label}: {line}")
    moved = [label for label in {**EXPECTED, **now} if EXPECTED.get(label) != now.get(label)]
    for label in moved:
        print(f"{label}: {EXPECTED.get(label)} -> {now.get(label)}")
    print(f"{len(moved)} of {len(now)} digests differ from EXPECTED")
