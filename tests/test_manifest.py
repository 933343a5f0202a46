"""The --diff of tests/manifest.py, on which every bit-identity claim rests."""
import copy
import json

import manifest

RECORDS = {
    "grid_export:1": [{"op": "transform --horizon 4", "exit": 0, "stdout": "", "stderr": "",
                       "artifacts": {"sigma.csv": "0" * 32}}],
    "lemma_checks:1": [{"op": "forward proof additive_convergent ones ones (3, 4)",
                        "repr": "ProofInequality(lhs=0.25, bound=0.5)", "stdout": "", "stderr": ""}],
}


def _diff(tmp_path, capsys, a, b):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, rec in zip(paths, (a, b)):
        path.write_text(json.dumps(rec))
    code = manifest.main(["--diff", *map(str, paths)])
    return code, capsys.readouterr().out.splitlines()


def test_identical_manifests_have_no_difference(tmp_path, capsys):
    assert _diff(tmp_path, capsys, RECORDS, copy.deepcopy(RECORDS)) == (0, ["0 difference(s)"])


def test_an_edited_repr_and_a_dropped_key_are_two_differences(tmp_path, capsys):
    edited = copy.deepcopy(RECORDS)
    edited["lemma_checks:1"][0]["repr"] = "ProofInequality(lhs=0.25, bound=0.5000000000000001)"
    del edited["grid_export:1"]
    code, lines = _diff(tmp_path, capsys, RECORDS, edited)
    assert code == 1
    assert lines == [
        "grid_export:1: only in the first manifest",
        "lemma_checks:1 op 0 (forward proof additive_convergent ones ones (3, 4)): repr: "
        "'ProofInequality(lhs=0.25, bound=0.5)' != 'ProofInequality(lhs=0.25, bound=0.5000000000000001)'",
        "2 difference(s)",
    ]
