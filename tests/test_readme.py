"""The README's "Library use" example runs as written, on a synthetic cohort."""

import re
from pathlib import Path

from cardiotox import synth
from test_acceptance import SCALE_SPEC

README = Path(__file__).parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch):
    spec = synth.parse_spec(SCALE_SPEC)
    synth.write_cohort(synth.generate(spec), tmp_path / "data")
    (tmp_path / "data" / "code_map.csv").rename(tmp_path / "code_map.csv")
    monkeypatch.chdir(tmp_path)
    names = {"end_of_data": spec.layout.end_of_data}
    exec(library_use_block(), names)
    assert names["fm"].n == len(names["features"]) > 0
    assert names["trace"].final_model.column_names[0] == "intercept"
    assert len(names["report"].per_fold_auc) == 5
    assert {(e.outcome, e.n_boot_requested) for e in names["effects"]} == {("CHF", 1000)}
