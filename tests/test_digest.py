import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "digest.py"
_spec = importlib.util.spec_from_file_location("digest", _PATH)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def test_numbers_split_text_from_values():
    text, values = digest._numbers("t,x,u\n0.5,-4,1e-300\nnan,inf,-0\n")
    assert text == "t,x,u\n#,#,#\n#,#,#\n"
    assert values[:3] == [0.5, -4.0, 1e-300]
    assert np.isnan(values[3]) and values[4] == np.inf
    assert str(values[5]) == "-0.0"
    assert digest._numbers(np.arange(4.0).reshape(2, 2)) == (
        "<array>", [0.0, 1.0, 2.0, 3.0])


def test_hash_of_an_array_is_the_hash_of_its_bytes():
    a = np.linspace(0.0, 1.0, 7)
    assert digest._hash([a[::2]]) == hashlib.sha256(a[::2].tobytes()).hexdigest()
    assert digest._hash(["é", a]) == hashlib.sha256(
        "é".encode() + a.tobytes()).hexdigest()


def _save(path, groups):
    with open(path, "w") as fh:
        json.dump({"digests": {}, "values": {
            group: {label: {"text": [text], "values": values}
                    for label, (text, values) in entries.items()}
            for group, entries in groups.items()}}, fh)


def test_compare_counts_moved_values_and_their_sizes(tmp_path, capsys):
    old = {"cli/solve": {"heat 1e-10": ("#,#", [1.0, 4.0]),
                         "cable 1e-10": ("#,#", [2.0, 0.0])},
           "cli/kernel": {"heat 1e-10": ("#", [3.0])},
           "validate": {"ou-mean": ("ou-mean # True", [4e-16]),
                        "burgers-vs-fd": ("burgers-vs-fd # True", [3e-5])},
           "states": {"heat 1e-10": ("<array>", [0.5, 0.25])}}
    new = {"cli/solve": {"heat 1e-10": ("#,#", [1.0, 4.0 + 8 * 2.0 ** -50]),
                         "cable 1e-10": ("#,#", [2.0, -0.0])},
           "cli/kernel": {"heat 1e-10": ("#,#", [3.0, 1.0])},
           "validate": {"ou-mean": ("ou-mean # True", [5e-16]),
                        "burgers-vs-fd": ("burgers-vs-fd # True", [3e-5])},
           "states": {"heat 1e-10": ("<array>", [0.5, 0.25])}}
    _save(tmp_path / "old.json", old)
    _save(tmp_path / "new.json", new)
    assert digest.main(["--compare", str(tmp_path / "old.json"),
                        str(tmp_path / "new.json")]) == 0
    rows = {line.split()[0]: line.split()[1:]
            for line in capsys.readouterr().out.splitlines()}
    # dumps, text or count differs, values, differ, max rel, max / scale
    # 4 -> 4 + 2^-47 is 2^-49 relative; -0.0 differs from 0.0 by 0
    ulp = f"{2.0 ** -49:.2e}"
    assert rows["cli/solve"] == ["2", "0", "4", "2", ulp, ulp]
    assert rows["cli/kernel"] == ["1", "1", "0", "0", "0.00e+00", "0.00e+00"]
    assert rows["cli"] == ["3", "1", "4", "2", ulp, ulp]
    assert rows["validate"] == ["2", "0", "2", "1", "2.00e-01", "2.00e-01"]
    assert rows["states"] == ["1", "0", "2", "0", "0.00e+00", "0.00e+00"]
    assert rows["moved"] == ["ou-mean:", "4e-16", "->", "5e-16"]


@pytest.mark.parametrize("a, b", [([np.nan], [1.0]), ([np.inf], [-np.inf])])
def test_compare_reads_a_value_that_became_nan_or_flipped_inf_as_inf(a, b):
    entry = lambda v: {"x": {"text": ["#"], "values": v}}
    stats = digest._moved(entry(a), entry(b))
    assert stats[:4] == (1, 0, 1, 1)
    assert stats[4] == stats[5] == np.inf
