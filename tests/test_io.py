import json
import stat
from fractions import Fraction

import numpy as np

from pairflip.chains import GateKind
from pairflip.io import json_ready, sidecar_path, write_artifact


def _recursive(obj):
    """json_ready with every array converted element by element."""
    if isinstance(obj, np.ndarray):
        return [_recursive(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _recursive(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_recursive(x) for x in obj]
    return json_ready(obj)


class TestJsonReady:
    def test_numeric_arrays_match_the_elementwise_conversion(self):
        payload = {
            "times": np.arange(3521, dtype=np.int64),
            "mean": np.linspace(0.0, 1.0, 7),
            "grid": np.arange(6, dtype=np.int8).reshape(2, 3),
            "flags": np.array([True, False]),
            "counts": np.array([1, 2], dtype=np.uint32),
            "empty": np.zeros(0),
        }
        out = json_ready(payload)
        assert json.dumps(out) == json.dumps(_recursive(payload))
        assert type(out["times"][0]) is int and type(out["mean"][0]) is float
        assert type(out["flags"][0]) is bool

    def test_object_arrays_are_converted_per_element(self):
        arr = np.array([Fraction(1, 3), GateKind.TEMPERLEY_LIEB, None], dtype=object)
        assert json_ready(arr) == ["1/3", "tl", None]
        assert json_ready({"x": [arr]}) == {"x": [["1/3", "tl", None]]}


class TestWriteArtifact:
    def test_mode_follows_the_umask(self, tmp_path):
        # the process umask is read, never changed: an artifact and its
        # sidecar get what open() gives a new file in the same directory
        path = tmp_path / "a.json"
        write_artifact(path, "{}\n", {"command": "test"})
        with open(tmp_path / "plain.txt", "w"):
            pass

        def mode(p):
            return stat.S_IMODE(p.stat().st_mode)

        assert mode(path) == mode(sidecar_path(path)) == mode(tmp_path / "plain.txt")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.json", "a.json.meta.json", "plain.txt"
        ]
