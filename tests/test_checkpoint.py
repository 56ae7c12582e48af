"""The checkpoint container's streaming codec: the bytes it writes and
the memory it holds (its refusals are tested with the container in
test_harness.py)."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rtblab
from rtblab import checkpoint as ckpt
from rtblab.rng import stream


def reference_save(path, manifest: dict, arrays: dict) -> None:
    """save_checkpoint as it was before it streamed: the whole payload
    built in memory, hashed and written in one piece."""
    directory = []
    payload = bytearray()
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        if np.issubdtype(arr.dtype, np.integer):
            dtype = "<i4"
        elif arr.dtype == np.float32:
            dtype = "<f4"
        else:
            dtype = "<f8"
        directory.append({"name": name, "shape": list(arr.shape), "dtype": dtype})
        payload.extend(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    head = dict(manifest)
    head["arrays"] = directory
    head["sha256"] = hashlib.sha256(bytes(payload)).hexdigest()
    with open(path, "wb") as fh:
        fh.write((ckpt.MAGIC + "\n").encode())
        fh.write((json.dumps(head, sort_keys=True) + "\n").encode())
        fh.write(bytes(payload))


RNG = stream(141, "ck-stream")
MATRIX = RNG.normal(size=(6, 5))
ARRAYS = {
    "float64": MATRIX,
    "float32": MATRIX.astype(np.float32),
    "int64": np.arange(-7, 8, dtype=np.int64).reshape(3, 5),
    "int32": np.arange(12, dtype=np.int32).reshape(4, 3) - 5,
    "zero_d": np.array(2.5),
    "empty": np.zeros((0, 3)),
    "transposed": MATRIX.T,
    "strided": MATRIX[::2, 1::2],
    "int_strided": np.arange(40, dtype=np.int64).reshape(8, 5)[1::3, ::2],
}


class TestStreamingSave:
    @pytest.mark.parametrize("name", sorted(ARRAYS))
    def test_one_array_writes_the_reference_bytes(self, tmp_path, name):
        new, old = tmp_path / "new.ckpt", tmp_path / "old.ckpt"
        ckpt.save_checkpoint(new, {"type": "test"}, {name: ARRAYS[name]})
        reference_save(old, {"type": "test"}, {name: ARRAYS[name]})
        assert new.read_bytes() == old.read_bytes()
        _, loaded = ckpt.load_checkpoint(new)
        assert loaded[name].shape == ARRAYS[name].shape
        assert np.array_equal(loaded[name], ARRAYS[name])

    def test_every_array_at_once_writes_the_reference_bytes(self, tmp_path):
        new, old = tmp_path / "new.ckpt", tmp_path / "old.ckpt"
        manifest = {"type": "test", "config": {"seed": "3"}, "slices": [[0, 2]]}
        ckpt.save_checkpoint(new, manifest, ARRAYS)
        reference_save(old, manifest, ARRAYS)
        assert new.read_bytes() == old.read_bytes()
        loaded_manifest, loaded = ckpt.load_checkpoint(new)
        assert loaded_manifest == manifest
        for name, arr in ARRAYS.items():
            assert np.array_equal(loaded[name], arr)
            assert loaded[name].flags.c_contiguous and loaded[name].flags.writeable
        assert loaded["int64"].dtype == np.int32
        assert loaded["float32"].dtype == np.float32
        assert loaded["zero_d"].shape == ()

    def test_no_array_writes_the_reference_bytes(self, tmp_path):
        new, old = tmp_path / "new.ckpt", tmp_path / "old.ckpt"
        ckpt.save_checkpoint(new, {"type": "test"}, {})
        reference_save(old, {"type": "test"}, {})
        assert new.read_bytes() == old.read_bytes()
        assert ckpt.load_checkpoint(new) == ({"type": "test"}, {})


# Builds (value, policy) tables in place, so the process's high-water mark
# before the call is its base plus the tables, then prints the growth of
# ru_maxrss (KiB) across one save or load and the tables' bytes.
MEMORY_PROBE = """
import resource, sys
import numpy as np
from rtblab import checkpoint as ckpt
mode, path, rows, cols = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
value = np.empty((rows, cols))
value.fill(0.25)
policy = np.empty((rows, cols), np.int32)
policy.fill(3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if mode == "save":
    ckpt.save_checkpoint(path, {"type": "test"}, {"policy": policy, "value": value})
else:
    _, arrays = ckpt.load_checkpoint(path)
    assert np.array_equal(arrays["value"], value) and np.array_equal(arrays["policy"], policy)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(after - before, value.nbytes + policy.nbytes)
"""


def test_save_holds_no_copy_and_load_holds_the_arrays_once(tmp_path):
    # about 70 MB of tables; each call runs in a fresh process
    src = os.path.dirname(os.path.dirname(rtblab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    path = str(tmp_path / "tables.ckpt")

    def growth(mode):
        res = subprocess.run([sys.executable, "-c", MEMORY_PROBE, mode, path, "201", "29000"],
                             env=env, capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        grown_kib, table_bytes = map(int, res.stdout.split())
        return grown_kib * 1024 / table_bytes

    save, load = growth("save"), growth("load")
    assert save <= 0.1 and load <= 1.2, (save, load)
