import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_self_test_passes():
    """The benchmark harness's own checks: tampered goldens are caught,
    classify-g10 still makes a subgroup_order call inside the weak-class
    search, and the tracer wraps every namespace that binds a traced name."""
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), "--self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("self-test passed")
