"""Every ``functools.lru_cache`` of picfold pays on some benchmark workload.

Each workload of ``perfbench/run.py`` (``WORKLOADS``) runs once through
``cli.main`` in a fresh process; the process then reads ``cache_info()``
of every lru_cache bound to a global name of a picfold module.  One cache
is often imported under several names, so caches are told apart by
identity and named after the module that defines them.  A cache with no
hit on any workload only costs its memory and its key building, and fails
here unless ``UNPAID`` names it with the reason it is kept.
"""

import json
import subprocess
import sys

from test_workload_reports import run

# "<module>.<name>" -> why a cache that no workload hits is kept
UNPAID: dict[str, str] = {}

_CHILD = """
import functools, json, os, sys
from picfold import cli
rc = cli.main(sys.argv[1:] + ["--format", "json", "--out", os.devnull])
caches = {}
for modname, module in sorted(sys.modules.items()):
    if modname.partition(".")[0] != "picfold" or module is None:
        continue
    for attr, obj in sorted(vars(module).items()):
        if isinstance(obj, functools._lru_cache_wrapper):
            names = caches.setdefault(id(obj), (obj, []))[1]
            names.append((obj.__module__ != modname, modname.partition(".")[2] + "." + attr))
print(json.dumps({"rc": rc, "hits": {min(names)[1]: obj.cache_info().hits
                                     for obj, names in caches.values()}}))
"""


def test_every_cache_hits_on_some_workload():
    hits: dict[str, int] = {}
    for workload, argv in sorted(run.WORKLOADS.items()):
        proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], cwd=run.ROOT,
                              env=run.child_env(0), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["rc"] == 0, workload
        for name, n in out["hits"].items():
            hits[name] = hits.get(name, 0) + n
    assert hits, "no lru_cache found in the picfold modules"
    unpaid = sorted(name for name, n in hits.items() if n == 0 and name not in UNPAID)
    assert not unpaid, f"caches with no hit on any workload: {unpaid}"
    stale = sorted(name for name in UNPAID if hits.get(name, 0) > 0 or name not in hits)
    assert not stale, f"UNPAID names a cache that hits, or none at all: {stale}"
