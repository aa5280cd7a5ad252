"""The call graph behind PAR-SAFE."""

from repro.analysis.core import Project
from repro.analysis.flow import CallGraph


def _project(tmp_path, files):
    for relpath, text in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return Project.from_paths([tmp_path])


def _graph(tmp_path, files):
    return CallGraph(_project(tmp_path, files))


def test_resolves_locals_methods_and_imports(tmp_path):
    graph = _graph(tmp_path, {
        "repro/engine/core.py": (
            "from repro.engine.util import helper\n"
            "class Engine:\n"
            "    def run(self):\n"
            "        self.step()\n"
            "        helper()\n"
            "    def step(self):\n"
            "        pass\n"
            "def drive():\n"
            "    eng = Engine()\n"
            "    eng.run()\n"
        ),
        "repro/engine/util.py": "def helper():\n    pass\n",
    })
    core = "repro.engine.core"
    run = graph.callees(f"{core}:Engine.run")
    assert f"{core}:Engine.step" in run
    assert "repro.engine.util:helper" in run
    drive = graph.callees(f"{core}:drive")
    # instantiation resolves to __init__ when present; the local-type
    # binding resolves eng.run() precisely
    assert f"{core}:Engine.run" in drive


def test_unresolved_attribute_calls_fan_out_by_name(tmp_path):
    graph = _graph(tmp_path, {
        "repro/a.py": (
            "class One:\n"
            "    def fire(self):\n"
            "        pass\n"
            "class Two:\n"
            "    def fire(self):\n"
            "        pass\n"
            "def poke(thing):\n"
            "    thing.fire()\n"
        ),
    })
    targets = graph.callees("repro.a:poke")
    assert targets == {"repro.a:One.fire", "repro.a:Two.fire"}
    assert graph.callees("repro.a:poke", fan_out=False) == set()


def test_reachable_records_witness_chains(tmp_path):
    graph = _graph(tmp_path, {
        "repro/chain.py": (
            "def a():\n    b()\n"
            "def b():\n    c()\n"
            "def c():\n    pass\n"
            "def lonely():\n    pass\n"
        ),
    })
    reached = graph.reachable(["repro.chain:a"])
    assert "repro.chain:lonely" not in reached
    assert reached["repro.chain:c"] == [
        "repro.chain:a", "repro.chain:b", "repro.chain:c",
    ]
