"""Positive and negative fixtures for the project-scope rule packs.

Each rule gets a fixture that must fire and a near-miss that must stay
quiet, exercised through :func:`lint_paths` so the whole pipeline
(parse, project pass, suppression partitioning) is in the loop.
"""

import textwrap

from repro.staticcheck import LintConfig, lint_paths

#: minimal catalog served to the OBS pack from the fixture root
CATALOG = """
# Observability

## Metric catalog

| Metric | Labels | Unit | Meaning |
|---|---|---|---|
| `repro_demo_total` | `scheme` | lookups | demo counter |

## Span catalog

| Span | Emitted by | Attributes |
|---|---|---|
| `demo.batch` | demo | `scheme` |
| `fault.<kind>` | demo | `label` |
"""


def lint_fixture(tmp_path, files, select):
    """Write ``files`` under ``tmp_path`` and lint with only ``select``."""
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    config = LintConfig(select=set(select), root=tmp_path)
    return lint_paths([tmp_path], config)


def rules_fired(report):
    return sorted({finding.rule for finding in report.findings})


class TestDeterminismPack:
    def test_det001_unseeded_random_reachable_from_entry_point(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/exp.py": """
                    import random
                    from pkg.registry import register

                    def draw():
                        return random.random()

                    @register("exp")
                    def run():
                        return draw()
                    """
            },
            ["DET001"],
        )
        assert rules_fired(report) == ["DET001"]
        assert "poisons the content-addressed result cache" in report.findings[0].message

    def test_det001_seeded_rng_stays_quiet(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/exp.py": """
                    import random
                    from pkg.registry import register

                    @register("exp")
                    def run(seed):
                        return random.Random(seed).random()
                    """
            },
            ["DET001"],
        )
        assert report.findings == []

    def test_det002_wall_clock_via_helper(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/exp.py": """
                    import time
                    from pkg.registry import register

                    def stamp():
                        return time.time()

                    @register("exp")
                    def run():
                        return stamp()
                    """
            },
            ["DET002"],
        )
        assert rules_fired(report) == ["DET002"]

    def test_det002_unreachable_wall_clock_stays_quiet(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/exp.py": """
                    import time
                    from pkg.registry import register

                    def engine_side():
                        return time.time()

                    @register("exp")
                    def run():
                        return 0
                    """
            },
            ["DET002"],
        )
        assert report.findings == []

    def test_det003_environment_read(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/exp.py": """
                    import os
                    from pkg.registry import register

                    @register("exp")
                    def run():
                        return os.getenv("MODE")
                    """
            },
            ["DET003"],
        )
        assert rules_fired(report) == ["DET003"]

    def test_det004_set_iteration_fires_and_sorted_does_not(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/exp.py": """
                    from pkg.registry import register

                    @register("bad")
                    def run(items):
                        return [x for x in set(items)]

                    @register("good")
                    def run_sorted(items):
                        return [x for x in sorted(set(items))]
                    """
            },
            ["DET004"],
        )
        assert len(report.findings) == 1
        assert report.findings[0].rule == "DET004"
        assert "'bad'" in report.findings[0].message


class TestFrozenPack:
    def test_frz001_self_write_outside_constructor(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/trie.py": """
                    class MergedTrie:
                        def __init__(self):
                            self.nodes = []

                        def grow(self):
                            self.version = 1
                    """
            },
            ["FRZ001"],
        )
        assert rules_fired(report) == ["FRZ001"]
        assert "'grow'" in report.findings[0].message

    def test_frz001_constructor_writes_are_allowed(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/trie.py": """
                    class MergedTrie:
                        def __init__(self):
                            self.nodes = []
                            self.version = 0

                        def size(self):
                            return len(self.nodes)
                    """
            },
            ["FRZ001"],
        )
        assert report.findings == []

    def test_frz001_write_through_binding(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/use.py": """
                    class MergedTrie:
                        def __init__(self):
                            self.nodes = []

                    def clobber():
                        trie = MergedTrie()
                        trie.nodes = [1]
                        return trie
                    """
            },
            ["FRZ001"],
        )
        assert any("'trie'" in f.message for f in report.findings)

    def test_frz002_mutation_laundered_through_helper(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/use.py": """
                    class MergedTrie:
                        def __init__(self):
                            self.nodes = []

                    def _push(trie, node):
                        trie.nodes.append(node)

                    def insert(trie: MergedTrie, node):
                        _push(trie, node)
                    """
            },
            ["FRZ002"],
        )
        assert rules_fired(report) == ["FRZ002"]
        assert "mutates parameter 'trie'" in report.findings[0].message

    def test_frz002_read_only_helper_stays_quiet(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/use.py": """
                    class MergedTrie:
                        def __init__(self):
                            self.nodes = []

                    def _peek(trie):
                        return trie.nodes

                    def inspect(trie: MergedTrie):
                        return _peek(trie)
                    """
            },
            ["FRZ002"],
        )
        assert report.findings == []


class TestObsPack:
    def with_catalog(self, tmp_path, module, select):
        return lint_fixture(
            tmp_path,
            {"docs/OBSERVABILITY.md": CATALOG, "src/pkg/obs_use.py": module},
            select,
        )

    def test_obs001_uncatalogued_metric(self, tmp_path):
        report = self.with_catalog(
            tmp_path,
            """
            from pkg.registry import MetricsRegistry

            REG = MetricsRegistry()
            BAD = REG.counter("repro_mystery_total", "x", labels=("scheme",))
            GOOD = REG.counter("repro_demo_total", "x", labels=("scheme",))
            """,
            ["OBS001"],
        )
        assert len(report.findings) == 1
        assert "repro_mystery_total" in report.findings[0].message

    def test_obs002_label_mismatch(self, tmp_path):
        report = self.with_catalog(
            tmp_path,
            """
            from pkg.registry import MetricsRegistry

            REG = MetricsRegistry()
            BAD = REG.counter("repro_demo_total", "x", labels=("scheme", "vn"))
            """,
            ["OBS002"],
        )
        assert rules_fired(report) == ["OBS002"]
        assert "['scheme', 'vn']" in report.findings[0].message

    def test_obs002_matching_labels_stay_quiet(self, tmp_path):
        report = self.with_catalog(
            tmp_path,
            """
            from pkg.registry import MetricsRegistry

            REG = MetricsRegistry()
            GOOD = REG.counter("repro_demo_total", "x", labels=("scheme",))
            """,
            ["OBS002"],
        )
        assert report.findings == []

    def test_obs003_unknown_span_and_wildcard_match(self, tmp_path):
        report = self.with_catalog(
            tmp_path,
            """
            def trace(tracer, kind):
                with tracer.span("demo.batch"):
                    pass
                with tracer.span(f"fault.{kind}"):
                    pass
                with tracer.span("demo.unknown"):
                    pass
            """,
            ["OBS003"],
        )
        assert len(report.findings) == 1
        assert "demo.unknown" in report.findings[0].message

    def test_obs004_int_literal_observe(self, tmp_path):
        report = self.with_catalog(
            tmp_path,
            """
            def record(hist):
                hist.observe(5)
                hist.observe(0.5)
            """,
            ["OBS004"],
        )
        assert len(report.findings) == 1
        assert "int" in report.findings[0].message


class TestConcurrencyPack:
    def test_conc001_blocking_in_async_direct_and_via_helper(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/serve.py": """
                    import time

                    def settle():
                        time.sleep(0.1)

                    async def drain():
                        time.sleep(0.1)
                        settle()
                    """
            },
            ["CONC001"],
        )
        assert len(report.findings) == 2
        assert any("directly" in f.message for f in report.findings)
        assert any("via" in f.message for f in report.findings)

    def test_conc001_blocking_in_sync_function_is_fine(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/serve.py": """
                    import time

                    def settle():
                        time.sleep(0.1)

                    async def drain():
                        return 1
                    """
            },
            ["CONC001"],
        )
        assert report.findings == []

    def test_conc002_submitted_function_mutates_module_state(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/work.py": """
                    from concurrent.futures import ProcessPoolExecutor

                    STATE = {}

                    def worker(x):
                        STATE[x] = True
                        return x

                    def launch(jobs):
                        pool = ProcessPoolExecutor()
                        return [pool.submit(worker, j) for j in jobs]
                    """
            },
            ["CONC002"],
        )
        assert rules_fired(report) == ["CONC002"]
        assert "'worker'" in report.findings[0].message

    def test_conc002_pure_worker_stays_quiet(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/work.py": """
                    from concurrent.futures import ProcessPoolExecutor

                    def worker(x):
                        return x * 2

                    def launch(jobs):
                        pool = ProcessPoolExecutor()
                        return [pool.submit(worker, j) for j in jobs]
                    """
            },
            ["CONC002"],
        )
        assert report.findings == []

    def test_conc003_unpicklable_default_on_submitted_function(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/work.py": """
                    import threading
                    from concurrent.futures import ProcessPoolExecutor

                    def worker(x, lock=threading.Lock()):
                        return x

                    def launch(jobs):
                        pool = ProcessPoolExecutor()
                        return [pool.submit(worker, j) for j in jobs]
                    """
            },
            ["CONC003"],
        )
        assert rules_fired(report) == ["CONC003"]
        assert "'lock'" in report.findings[0].message

    def test_conc003_plain_default_stays_quiet(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/work.py": """
                    from concurrent.futures import ProcessPoolExecutor

                    def worker(x, scale=2):
                        return x * scale

                    def launch(jobs):
                        pool = ProcessPoolExecutor()
                        return [pool.submit(worker, j) for j in jobs]
                    """
            },
            ["CONC003"],
        )
        assert report.findings == []

    def test_conc001_pipe_recv_and_trie_walk_block_the_loop(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/frontend.py": """
                    async def serve(conn, engine, batch):
                        conn.send(batch)
                        reply = conn.recv()
                        return reply, engine.walk_batch(batch)
                    """
            },
            ["CONC001"],
        )
        assert len(report.findings) == 2
        assert any(".recv()" in f.message for f in report.findings)
        assert any(".walk_batch()" in f.message for f in report.findings)

    def test_conc001_pipe_recv_bytes_blocks_the_loop(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/frontend.py": """
                    def read_token(conn):
                        return conn.recv_bytes()

                    async def exchange(conn, request):
                        conn.send_bytes(request)
                        return read_token(conn)
                    """
            },
            ["CONC001"],
        )
        assert rules_fired(report) == ["CONC001"]
        assert ".recv_bytes()" in report.findings[0].message

    def test_conc001_executor_offload_stays_quiet(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/frontend.py": """
                    import asyncio

                    def roundtrip(conn, batch):
                        conn.send(batch)
                        return conn.recv()

                    async def serve(conn, batch):
                        loop = asyncio.get_running_loop()
                        return await loop.run_in_executor(None, roundtrip, conn, batch)
                    """
            },
            ["CONC001"],
        )
        assert report.findings == []

    def test_conc003_process_target_with_unpicklable_default(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/shard.py": """
                    import threading
                    from multiprocessing import Pipe, Process

                    def worker(conn, lock=threading.Lock()):
                        conn.send(conn.recv())

                    def boot():
                        parent, child = Pipe()
                        process = Process(target=worker, args=(child,))
                        process.start()
                        return parent
                    """
            },
            ["CONC003"],
        )
        assert rules_fired(report) == ["CONC003"]
        assert "'lock'" in report.findings[0].message

    def test_conc003_run_in_executor_with_lambda_default(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/frontend.py": """
                    import asyncio

                    def roundtrip(batch, encode=lambda b: b):
                        return encode(batch)

                    async def serve(batch):
                        loop = asyncio.get_running_loop()
                        return await loop.run_in_executor(None, roundtrip, batch)
                    """
            },
            ["CONC003"],
        )
        assert rules_fired(report) == ["CONC003"]
        assert "'encode'" in report.findings[0].message

    def test_conc004_bare_lambda_and_def_in_loop(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/retry.py": """
                    def plan(engines, batches):
                        thunks = []
                        for vn, engine in enumerate(engines):
                            thunks.append(lambda: engine.walk(batches[vn]))

                            def redo():
                                return engine.reset()

                            thunks.append(redo)
                        return thunks
                    """
            },
            ["CONC004"],
        )
        assert rules_fired(report) == ["CONC004"]
        # bare lambda captures both names; the def captures the engine
        named = sorted(f.message.split("'")[1] for f in report.findings)
        assert named == ["engine", "engine", "vn"]

    def test_conc004_default_bound_closure_stays_quiet(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/retry.py": """
                    def plan(engines, batches):
                        thunks = []
                        for vn, engine in enumerate(engines):
                            thunks.append(lambda e=engine, b=batches[vn]: e.walk(b))

                            def redo(e=engine):
                                return e.reset()

                            thunks.append(redo)
                        return thunks
                    """
            },
            ["CONC004"],
        )
        assert report.findings == []

    def test_conc004_loop_local_rebinding_stays_quiet(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/retry.py": """
                    def plan(jobs):
                        thunks = []
                        for i in range(3):
                            def reset():
                                i = 0
                                return i

                            thunks.append(reset)
                        return thunks
                    """
            },
            ["CONC004"],
        )
        assert report.findings == []


class TestUnusedSuppression:
    def test_sup001_fires_on_a_dead_disable(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/m.py": """
                    X = 1  # repro-lint: disable=FLT001
                    """
            },
            ["FLT001", "SUP001"],
        )
        assert rules_fired(report) == ["SUP001"]
        assert "FLT001" in report.findings[0].message

    def test_sup001_quiet_when_the_disable_is_earning_its_keep(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/m.py": """
                    def check(x):
                        return x == 1.0  # repro-lint: disable=FLT001
                    """
            },
            ["FLT001", "SUP001"],
        )
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_sup001_cannot_be_silenced_inline(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/m.py": """
                    X = 1  # repro-lint: disable=FLT001,SUP001
                    """
            },
            ["FLT001", "SUP001"],
        )
        assert rules_fired(report) == ["SUP001"]

    def test_sup001_disabled_via_config_only(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            {
                "src/pkg/m.py": """
                    X = 1  # repro-lint: disable=FLT001
                    """
            },
            ["FLT001"],
        )
        assert report.findings == []
