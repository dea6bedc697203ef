"""Property-based engine tests: random processes, random crash points.

``TestNavigatorOracle`` runs each random process twice, once under the
ready-set :class:`~repro.core.engine.navigator.Navigator` and once under
the full-scan navigator it replaced (``full_scan_navigator``), and
requires identical durable event logs.
"""

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.bio import DarwinEngine
from repro.cluster import DAY
from repro.core.engine import (
    BioOperaServer,
    InlineEnvironment,
    ProgramRegistry,
    ProgramResult,
    replay_instance,
)
from repro.core.engine import server as server_module
from repro.core.engine.navigator import Navigator
from repro.core.model import Activity, ProcessTemplate, TaskGraph
from repro.core.model.data import Binding, ProcessParameter
from repro.core.model.failure import FailureHandler, Sphere
from repro.core.model.tasks import Block, ParallelTask, SubprocessTask
from repro.errors import ActivityFailure, ReproError
from repro.faults.plan import FaultAction
from repro.faults.points import FaultInjector, InjectedCrash, installed
from repro.workloads import datasets, scenarios

from .full_scan_navigator import FullScanNavigator

#: failure handlers a rich random task draws from (None = the default).
HANDLERS = (
    None,
    FailureHandler("retry", max_retries=1, then="ignore"),
    FailureHandler("retry", max_retries=1, then="alternative",
                   alternative_program="prop.alt"),
    FailureHandler("alternative", alternative_program="prop.alt",
                   alternative_parameters=(("mode", "alt"),)),
    FailureHandler("ignore"),
    FailureHandler("abort"),
)

#: the subprocess template rich random processes reference.
CHILD = ProcessTemplate(
    "Child",
    graph=TaskGraph(
        tasks=[Activity("C0", program="prop.flaky"),
               Activity("C1", program="prop.token",
                        failure=HANDLERS[1])],
    ),
    parameters=[ProcessParameter("element", optional=True)],
)
CHILD.graph.connect("C0", "C1", "C0.v > 0")


def _conditions(source):
    """Activation conditions a rich edge out of ``source`` draws from."""
    return (None, None, "wb.flag == 1", "NOT DEFINED(wb.x)",
            "DEFINED(wb.x)", f"{source}.v > 1",
            "wb.flag == 0 OR DEFINED(wb.x)")


@st.composite
def _rich_task(draw, name):
    """One task of a rich random process: any kind, join, AWAIT/RAISE
    clause and failure handler."""
    common = {
        "join": draw(st.sampled_from(("or", "and"))),
        "awaits": draw(st.sampled_from(([], [], ["go"]))),
        "raises": draw(st.sampled_from(([], [], ["go"]))),
        "failure": draw(st.sampled_from(HANDLERS)),
    }
    kind = draw(st.sampled_from(
        ("activity", "activity", "activity", "block", "parallel",
         "subprocess")))
    if kind == "block":
        inner = TaskGraph()
        size = draw(st.integers(min_value=1, max_value=3))
        for index in range(size):
            inner.add_task(Activity(
                f"B{index}", program="prop.flaky",
                failure=draw(st.sampled_from(HANDLERS)),
                output_mappings=[("v", "x")] if index == 0 else [],
            ))
            if index and draw(st.booleans()):
                inner.connect(f"B{index - 1}", f"B{index}", draw(
                    st.sampled_from(_conditions(f"B{index - 1}"))))
        return Block(name, graph=inner, **common)
    if kind == "parallel":
        body = draw(st.sampled_from((
            Activity("Body", program="prop.flaky"),
            SubprocessTask("Body", template_name="Child"),
        )))
        return ParallelTask(name, list_input=Binding.whiteboard("items"),
                            body=body, **common)
    if kind == "subprocess":
        return SubprocessTask(name, template_name="Child", **common)
    return Activity(
        name, program=draw(st.sampled_from(("prop.token", "prop.flaky"))),
        inputs={"seed": Binding.whiteboard("seed")},
        output_mappings=draw(st.sampled_from(([], [("v", "x")]))),
        **common,
    )


@st.composite
def random_dag_template(draw, rich=False):
    """A random acyclic process whose activities each produce a token.

    ``rich`` processes mix activities with blocks, parallel tasks and
    subprocesses, and add AND/OR joins, data-reading activation
    conditions, AWAIT/RAISE signals, failure handlers and a sphere with
    compensation.
    """
    task_count = draw(st.integers(min_value=1, max_value=7))
    graph = TaskGraph()
    names = [f"T{i}" for i in range(task_count)]
    for name in names:
        graph.add_task(draw(_rich_task(name)) if rich
                       else Activity(name, program="prop.token"))
    edges = []
    for i in range(task_count):
        for j in range(i + 1, task_count):
            if draw(st.booleans()):
                condition = (draw(st.sampled_from(_conditions(names[i])))
                             if rich else None)
                graph.connect(names[i], names[j], condition)
                edges.append((names[i], names[j]))
    parameters = [ProcessParameter("seed", optional=True, default=0)]
    spheres = []
    if rich:
        parameters += [
            ProcessParameter("flag", optional=True, default=0),
            ProcessParameter("x", optional=True),
            ProcessParameter("items", optional=True, default=[]),
        ]
        members = draw(st.lists(st.sampled_from(names), min_size=1,
                                max_size=4, unique=True))
        if draw(st.integers(min_value=0, max_value=3)):
            spheres.append(Sphere(
                "S", tasks=tuple(members),
                compensation=tuple(
                    (m, "prop.undo") for m in members
                    if isinstance(graph.tasks[m], Activity)),
                on_abort=draw(st.sampled_from(("abort_process",
                                               "continue"))),
            ))
    return ProcessTemplate(
        "RandomDag", graph=graph, parameters=parameters, spheres=spheres,
    ), edges


class TestRandomDags:
    @settings(max_examples=40, deadline=None)
    @given(random_dag_template())
    def test_every_dag_completes_and_respects_order(self, built):
        template, edges = built
        order = []

        def token(inputs, ctx):
            order.append(ctx.task_path)
            return ProgramResult({"token": ctx.task_path}, 0.1)

        registry = ProgramRegistry()
        registry.register("prop.token", token)
        server = BioOperaServer(registry=registry)
        environment = InlineEnvironment()
        server.attach_environment(environment)
        server.define_template(template)
        instance_id = server.launch("RandomDag")
        environment.run_instance(instance_id)
        instance = server.instance(instance_id)
        assert instance.status == "completed"
        # every task ran exactly once
        assert sorted(order) == sorted(template.graph.tasks)
        # control-flow edges respected
        positions = {name: index for index, name in enumerate(order)}
        for source, target in edges:
            assert positions[source] < positions[target]

    @settings(max_examples=25, deadline=None)
    @given(random_dag_template())
    def test_replay_equals_live(self, built):
        template, _edges = built
        registry = ProgramRegistry()
        registry.register(
            "prop.token",
            lambda i, c: ProgramResult({"token": c.task_path}, 0.1),
        )
        server = BioOperaServer(registry=registry)
        environment = InlineEnvironment()
        server.attach_environment(environment)
        server.define_template(template)
        instance_id = server.launch("RandomDag")
        environment.run_instance(instance_id)
        live = server.instance(instance_id)
        twin = replay_instance(server.store, instance_id, server._resolver)
        assert twin.status == live.status
        assert twin.progress() == live.progress()
        for state in live.iter_states():
            assert twin.find_state(state.path).outputs == state.outputs


class TestRandomCrashPoints:
    CHAIN_LENGTH = 6

    def build(self):
        graph = TaskGraph()
        previous = None
        for index in range(self.CHAIN_LENGTH):
            name = f"S{index}"
            graph.add_task(Activity(name, program="prop.step"))
            if previous is not None:
                graph.connect(previous, name)
            previous = name
        template = ProcessTemplate("Chain6", graph=graph)
        registry = ProgramRegistry()
        calls = []
        registry.register(
            "prop.step",
            lambda i, c: (calls.append(c.task_path),
                          ProgramResult({"done": c.task_path}, 1.0))[1],
        )
        server = BioOperaServer(registry=registry)
        environment = InlineEnvironment()
        server.attach_environment(environment)
        server.define_template(template)
        return server, environment, calls

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=CHAIN_LENGTH),
           st.integers(min_value=0, max_value=CHAIN_LENGTH))
    def test_crash_twice_anywhere_no_rework_of_completed_steps(
            self, first_crash, second_crash):
        server, environment, calls = self.build()
        instance_id = server.launch("Chain6")
        for _ in range(first_crash):
            environment.step()
        server.crash()
        environment2 = InlineEnvironment()
        server2 = BioOperaServer.recover(server.store, server.registry,
                                         environment=environment2)
        for _ in range(second_crash):
            environment2.step()
        server2.crash()
        environment3 = InlineEnvironment()
        server3 = BioOperaServer.recover(server2.store, server2.registry,
                                         environment=environment3)
        environment3.run_instance(instance_id)
        instance = server3.instance(instance_id)
        assert instance.status == "completed"
        # each step completed exactly once in the durable log...
        completed = [
            event["path"]
            for event in server3.store.instances.events(instance_id)
            if event["type"] == "task_completed"
        ]
        assert sorted(completed) == sorted(
            f"S{i}" for i in range(self.CHAIN_LENGTH))
        # ...and each step EXECUTED at most twice (once wasted per crash
        # at most: the in-flight victim)
        for index in range(self.CHAIN_LENGTH):
            assert calls.count(f"S{index}") <= 3


# ---------------------------------------------------------------------------
# Differential oracle: ready-set navigator vs the full-scan navigator
# ---------------------------------------------------------------------------

def _oracle_registry() -> ProgramRegistry:
    """Programs whose outcome depends on (task path, attempt) only."""
    def outcome(ctx):
        return random.Random(f"{ctx.task_path}/{ctx.attempt}")

    def token(inputs, ctx):
        return ProgramResult({"token": ctx.task_path,
                              "v": outcome(ctx).randint(0, 3)}, 0.1)

    def flaky(inputs, ctx):
        rng = outcome(ctx)
        if rng.random() < 0.5:
            raise ActivityFailure("program-error", detail="flaky")
        return ProgramResult({"v": rng.randint(0, 3)}, 0.2)

    registry = ProgramRegistry()
    registry.register("prop.token", token)
    registry.register("prop.flaky", flaky)
    registry.register("prop.alt",
                      lambda i, c: ProgramResult({"v": 2, "alt": True}, 0.1))
    registry.register("prop.undo", lambda i, c: ProgramResult(
        {"undone": i.get("task", "")}, 0.1))
    return registry


def _operate(server, instance_id, op):
    """One operator action; refusals (terminal instance, ...) are fine."""
    kind, argument = op
    try:
        if kind == "signal":
            server.raise_signal(instance_id, "go")
        elif kind == "set":
            server.change_parameter(instance_id, argument, 1)
        elif kind == "restart":
            server.restart_task(instance_id, argument)
        elif kind == "suspend":
            server.suspend(instance_id)
        elif kind == "resume":
            server.resume(instance_id)
    except InjectedCrash:
        raise
    except ReproError:
        pass


class _Ticks:
    """A clock the harness advances once per environment step. Reading
    it has no side effect (unlike the fallback ``StepClock``, which ticks
    per read and so would time-stamp how often a navigator looked)."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _drive(navigator, template, items, ops, crash_at, max_steps=300):
    """Run one random process under ``navigator`` until it goes quiet,
    crashing the server after the ``crash_at``-th persisted event (0 =
    never) and recovering it. Returns the instance's durable log."""
    registry = _oracle_registry()
    clock = _Ticks()
    actions = ([FaultAction("server.emit.post-persist", "crash",
                            at_hit=crash_at)] if crash_at else [])
    with mock.patch.object(server_module, "Navigator", navigator), \
            installed(FaultInjector(actions)):
        server = BioOperaServer(registry=registry, clock=clock)
        server.attach_environment(InlineEnvironment())
        server.define_template(CHILD)
        server.define_template(template)

        def recover(crashed):
            crashed.crash()
            return BioOperaServer.recover(
                crashed.store, registry, environment=InlineEnvironment(),
                clock=clock)

        try:
            server.launch("RandomDag", {"items": items})
        except InjectedCrash:
            server = recover(server)
        (instance_id,) = server.store.instances.instance_ids()
        last_op = max(ops, default=0)
        for step in range(max_steps):
            clock.now += 1.0
            try:
                for op in ops.get(step, ()):
                    _operate(server, instance_id, op)
                if not server.environment.step() and step > last_op:
                    break
            except InjectedCrash:
                server = recover(server)
        return list(server.store.instances.events(instance_id))


@st.composite
def oracle_case(draw):
    template, _edges = draw(random_dag_template(rich=True))
    names = sorted(template.graph.tasks)
    op = st.one_of(
        st.sampled_from([("signal", ""), ("set", "flag"), ("set", "x"),
                         ("suspend", ""), ("resume", "")]),
        st.tuples(st.just("restart"), st.sampled_from(names)),
    )
    ops = draw(st.dictionaries(st.integers(min_value=0, max_value=40),
                               st.lists(op, min_size=1, max_size=2),
                               max_size=4))
    items = draw(st.lists(st.integers(min_value=0, max_value=9),
                          max_size=3))
    crash_at = draw(st.integers(min_value=0, max_value=30))
    return template, items, ops, crash_at


class TestNavigatorOracle:
    @settings(max_examples=40, deadline=None)
    @given(oracle_case())
    def test_random_processes_log_identically(self, case):
        template, items, ops, crash_at = case
        expected = _drive(FullScanNavigator, template, items, ops, crash_at)
        assert _drive(Navigator, template, items, ops, crash_at) == expected

    def test_all_vs_all_shared_script_logs_identically(self):
        """The all-vs-all at small granularity under the shared-cluster
        script, scaled so its whole event schedule still plays out: node
        failures, both server crashes, suspend/resume, a full disk."""
        profile = datasets.scaled_profile(3_000, seed=3, name="SP38")
        darwin = DarwinEngine(profile, mode="modeled",
                              random_match_rate=5e-4, sample_cap=50, seed=1)

        def run(navigator):
            stores = []

            class Recording(navigator):
                def __init__(self, server):
                    super().__init__(server)
                    if all(s is not server.store for s in stores):
                        stores.append(server.store)

            with mock.patch.object(server_module, "Navigator", Recording):
                report = scenarios.shared_run(
                    darwin=darwin, granularity=16, day=DAY / 200, seed=1)
            return report, [list(store.instances.events(iid))
                            for store in stores
                            for iid in store.instances.instance_ids()]

        expected_report, expected = run(FullScanNavigator)
        report, logs = run(Navigator)
        assert report.status == "completed"
        assert report.failure_reasons["node-crash"] > 0
        assert report.failure_reasons["server-recovery"] > 0
        assert report.failure_reasons["disk-full"] > 0
        assert logs == expected
        assert report == expected_report
