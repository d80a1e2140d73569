"""The one runtime description: every ``mpi`` x ``backend`` x ``sharing``
x ``algorithm`` combination is either accepted everywhere a
:class:`RuntimeConfig` is built (``Runtime``, ``ProcessRuntime``,
``JobSpec``) or refused there with an ``MPIError`` naming the field."""

import itertools
import json
from dataclasses import FrozenInstanceError

import pytest

from repro.faults.plan import FaultPlan
from repro.runtime import MPIError, ProcessRuntime, Runtime, RuntimeConfig, SUM
from repro.runtime.config import MPC, OPENMPI
from repro.service.spec import JobSpec

MPIS = ("mpc", "openmpi")
BACKENDS = ("threads", "coop")
SHARINGS = ("private", "shared")
ALGORITHMS = (None, "flat", "hierarchical")

COMBOS = [
    dict(mpi=m, backend=b, sharing=s, algorithm=a)
    for m, b, s, a in itertools.product(MPIS, BACKENDS, SHARINGS, ALGORITHMS)
]


def refusal(combo):
    """The field an invalid combination is refused for (None = valid)."""
    if combo["mpi"] == "openmpi" and combo["sharing"] == "shared":
        return "sharing"
    return None


def combo_id(combo):
    return "-".join(str(v) for v in combo.values())


@pytest.mark.parametrize("combo", COMBOS, ids=combo_id)
def test_combination_table(combo):
    field = refusal(combo)
    if field is not None:
        for build in (RuntimeConfig, Runtime,
                      lambda **kw: JobSpec(app="ring", **kw)):
            with pytest.raises(MPIError, match=field):
                build(**combo)
        return
    config = RuntimeConfig(timeout=10.0, **combo)
    assert JobSpec(app="ring", timeout=10.0, **combo).options() == config.to_dict()
    rt = Runtime(n_tasks=2, **config.options())
    assert rt.config == config
    assert rt.policy is (MPC if combo["mpi"] == "mpc" else OPENMPI)
    assert rt.collective_algorithm == (
        combo["algorithm"] or rt.policy.collective_algorithm
    )
    assert rt.run(lambda ctx: ctx.comm_world.allreduce(ctx.rank, SUM)) == [1, 1]
    assert rt.finalize().by_kind().get("runtime", 0) == 0


BAD_VALUES = [
    ({"mpi": "mvapich"}, "mpi"),
    ({"backend": "bogus"}, "backend"),
    ({"sharing": "weird"}, "sharing"),
    ({"algorithm": "tree"}, "algorithm"),
    ({"schedule": "random:1"}, "schedule"),
    ({"backend": "coop", "schedule": "zigzag"}, "schedule"),
    ({"backend": "coop", "schedule": "random:x"}, "schedule"),
    ({"backend": "coop", "schedule": 3.5}, "schedule"),
]


@pytest.mark.parametrize("fields, name", BAD_VALUES,
                         ids=[combo_id(f) for f, _ in BAD_VALUES])
def test_bad_value_refused_at_construction(fields, name):
    with pytest.raises(MPIError, match=name):
        RuntimeConfig(**fields)
    with pytest.raises(MPIError, match=name):
        Runtime(n_tasks=2, **fields)
    with pytest.raises(MPIError, match=name):
        JobSpec(app="ring", **fields)


def test_process_runtime_is_the_openmpi_value():
    rt = ProcessRuntime(n_tasks=2)
    assert rt.config == RuntimeConfig(mpi="openmpi")
    assert type(rt).__dict__.keys() <= {"__init__", "__module__", "__doc__"}
    with pytest.raises(MPIError, match="sharing"):
        ProcessRuntime(n_tasks=2, sharing="shared")


def test_config_is_frozen_and_round_trips():
    config = RuntimeConfig(mpi="openmpi", backend="coop",
                           schedule="random:7", algorithm="hierarchical",
                           timeout=4.5)
    with pytest.raises(FrozenInstanceError):
        config.sharing = "shared"
    text = config.to_json()
    assert RuntimeConfig.from_json(text) == config
    assert RuntimeConfig.from_json(text).to_json() == text
    with pytest.raises(ValueError, match="unknown runtime config fields"):
        RuntimeConfig.from_dict({"app": "ring"})


#: JobSpec JSON as the service emitted it before ``mpi`` joined the
#: spec's fields: it must still parse, to the spec it described
LEGACY_SPECS = [
    ('{"algorithm":"flat","app":"ring","backend":"coop","fault_plan":null,'
     '"footprint_bytes":67108864,"n_tasks":4,"params":{"seed":3},'
     '"preset":"flat:2","schedule":"random:7","sharing":"shared",'
     '"timeout":5.0}',
     JobSpec(app="ring", n_tasks=4, backend="coop", schedule="random:7",
             sharing="shared", algorithm="flat", params={"seed": 3},
             timeout=5.0, preset="flat:2")),
    ('{"algorithm":null,"app":"allreduce","backend":"threads",'
     '"fault_plan":null,"footprint_bytes":67108864,"n_tasks":2,"params":{},'
     '"preset":"flat","schedule":null,"sharing":"private","timeout":30.0}',
     JobSpec(app="allreduce")),
    ('{"algorithm":null,"app":"ring","backend":"threads","fault_plan":'
     '{"seed":null,"specs":[{"action":"delay","count":1,"nth":1,'
     '"param":0.0,"site":"p2p.post","task":1,"victim":-1}],"version":1},'
     '"footprint_bytes":67108864,"n_tasks":2,"params":{},"preset":"flat",'
     '"schedule":null,"sharing":"private","timeout":30.0}',
     JobSpec(app="ring",
             fault_plan=FaultPlan.single("p2p.post", "delay", task=1))),
]


@pytest.mark.parametrize("text, spec", LEGACY_SPECS)
def test_legacy_job_spec_json_parses_to_an_equal_spec(text, spec):
    parsed = JobSpec.from_json(text)
    assert parsed == spec
    assert parsed.mpi == "mpc"
    # the same JSON plus the one new flat field
    assert json.loads(parsed.to_json()) == {**json.loads(text), "mpi": "mpc"}
    assert JobSpec.from_json(parsed.to_json()) == spec
