import pytest

from v2vlos import CANONICAL_STATES, Density, Environment, builtin_model

ALL_SCENARIOS = [(e, d) for e in Environment for d in Density]


@pytest.fixture(params=ALL_SCENARIOS, ids=lambda p: f"{p[0].value}-{p[1].value}")
def scenario(request):
    return builtin_model(*request.param)


def all_models():
    return [builtin_model(e, d) for e, d in ALL_SCENARIOS]


def model_curves(model):
    """Every (label, CurveSpec) pair carried by one scenario model."""
    out = [(f"state:{s.name}", spec) for s, spec in model.state_probs.explicit.items()]
    for origin, row in zip(CANONICAL_STATES, model.rows):
        out.extend((f"row:{origin.name}->{t.name}", spec) for t, spec in row.explicit.items())
    return out
