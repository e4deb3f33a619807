import sys

import pytest

import sjive.core


@pytest.fixture()
def fit_configs(monkeypatch):
    """The FitConfig of every ``sjive.core.fit`` call made while the test
    runs: the function is replaced in every loaded ``sjive`` module that
    binds it, so fold fits inside the selection are seen too."""
    original = sjive.core.fit
    seen = []

    def recorded(data, y, cfg, *args, **kwargs):
        seen.append(cfg)
        return original(data, y, cfg, *args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "sjive":
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, recorded)
    return seen
