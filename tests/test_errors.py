"""Package errors survive pickling, as they must to leave a worker process."""

import pickle

import pytest

from frsense import errors

#: Constructor arguments for the classes whose signature is not (message,).
ARGS = {
    "ConfigError": ("CONFIG_BAD_VALUE", "bad value"),
    "ParseError": ("oops", 3),
}


@pytest.mark.parametrize("name", errors.__all__)
@pytest.mark.parametrize("case", ["plain", "annotated", "noted"])
def test_round_trip_keeps_type_args_and_attributes(name, case):
    cls = getattr(errors, name)
    exc = cls(*ARGS.get(name, ("went wrong",)))
    where = "sweep task failed at the baseline, replicate 1"
    if case == "annotated":  # as a failing sweep task extends its message
        exc.args = (f"{exc.args[0]} [{where}]",)
    elif case == "noted":  # as a task error whose arguments are not a message
        exc.__notes__ = [where]
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert back.args == exc.args
    assert getattr(back, "__notes__", None) == getattr(exc, "__notes__", None)
    assert str(back) == str(exc)
    assert getattr(back, "code", None) == getattr(exc, "code", None)
    assert getattr(back, "line_number", None) == getattr(exc, "line_number", None)

