"""A registry filled by a decorator call."""

REGISTRY = {}


def scenario(name):
    def register(function):
        REGISTRY[name] = function
        return function

    return register


@scenario("smoke")
def smoke():
    """(d) Registered by ``@scenario(...)``, named nowhere else: live."""
    return 3
