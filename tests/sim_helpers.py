"""Shared helpers for tests that drive a cloud's simulator directly."""


def run_while(cloud, condition, max_seconds):
    """Run the simulator one event at a time while ``condition()`` holds.

    Stops when the condition fails, ``max_seconds`` of simulated time
    pass, or the event queue drains.
    """
    sim = cloud.sim
    deadline = sim.now + max_seconds
    while condition() and sim.now < deadline and sim.peek() is not None:
        sim.run(max_events=1)
