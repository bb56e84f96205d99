"""Reference helpers: the brute-force ownership walk, the step-by-step
reference loop the step-skipping drivers are checked against, and the stop
test it shares with them."""


def walk_ownership(head, tail, length):
    """Brute-force oracle: walk from head, incrementing mod length, to tail."""
    owned = set()
    i = head
    while i != tail:
        owned.add(i)
        i = (i + 1) % length
    return owned


def drained(agent, n):
    """forward_trace's stop test on a pipeline fed n frames from a fresh
    link: all n injected, none left on the wire, every delivered packet
    processed and the agent quiescent."""
    link = agent.nic.link
    return (link.injected == n and not link.rx_pending
            and agent.processed == link.rx_delivered and agent.quiescent())


def plain_forward(agent, frames, processor, budget, due, deadline):
    """forward_trace's timed mode without its clock jumps: every step is run.

    The pipeline must not have injected anything before. Each step must
    advance the clock by one, so a device whose clock stops fails here
    instead of spinning forever.
    """
    nic = agent.nic
    n = len(frames)
    k = count = 0
    while deadline is None or nic.now < deadline:
        while k < n and due[k] <= nic.now:
            nic.inject_rx(frames[k])
            k += 1
        now = nic.now
        nic.step_device(budget)
        assert nic.now == now + 1
        count += agent.poll(processor)
        if drained(agent, n):
            break
    return count
