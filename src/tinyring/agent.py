"""Single-ring forwarding agent: one receive ring mirrored by N transmit
rings over a shared buffer set.

Every ring uses the same slot index space and every transmit ring's slot i
points at the same buffer as receive slot i, so the agent copies no packet:
it reads the done bit, runs the processor in place, and writes fresh
transmit metadata. The device copies none either when a packet leaves
unchanged: every output emits the bytes object that was injected. A packet
the processor changed is copied once, at its first completion, and every
output shares that copy (Nic.step_device). Packets are handled strictly in
order, one at a time; a per-output length of 0 tells the device to retire
the descriptor without emitting anything.

Bookkeeping runs on unwrapped counters (total packets, not ring positions).
With ring size S the pipeline keeps

    min_q TX head  <=  published TX tail  <=  processed  <  RX tail

with each counter within S - 1 of the next. The receive tail starts at
S - 1 and recycling republishes it as (earliest TX head - 1) mod S, so one
slot always stays unowned: a full interval is never confused with an empty
one, and a mod-S register value can be unwrapped against `processed`
unambiguously.

Tail writes are batched: transmit tails are published when `processed`
is a multiple of `flush_period` (all queues in one pass, which keeps them
equal), and the receive tail is republished at multiples of `recycle_period`.
Each tail write is one call of a doorbell (Nic.doorbell) the agent binds
to its ring at construction; only the set-up goes through the
string-keyed reg_write.
When a receive poll comes up empty the agent publishes and recycles
immediately instead, entering _flush only when a batch is unpublished and
recycle only when the receive tail is below its bound; without that, a
ragged batch at the end of a burst would sit unpublished forever and rings
no larger than the recycle period would wedge.

Report status has one rule: every publish marks RS on the last descriptor
of the batch it publishes, on every queue, so each batch ends in a head
write-back, whether it closed on the flush grid or was published early by
an empty poll or finish(). transmit itself never sets RS. A slot goes back
to the device only once every output is done with it, and transmit has
already cleared its receive done bit by then, so recycling only moves the
receive tail. Transmit progress is read from the head write-back words
alone. Each queue's lag, (processed - h) & (S - 1) for its word h, is
the one reading of that word: recycling unwraps h as processed - lag, and
quiescence, the drain bound and the stall report (_stalled) take the lags
from _lags, so a corrupt word at or above S reads the same in all four,
and the report names a queue exactly when its lag is non-zero. Like the
device, the agent reads and writes descriptor metadata and write-back
words through native-order word views of the arena (see tinyring.nic for
why that is sound); each ring's first metadata word index is computed
once, at construction.

poll() is the whole ring protocol in one call: it reads the receive
descriptor, runs the processor and files the packet itself, so the only
Python functions a packet enters in the agent are poll and the processor
(and _flush or recycle on their grids). receive() and
transmit() are the same protocol split in two. Nothing in this package
calls them; they stay for processing a packet by hand, for filing a packet
a raising processor left outstanding, and for perfbench's tracer, which
wraps both by name. transmit() files the outstanding packet by polling it
again with a processor that returns the caller's lengths, so the filing
code and its checks exist once. That is sound because the device never
owns the slot at processed (the receive tail never passes
processed + ring_size - 1), so the done bit receive() saw is still set.

There is one driver loop, forward_trace: inject, step the device, poll,
in lockstep, skipping the steps in which nothing can happen. Only
injection varies. It is flow-controlled by default (the
next frame enters once the wire is clear and a receive slot is free) or
timed (frame k enters at step due[k], which is how the bench offers load).
Agent.run is the same loop over frames already on the wire. A pipeline
that can no longer move, such as one with a stopped transmit queue, raises
PipelineStalled instead of spinning; its message names each queue whose
head write-back lags processed, and whether that queue is stopped or its
write-back was lost. build_pipeline makes the memory
environment, device and agent that every caller of the loop needs.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .mem import DEFAULT_PAGE_SIZE, MemEnv, _check_int
from .nic import (DESC_BYTES, MAX_FRAME, MAX_QUEUES, MAX_RING, META_DD, META_EOP,
                  META_LEN_MASK, META_RS, MIN_RING, Frame, Nic)

FLUSH_PERIOD = 8
RECYCLE_PERIOD = 64

# (buffer view of full capacity, received length, output count) -> per-output lengths.
# A processor that returns a length beyond the received one must have written
# those bytes itself; all built-ins only shrink or keep the length.
Processor = Callable[[memoryview, int, int], Sequence[int]]


class ProtocolViolation(Exception):
    """receive and transmit were not strictly alternated."""


class PipelineStalled(RuntimeError):
    """Work is in flight but no step can ever make progress on it."""


def _check_geometry(ring_size: int, num_outputs: int) -> None:
    """Raise ValueError unless the ring size and output count fit the device."""
    _check_int(ring_size, "ring size", MIN_RING, MAX_RING)
    if ring_size & (ring_size - 1):
        raise ValueError(f"ring size must be a power of two, got {ring_size}")
    _check_int(num_outputs, "output count", 1, MAX_QUEUES)


class Agent:
    """The processing unit driving one device."""

    def __init__(self, env: MemEnv, nic: Nic, ring_size: int, num_outputs: int = 1,
                 flush_period: int = FLUSH_PERIOD,
                 recycle_period: int = RECYCLE_PERIOD) -> None:
        _check_geometry(ring_size, num_outputs)
        if num_outputs != nic.num_tx_queues:
            raise ValueError(f"device has {nic.num_tx_queues} transmit queues, "
                             f"agent needs {num_outputs}")
        _check_int(flush_period, "flush period", 1)
        _check_int(recycle_period, "recycle period", 1)
        if recycle_period % flush_period:
            raise ValueError("recycle period must be a multiple of the flush period")
        self.nic = nic
        self.ring_size = ring_size
        self.num_outputs = num_outputs
        self.flush_period = flush_period
        self.recycle_period = recycle_period
        self._mask = ring_size - 1
        u64 = self._u64 = env.dma.cast("Q")  # descriptor words, index = address >> 3

        rx = env.allocate_dma(ring_size * DESC_BYTES)
        txs = [env.allocate_dma(ring_size * DESC_BYTES) for _ in range(num_outputs)]
        bufs = env.allocate_dma(ring_size * MAX_FRAME)
        shadow = env.allocate_dma(4 * num_outputs)
        # One reusable full-capacity view per slot. This tuple is the whole
        # buffer set; it never changes after construction.
        self.buffers = tuple(bufs.view[i * MAX_FRAME:(i + 1) * MAX_FRAME]
                             for i in range(ring_size))

        # index of slot 0's metadata word on each ring; slot i's is 2 * i further
        self._rx_meta = (rx.phys_base >> 3) + 1
        self._tx_metas = tuple((tx.phys_base >> 3) + 1 for tx in txs)
        # the head write-back words, one per queue, as 32-bit words
        first = shadow.phys_base >> 2
        self._heads = env.dma.cast("I")[first:first + num_outputs]
        for i in range(ring_size):
            baddr = bufs.phys_base + i * MAX_FRAME
            for meta in (self._rx_meta, *self._tx_metas):
                u64[meta - 1 + 2 * i] = baddr

        nic.reg_write("RDBA", rx.phys_base)
        nic.reg_write("RDLEN", ring_size)
        nic.reg_write("RDT", ring_size - 1)  # device owns every slot but one
        for q, tx in enumerate(txs):
            nic.reg_write("TDBA", tx.phys_base, q)
            nic.reg_write("TDLEN", ring_size, q)
            nic.reg_write("TDWBA", shadow.phys_base + 4 * q, q)
            nic.reg_write("TXEN", 1, q)
        nic.reg_write("RXEN", 1)
        # tail writers, bound to their rings once; see Nic.doorbell
        self._tdts = tuple(nic.doorbell("TDT", q) for q in range(num_outputs))
        self._rdt = nic.doorbell("RDT")

        self.processed = 0                      # unwrapped packets fully handled
        self._published = 0                     # unwrapped value last written to the TX tails
        self._rdt_unwrapped = ring_size - 1     # unwrapped value of the RX tail
        self._inflight = False

    # -- ring protocol ------------------------------------------------------

    def receive(self) -> tuple[memoryview, int] | None:
        """Peek the next slot; (buffer, length) once the device is done with it.

        Returns None while no packet is waiting. A returned packet is
        outstanding until transmit() files it; receiving again before that
        is a protocol violation. A done descriptor whose length exceeds
        MAX_FRAME raises ValueError naming the slot and the length, and
        leaves nothing outstanding. For processing by hand; perfbench's
        tracer wraps it by name.
        """
        if self._inflight:
            raise ProtocolViolation("previous packet was never transmitted")
        slot = self.processed & self._mask
        meta = self._u64[self._rx_meta + 2 * slot]
        if not meta & META_DD:
            return None
        n = meta & META_LEN_MASK
        if n > MAX_FRAME:
            _reject_length(slot, n)
        self._inflight = True
        return self.buffers[slot], n

    def transmit(self, lengths: Sequence[int]) -> None:
        """File the outstanding packet on every output; length 0 skips one.

        Polls the outstanding packet again with a processor that returns
        lengths, so poll() does the filing, with its checks: a rejected
        length raises ValueError and leaves the packet outstanding. If the
        packet's receive done bit was cleared by hand since it was received,
        that poll comes up empty (and does an empty poll's housekeeping), and
        transmit raises ProtocolViolation with the packet still outstanding.
        For processing by hand and for filing a packet a raising processor
        left outstanding in poll(); perfbench's tracer wraps it by name.
        """
        if not self._inflight:
            raise ProtocolViolation("no packet outstanding")
        self._inflight = False
        if not self.poll(lambda buffer, length, outputs: lengths):
            self._inflight = True
            raise ProtocolViolation("the outstanding packet's receive done bit was cleared")

    def _flush(self) -> None:
        """Publish the unpublished batch, with RS on its last descriptor.

        RS makes the head write-back reach `processed`; writing every queue's
        tail in one pass keeps the tails equal. No-op when nothing is
        unpublished.
        """
        p = self.processed
        if p == self._published:
            return
        off = 2 * ((p - 1) & self._mask)
        u64 = self._u64
        for meta in self._tx_metas:
            u64[meta + off] |= META_RS
        tail = p & self._mask
        for tdt in self._tdts:
            tdt(tail)
        self._published = p

    def recycle(self) -> None:
        """Hand fully transmitted slots back to the receive ring.

        The bound is the earliest transmit head across queues, read from
        the head write-back words: a slot is reused only once every queue
        is done with it. No-op when nothing new has drained. An empty poll
        calls it only when the tail is below its bound processed - 1 +
        ring_size; finish() calls it unconditionally.
        """
        p = self.processed
        mask = self._mask
        earliest = p
        for h in self._heads:
            # processed - lag, _lags' reading, kept inline: most empty polls
            # enter recycle, so a list built per call would cost time
            uh = p - ((p - h) & mask)
            if uh < earliest:
                earliest = uh
        new_tail = earliest + mask
        if new_tail <= self._rdt_unwrapped:
            return
        self._rdt_unwrapped = new_tail
        self._rdt(new_tail & mask)

    # -- driving loops ------------------------------------------------------

    def poll(self, processor: Processor) -> bool:
        """One receive attempt; process and file the packet if one is waiting.

        receive() and transmit() in one call, with the same ProtocolViolation
        rules: if the processor raises, the packet stays outstanding. A
        received length above MAX_FRAME raises ValueError, as in receive(),
        before the processor runs.

        Filing writes every output's transmit metadata word, then clears the
        receive done bit, then publishes and recycles on the flush and
        recycle grids. The length count and every length are checked before
        any word is written, so a rejected packet stays outstanding with
        nothing half-filed.

        An empty poll does the deferred housekeeping instead, which keeps
        the pipeline live when traffic pauses between flush boundaries: it
        publishes a ragged batch if processed is ahead of the published
        tails, and recycles if the receive tail is below its bound
        processed + ring_size - 1. Housekeeping with nothing to do is not
        entered.
        """
        if self._inflight:
            raise ProtocolViolation("previous packet was never transmitted")
        slot = self.processed & self._mask
        rx = self._rx_meta + 2 * slot  # read for the done bit, cleared at filing
        meta = self._u64[rx]
        if not meta & META_DD:
            p = self.processed
            if p != self._published:
                self._flush()
            if self._rdt_unwrapped < p + self._mask:
                self.recycle()
            return False
        n = meta & META_LEN_MASK
        if n > MAX_FRAME:
            _reject_length(slot, n)
        self._inflight = True
        lengths = processor(self.buffers[slot], n, self.num_outputs)
        if len(lengths) != self.num_outputs:
            _reject_output_lengths(lengths, self.num_outputs)
        for n in lengths:
            if type(n) is not int or not 0 <= n <= MAX_FRAME:
                _reject_output_lengths(lengths, self.num_outputs)
        off = 2 * slot
        u64 = self._u64
        for meta, n in zip(self._tx_metas, lengths):
            u64[meta + off] = n | META_EOP
        # Retire the receive slot now. This is the only place its done bit is
        # cleared, so a later lap can never mistake this lap's completion for
        # a fresh delivery when the tail sits right on the slot.
        u64[rx] = 0
        self._inflight = False
        p = self.processed + 1
        self.processed = p
        # recycle points are flush points: the recycle period is a multiple
        if not p % self.flush_period:
            self._flush()
            if not p % self.recycle_period:
                self.recycle()
        return True

    def _stalled(self, what: str) -> PipelineStalled:
        """The PipelineStalled that finish() and forward_trace raise, worded
        as finish()'s docstring says: "step N: what: " and each queue whose
        lag (_lags) is non-zero."""
        p = self.processed & self._mask
        nic = self.nic
        lags = []
        for q, (h, lag) in enumerate(zip(self._heads, self._lags())):
            if lag:
                state = ("has reached its tail (a lost head write-back)"
                         if nic.reg_read("TDH", q) == nic.reg_read("TDT", q)
                         else "has not reached its tail (a stopped queue)")
                lags.append(f"queue {q}'s head write-back reads slot {h}, not slot {p} "
                            f"(processed {self.processed}), and its device head {state}")
        report = "; ".join(lags) or "no transmit queue's head write-back lags processed"
        return PipelineStalled(f"step {nic.now}: {what}: {report}")

    def _lags(self) -> list[int]:
        """Per queue, the published transmit descriptors its head write-back
        word h does not show retired: (processed - h) & (ring_size - 1).
        Every reader of the words but recycle() takes them from here."""
        p, mask = self.processed, self._mask
        return [(p - h) & mask for h in self._heads]

    def _owed(self) -> int:
        """The work units a device can still spend before quiescence, with
        every processed packet published and none outstanding: one per frame
        on the wire and one per published transmit descriptor that the head
        write-back does not show retired."""
        return len(self.nic.link.rx_pending) + sum(self._lags())

    def quiescent(self) -> bool:
        """True when nothing is outstanding and every queue's head write-back
        has reached processed, which implies every packet was published."""
        return not self._inflight and not any(self._lags())

    def finish(self, device_budget: int = 1) -> None:
        """Publish everything still pending and step the device until it drains.

        Raises PipelineStalled, "submitted packets can never drain", if a
        step retires nothing first: without software action no later step
        could retire anything either. Raises it too once the device has
        spent more work units than draining can take, counted when finish
        starts: one per published transmit descriptor that the head
        write-back does not show retired, and one per frame on the wire. A
        device that keeps retiring while no head write-back reaches
        processed would otherwise be stepped forever. Every PipelineStalled
        message, here and in forward_trace, reads "step N: <what cannot
        happen>: " and then names each queue whose head write-back lags
        processed and says whether its device head has reached its tail
        (the write-back was lost) or not (the queue is stopped). Raises
        ValueError, before publishing anything, for a device_budget that is
        not an integer of at least 1.
        """
        _check_int(device_budget, "device budget", 1)
        self._flush()
        nic = self.nic
        left = self._owed()
        while not self.quiescent():
            worked = nic.step_device(device_budget)
            left -= worked
            if not worked or left < 0:
                raise self._stalled("submitted packets can never drain")
        self.recycle()

    def run(self, processor: Processor, max_packets: int, device_budget: int = 1) -> int:
        """Forward frames already on the wire, then drain all submitted work.

        The forward_trace loop with nothing to inject: stops after
        max_packets packets, or once the wire is empty and every delivered
        packet has been forwarded. Returns the number of packets processed
        by this call.
        """
        count = forward_trace(self, (), processor, device_budget, max_packets=max_packets)
        self.finish(device_budget)
        return count


def build_pipeline(ring_size: int, num_outputs: int = 1,
                   flush_period: int = FLUSH_PERIOD,
                   recycle_period: int = RECYCLE_PERIOD) -> tuple[MemEnv, Nic, Agent]:
    """A fresh environment, device and agent over an arena sized to fit them.

    The arena holds the descriptor rings, one buffer per slot and the head
    write-back words, plus one page of rounding slack per allocated region.
    """
    _check_geometry(ring_size, num_outputs)
    need = ((1 + num_outputs) * ring_size * DESC_BYTES
            + ring_size * MAX_FRAME + 4 * num_outputs)
    env = MemEnv(arena_size=need + (3 + num_outputs) * DEFAULT_PAGE_SIZE)
    nic = Nic(env, num_outputs)
    return env, nic, Agent(env, nic, ring_size, num_outputs, flush_period, recycle_period)


def _reject_length(slot: int, n: int) -> None:
    raise ValueError(f"receive slot {slot}: the device reports length {n}, above "
                     f"MAX_FRAME ({MAX_FRAME})")


def _reject_output_lengths(lengths: Sequence[int], num_outputs: int) -> None:
    """Raise ValueError unless lengths holds num_outputs integers in
    [0, MAX_FRAME]: for a count other than num_outputs first, then for the
    first bad length. This is the output-length rule; poll() calls it only
    once its inline tests found a fault, RefPipeline on every result."""
    if len(lengths) != num_outputs:
        raise ValueError(f"need {num_outputs} lengths, got {len(lengths)}")
    for q, n in enumerate(lengths):
        if type(n) is not int or not 0 <= n <= MAX_FRAME:
            raise ValueError(f"output {q}: length {n!r} is not an integer "
                             f"in [0, {MAX_FRAME}]")


def forward_trace(agent: Agent, frames: Sequence[Frame], processor: Processor,
                  device_budget: int = 1, *, due: Sequence[int] | None = None,
                  deadline: int | None = None, max_packets: int | None = None) -> int:
    """The lockstep driver loop: inject what is due, step the device, poll.

    With due None, injection is flow-controlled: the next frame enters the
    wire only when the previous one has been taken off it and a
    device-owned receive slot is free, so the device never drops for lack
    of descriptors, whatever the ring size. Otherwise frame k enters the
    wire at step due[k] (non-decreasing), whether or not the ring has room.

    Runs until every frame is off the wire, every delivered packet has been
    processed and the agent is quiescent; stops early when the clock
    reaches deadline or after max_packets packets. max_packets 0 returns 0
    without stepping. Returns the number of packets processed.

    The loop skips steps in which nothing can happen. After an empty poll
    it checks its own end condition: the wire is empty, every delivered
    packet has been processed and the agent is quiescent. Then the device
    owns no descriptor with work on it and that poll already published
    and recycled, so every later step is unchanged until a frame enters.
    The loop stops if no frame is left; with due given it moves the clock
    straight to the next due frame (or to deadline, if that comes first).
    A poll that files a packet never leaves the agent quiescent, so the
    check runs only after empty polls.

    The check reads no head write-back word: the poll has just recycled,
    unless the receive tail already sat at its bound. Recycling leaves the
    receive tail at max(tail, earliest head - 1 + ring_size), heads only
    move forward and never pass processed, and no tail exceeds
    processed - 1 + ring_size; so right after it the tail sits at that
    bound exactly when every head has reached processed, which with
    nothing outstanding is quiescent(). Every
    delivered packet has been processed too: had the device delivered the
    packet at processed, its done bit would still be set and the poll
    would not have come up empty.

    Short of quiescence, two steps in a row in which the device retires
    nothing and the poll finds nothing also leave every later step
    unchanged, as when a stopped transmit queue holds packets back. After
    the second such dead step the loop jumps to the next due frame the
    same way, or, when no frame is still to enter on a schedule (due is
    None, or every frame is injected), raises PipelineStalled: "nothing
    can move". On every other step after an empty poll short of
    quiescence with no frame still to enter on a schedule, the loop bounds
    the work units the device spends while processed stands still, with
    finish()'s figure taken at the first empty poll after processed last
    moved: that poll published everything, so until processed moves the
    device can spend one unit per frame then on the wire and one per
    published descriptor the head write-back does not show retired. A
    frame that enters later under flow control finds a free receive slot,
    and the step that receives it is followed by a poll that files it;
    such steps are not counted. A device that spends more, by retiring
    while no head write-back reaches processed, raises PipelineStalled:
    "submitted packets can never drain". Both messages are worded as
    finish()'s. A poll that files a packet pays nothing for the count.

    Raises ValueError, before anything is injected or the clock moves, for
    a device_budget that is not an integer of at least 1, a deadline or
    max_packets that is not None or an integer of at least 0, or a due
    whose length is not len(frames) or that holds an entry that is not an
    integer (a bool included) or is smaller than the entry before it; the
    message names the first such entry.
    """
    _check_int(device_budget, "device budget", 1)
    if due is not None:
        if len(due) != len(frames):
            raise ValueError(f"due has {len(due)} entries for {len(frames)} frames")
        for k, d in enumerate(due):
            if type(d) is not int or k and d < due[k - 1]:
                raise ValueError(f"due[{k}] is {d!r}: each entry must be an integer, not "
                                 f"a bool, and no smaller than the entry before it")
    if deadline is not None:
        _check_int(deadline, "deadline", 0)
    if max_packets is not None:
        _check_int(max_packets, "max_packets", 0)
        if not max_packets:
            return 0
    nic = agent.nic
    step, poll = nic.step_device, agent.poll
    link = nic.link
    wire = link.rx_pending
    reach = agent.ring_size - 1  # the receive tail never passes processed + reach
    n = len(frames)
    k = 0
    nxt = due[0] if due else 0  # with due given, the due step of frame k
    count = 0
    idle = False  # the last step retired nothing and its poll found nothing
    mark = -1     # processed when the work bound was last set
    left = 0      # work units the device may still spend before processed moves
    while deadline is None or nic.now < deadline:
        if k < n:
            if due is None:
                # rx_delivered is the receive head unwrapped: this is RDH != RDT
                if not wire and link.rx_delivered != agent._rdt_unwrapped:
                    nic.inject_rx(frames[k])
                    k += 1
            else:
                while nxt <= nic.now:
                    nic.inject_rx(frames[k])
                    k += 1
                    if k == n:
                        break
                    nxt = due[k]
        worked = step(device_budget)
        if poll(processor):
            count += 1
            if count == max_packets:
                break
            idle = False
            continue  # a packet was just filed, so the agent is not quiescent
        if not wire and agent._rdt_unwrapped == agent.processed + reach:
            if k == n:
                break
        elif worked or not idle:  # not the second dead step in a row
            if due is None or k == n:
                # no frame is still to enter on a schedule: bound the work units
                # spent while processed stands still
                if agent.processed != mark:
                    mark = agent.processed
                    left = agent._owed()
                else:
                    left -= worked
                    if left < 0:
                        raise agent._stalled("submitted packets can never drain")
            idle = not worked
            continue
        elif due is None or k == n:
            raise agent._stalled(f"nothing can move with {agent.processed} packets "
                                 f"processed and {n - k} frames not injected")
        # nothing can move until a frame enters; a flow-controlled one enters next step
        if due is not None:
            nic.now = nxt if deadline is None or nxt < deadline else deadline
        idle = False
    return count
