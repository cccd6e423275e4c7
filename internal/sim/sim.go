// Package sim provides a deterministic discrete-event simulation kernel.
//
// It plays the role gem5's event queue plays in the paper's methodology:
// hardware components schedule callbacks at future ticks (1 tick = 1 clock
// cycle at the system frequency) and the engine executes them in time order.
// Ties are broken by insertion order, which makes every simulation fully
// deterministic for a given seed and schedule sequence.
//
// The kernel is built to be allocation-free on its hot path:
//
//   - The pending queue is an intrusive 4-ary min-heap over *Event — no
//     container/heap, no `any` boxing, sift loops written out so the
//     comparison inlines.
//   - Callbacks are a one-method Handler interface instead of func(), so a
//     component can implement Fire on a long-lived state-machine struct and
//     reuse one pre-allocated Event (NewEvent + Reschedule) forever.
//   - One-shot Schedule/ScheduleAt calls draw their Event from a free list
//     on the Engine and return it there after firing, so steady-state
//     scheduling does not touch the garbage collector at all.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Ticks is a point in simulated time, measured in clock cycles.
type Ticks uint64

// MaxTicks is the largest representable simulation time.
const MaxTicks = Ticks(math.MaxUint64)

// Handler is a scheduled callback target. Components implement Fire on a
// long-lived struct so one pre-allocated Event can drive a whole state
// machine without per-cycle closure allocations.
type Handler interface {
	Fire()
}

// HandlerFunc adapts an ordinary func() to Handler. func values are
// pointer-shaped, so the interface conversion itself does not allocate;
// only closures that capture variables do.
type HandlerFunc func()

// Fire implements Handler.
func (f HandlerFunc) Fire() { f() }

const (
	// eventPooled marks events owned by the engine's free list; they are
	// recycled after firing.
	eventPooled uint8 = 1 << iota
	// eventFree marks a pooled event currently sitting in the free list.
	// Scheduling one is always a use-after-recycle bug.
	eventFree
)

// Event is a scheduled callback. Component-owned events come from NewEvent
// and may be scheduled, descheduled, and rescheduled indefinitely; events
// returned by the engine's one-shot Schedule calls belong to the engine's
// pool and must not be retained after they fire.
type Event struct {
	h    Handler
	when Ticks
	seq  uint64
	// next links the engine free list (pooled events only).
	next *Event
	// index within the heap, -1 when not scheduled.
	index int32
	flags uint8
}

// NewEvent returns an unscheduled, component-owned event bound to h.
// Reusing one event per state machine keeps scheduling allocation-free.
func NewEvent(h Handler) *Event {
	if h == nil {
		panic("sim: NewEvent with nil handler")
	}
	return &Event{h: h, index: -1}
}

// When returns the tick at which the event is scheduled to fire.
func (e *Event) When() Ticks { return e.when }

// Scheduled reports whether the event is currently in the queue.
func (e *Event) Scheduled() bool { return e != nil && e.index >= 0 }

// Engine is the simulation event loop. It is not safe for concurrent use;
// all components of one simulated system share a single Engine and run on
// one goroutine, exactly like SimObjects share gem5's event queue.
type Engine struct {
	now      Ticks
	seq      uint64
	heap     []*Event
	free     *Event
	executed uint64
	// stopErr, when set, aborts Run.
	stopErr error
	// intr, when attached, is polled every pollEvery executed events so
	// external cancellation (context, watchdog, signal) can stop the loop
	// without the hot path paying for an atomic load per event.
	intr      *Interrupt
	pollEvery uint64
	sincePoll uint64
}

// initialQueueCap pre-sizes the queue so steady-state simulations never pay
// for heap-slice growth.
const initialQueueCap = 1024

// NewEngine returns an empty engine at tick zero.
func NewEngine() *Engine {
	return &Engine{heap: make([]*Event, 0, initialQueueCap)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Ticks { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.heap) }

// NextWhen returns the tick of the earliest pending event and whether one
// exists. Clusters use it to compute the next conservative time window
// without popping the queue.
func (e *Engine) NextWhen() (Ticks, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].when, true
}

// Reset returns the engine to tick zero with an empty queue, keeping the
// queue capacity and the event pool so harness jobs can reuse one engine
// across sweep cells without reallocating.
func (e *Engine) Reset() {
	for i, ev := range e.heap {
		ev.index = -1
		if ev.flags&eventPooled != 0 {
			e.release(ev)
		}
		e.heap[i] = nil
	}
	e.heap = e.heap[:0]
	e.now = 0
	e.seq = 0
	e.executed = 0
	e.stopErr = nil
	e.sincePoll = 0
}

// SetInterrupt attaches a cooperative-stop interrupt polled once per
// pollEvery executed events (0 selects DefaultPollEvents). Each poll
// pulses the interrupt (feeding any watchdog) and, if it has tripped,
// aborts Run with the trip cause. A nil interrupt detaches. Polling never
// mutates simulation state, so attaching one cannot change results.
func (e *Engine) SetInterrupt(i *Interrupt, pollEvery uint64) {
	if pollEvery == 0 {
		pollEvery = DefaultPollEvents
	}
	e.intr = i
	e.pollEvery = pollEvery
	e.sincePoll = 0
}

// --- event pool ---------------------------------------------------------

func (e *Engine) acquire() *Event {
	ev := e.free
	if ev == nil {
		return &Event{index: -1, flags: eventPooled}
	}
	e.free = ev.next
	ev.next = nil
	ev.flags = eventPooled
	return ev
}

func (e *Engine) release(ev *Event) {
	ev.h = nil
	ev.flags = eventPooled | eventFree
	ev.next = e.free
	e.free = ev
}

// --- scheduling ---------------------------------------------------------

// Schedule enqueues a one-shot firing of h delay ticks from now. The
// returned event comes from the engine's pool: it may be descheduled while
// pending, but must not be retained after it fires — use NewEvent for
// events that are reused.
func (e *Engine) Schedule(delay Ticks, h Handler) *Event {
	return e.ScheduleAt(e.now+delay, h)
}

// ScheduleAt is Schedule at an absolute tick. Scheduling in the past
// panics: it is always a component bug.
func (e *Engine) ScheduleAt(when Ticks, h Handler) *Event {
	if when < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", when, e.now))
	}
	if h == nil {
		panic("sim: schedule nil handler")
	}
	ev := e.acquire()
	ev.h = h
	e.push(ev, when)
	return ev
}

// ScheduleEvent enqueues a component-owned event delay ticks from now.
func (e *Engine) ScheduleEvent(ev *Event, delay Ticks) {
	e.ScheduleEventAt(ev, e.now+delay)
}

// ScheduleEventAt enqueues a component-owned event at an absolute tick.
// The event must not already be scheduled (use Reschedule to move one).
func (e *Engine) ScheduleEventAt(ev *Event, when Ticks) {
	if when < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", when, e.now))
	}
	if ev.index >= 0 {
		panic("sim: ScheduleEventAt on an already-scheduled event")
	}
	if ev.flags&eventFree != 0 {
		panic("sim: schedule of a recycled pooled event")
	}
	if ev.h == nil {
		panic("sim: schedule event with nil handler")
	}
	e.push(ev, when)
}

// Deschedule removes a pending event. Descheduling an unscheduled event is
// a no-op so callers can cancel idempotently.
func (e *Engine) Deschedule(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	e.removeAt(int(ev.index))
	// A canceled one-shot goes straight back to the pool; reviving it
	// afterwards is a use-after-recycle bug the eventFree guard catches.
	if ev.flags&eventPooled != 0 {
		e.release(ev)
	}
}

// Reschedule moves a pending event (or revives a fired one) to a new
// absolute time. A still-pending event keeps its insertion rank; a revived
// one is ranked as a fresh insertion, exactly like the pre-pool kernel.
func (e *Engine) Reschedule(ev *Event, when Ticks) {
	if when < e.now {
		panic(fmt.Sprintf("sim: reschedule at %d before now %d", when, e.now))
	}
	if ev.flags&eventFree != 0 {
		panic("sim: reschedule of a recycled pooled event")
	}
	if ev.index >= 0 {
		ev.when = when
		e.fix(int(ev.index))
		return
	}
	e.push(ev, when)
}

// --- intrusive 4-ary min-heap -------------------------------------------
//
// A 4-ary layout halves tree depth versus binary, trading slightly wider
// sibling scans (which hit one cache line) for fewer cache-missing levels —
// the standard event-queue trade. Ordering is (when, seq): seq is unique,
// so the comparator is a total order and pop order is independent of heap
// shape, which is what keeps the queue swap determinism-preserving.

func eventLess(a, b *Event) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

func (e *Engine) push(ev *Event, when Ticks) {
	ev.when = when
	ev.seq = e.seq
	e.seq++
	e.heap = append(e.heap, ev)
	e.siftUp(len(e.heap) - 1)
}

func (e *Engine) popMin() *Event {
	h := e.heap
	min := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.heap = h[:n]
	min.index = -1
	if n > 0 {
		h[0] = last
		last.index = 0
		e.siftDown(0)
	}
	return min
}

func (e *Engine) removeAt(i int) {
	h := e.heap
	n := len(h) - 1
	ev := h[i]
	last := h[n]
	h[n] = nil
	e.heap = h[:n]
	ev.index = -1
	if i == n {
		return
	}
	h[i] = last
	last.index = int32(i)
	e.fix(i)
}

func (e *Engine) fix(i int) {
	ev := e.heap[i]
	e.siftDown(i)
	if e.heap[i] == ev {
		e.siftUp(i)
	}
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = int32(i)
		i = p
	}
	h[i] = ev
	ev.index = int32(i)
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ev := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		if !eventLess(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].index = int32(i)
		i = m
	}
	h[i] = ev
	ev.index = int32(i)
}

// --- run loop -----------------------------------------------------------

// Stop aborts a Run in progress after the current event returns. The error
// is reported by Run; a nil err stops cleanly.
func (e *Engine) Stop(err error) {
	if err == nil {
		err = errStopped
	}
	e.stopErr = err
}

var errStopped = errors.New("sim: stopped")

// ErrMaxEvents is reported by Run when the event budget is exhausted.
var ErrMaxEvents = errors.New("sim: event budget exhausted")

// Run executes events until the queue is empty (global quiescence), the
// horizon is passed, the event budget is exhausted, or Stop is called.
// horizon and maxEvents of 0 mean unlimited. It returns the reason the run
// ended: nil for quiescence or horizon, ErrMaxEvents for budget exhaustion,
// or the Stop error.
func (e *Engine) Run(horizon Ticks, maxEvents uint64) error {
	if horizon == 0 {
		horizon = MaxTicks
	}
	for len(e.heap) > 0 {
		next := e.heap[0]
		if next.when > horizon {
			e.now = horizon
			return nil
		}
		e.popMin()
		e.now = next.when
		next.h.Fire()
		// Pooled one-shots recycle unless the handler re-armed them.
		if next.flags&eventPooled != 0 && next.index < 0 {
			e.release(next)
		}
		e.executed++
		if e.stopErr != nil {
			err := e.stopErr
			e.stopErr = nil
			if errors.Is(err, errStopped) {
				return nil
			}
			return err
		}
		if maxEvents > 0 && e.executed >= maxEvents {
			return ErrMaxEvents
		}
		if e.intr != nil {
			e.sincePoll++
			if e.sincePoll >= e.pollEvery {
				e.sincePoll = 0
				e.intr.Pulse()
				if err := e.intr.Err(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// RunUntilQuiet is Run with no horizon and the given event budget.
func (e *Engine) RunUntilQuiet(maxEvents uint64) error {
	return e.Run(0, maxEvents)
}

// Clock converts between ticks and wall-clock seconds at a fixed frequency.
type Clock struct {
	// HZ is the component frequency in cycles per second.
	HZ float64
}

// Seconds converts a tick count to seconds.
func (c Clock) Seconds(t Ticks) float64 { return float64(t) / c.HZ }

// TicksFor returns the number of whole ticks needed to transfer the given
// number of bytes at bytesPerSec, rounding up and never returning zero for
// a nonzero transfer. Integral rates (every preset in the repo) take an
// exact 128-bit ceil((bytes*HZ)/bps) path, so multi-terabyte transfers do
// not lose ticks to float64 rounding; fractional rates fall back to the
// float path.
func (c Clock) TicksFor(bytes int, bytesPerSec float64) Ticks {
	if bytes <= 0 {
		return 0
	}
	hz := uint64(c.HZ)
	bps := uint64(bytesPerSec)
	if bps > 0 && float64(hz) == c.HZ && float64(bps) == bytesPerSec {
		hi, lo := bits.Mul64(uint64(bytes), hz)
		lo, carry := bits.Add64(lo, bps-1, 0)
		hi += carry
		if hi >= bps {
			return MaxTicks
		}
		t, _ := bits.Div64(hi, lo, bps)
		if t == 0 {
			t = 1
		}
		return Ticks(t)
	}
	t := Ticks(math.Ceil(float64(bytes) / bytesPerSec * c.HZ))
	if t == 0 {
		t = 1
	}
	return t
}
