// Package sim is a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock in microseconds and a binary heap of
// pending events. Events scheduled for the same instant fire in the order
// they were scheduled (ties broken by a monotone sequence number), which
// makes runs bit-reproducible given the same seed and schedule.
package sim

import "fmt"

// Time is a virtual timestamp in microseconds since the start of the run.
type Time int64

// Common durations expressed in Time units.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String renders the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%dµs", int64(t))
	}
}

// FromSeconds converts floating-point seconds to Time, rounding to the
// nearest microsecond.
func FromSeconds(s float64) Time { return Time(s*float64(Second) + 0.5) }

// event is one pending callback.
type event struct {
	fn   func()
	dead bool // cancelled, or already popped off the queue
}

// slot is one queue entry. The (at, seq) ordering key sits in the heap
// array itself, so sifting compares without dereferencing any event.
type slot struct {
	at  Time
	seq uint64
	ev  *event
}

// before orders slots by (at, seq): time first, then scheduling order.
func (s *slot) before(o *slot) bool {
	return s.at < o.at || (s.at == o.at && s.seq < o.seq)
}

// eventQueue is a binary min-heap of slots ordered by (at, seq). It is
// typed rather than built on container/heap so that nothing is boxed
// into an interface and the comparison inlines.
type eventQueue []slot

// push adds s, sifting it up from the end.
func (q *eventQueue) push(s slot) {
	h := append(*q, s)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = s
	*q = h
}

// pop removes and returns the earliest slot; the queue must be
// non-empty. The last slot fills the root's hole and sifts down.
func (q *eventQueue) pop() slot {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = slot{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	*q = h
	return top
}

// Engine runs events in virtual-time order. It is not safe for concurrent
// use; all simulated components run on the engine's single logical thread.
type Engine struct {
	now    Time
	seq    uint64
	queue  eventQueue
	fired  uint64
	halted bool
}

// New returns an engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return len(e.queue) }

// Handle identifies a scheduled event and allows cancellation.
type Handle struct{ ev *event }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was
// still pending.
func (h Handle) Cancel() bool {
	if h.ev == nil || h.ev.dead {
		return false
	}
	h.ev.dead = true
	return true
}

// At schedules fn to run at absolute time at. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(at Time, fn func()) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	ev := &event{fn: fn}
	e.queue.push(slot{at: at, seq: e.seq, ev: ev})
	e.seq++
	return Handle{ev}
}

// After schedules fn to run delay from now.
func (e *Engine) After(delay Time, fn func()) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// Every schedules fn to run now+delay and then every period until the
// returned Ticker is stopped.
func (e *Engine) Every(delay, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.handle = e.After(delay, t.tick)
	return t
}

// Ticker is a repeating event created by Every.
type Ticker struct {
	engine  *Engine
	period  Time
	fn      func()
	handle  Handle
	stopped bool
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped { // fn may have stopped the ticker
		t.handle = t.engine.After(t.period, t.tick)
	}
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	t.handle.Cancel()
}

// Halt stops the current Run/RunUntil after the in-flight event returns.
func (e *Engine) Halt() { e.halted = true }

// Step executes the next pending event, advancing the clock. It reports
// whether an event ran.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		s := e.queue.pop()
		ev := s.ev
		if ev.dead {
			continue
		}
		ev.dead = true
		e.now = s.at
		e.fired++
		fn := ev.fn
		ev.fn = nil // a Handle may outlive the event; don't pin the closure
		fn()
		return true
	}
	return false
}

// RunUntil executes events until the queue is empty or the next event is
// after deadline; the clock then advances to deadline (never backwards).
func (e *Engine) RunUntil(deadline Time) {
	e.halted = false
	for !e.halted {
		// Skip dead events at the head so their timestamps don't gate us.
		for len(e.queue) > 0 && e.queue[0].ev.dead {
			e.queue.pop()
		}
		if len(e.queue) == 0 || e.queue[0].at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run executes events until the queue drains or Halt is called.
func (e *Engine) Run() {
	e.halted = false
	for !e.halted && e.Step() {
	}
}
