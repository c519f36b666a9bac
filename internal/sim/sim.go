// Package sim is a deterministic discrete-event simulation engine: a
// monotonic virtual clock, a binary-heap event queue with stable FIFO
// ordering for simultaneous events, and named deterministic RNG streams so
// that adding a new source of randomness never perturbs existing ones.
//
// It underpins the network-level experiments (the event-driven flow
// simulator and the co-simulations on top of it). Links are not scheduled
// on it: every link harness is stepped superframe by superframe and only
// borrows Time for its clock.
package sim

import (
	"container/heap"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// Time is simulation time in seconds.
type Time float64

// Millisecond is the one duration unit a caller spells out.
const Millisecond Time = 1e-3

// String renders the time with a convenient unit.
func (t Time) String() string {
	switch v := float64(t); {
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.6gs", v)
	case math.Abs(v) >= 1e-3:
		return fmt.Sprintf("%.6gms", v*1e3)
	case math.Abs(v) >= 1e-6:
		return fmt.Sprintf("%.6gus", v*1e6)
	case v == 0:
		return "0s"
	default:
		return fmt.Sprintf("%.6gns", v*1e9)
	}
}

// Event is a scheduled callback.
type event struct {
	at       Time
	seq      uint64 // tie-break: FIFO among simultaneous events
	fn       func()
	canceled *bool
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulator. Not safe for
// concurrent use — determinism is the point.
type Engine struct {
	now   Time
	queue eventQueue
	seq   uint64
	seed  int64
	rngs  map[string]*rand.Rand
}

// NewEngine returns an engine whose named RNG streams derive from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed, rngs: make(map[string]*rand.Rand)}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Canceler cancels a scheduled event when called. Calling it after the
// event has fired is a harmless no-op.
type Canceler func()

// Schedule runs fn at absolute time at. Scheduling in the past panics —
// that is always a model bug.
func (e *Engine) Schedule(at Time, fn func()) Canceler {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	canceled := new(bool)
	ev := &event{at: at, seq: e.seq, fn: fn, canceled: canceled}
	e.seq++
	heap.Push(&e.queue, ev)
	return func() { *canceled = true }
}

// After runs fn after delay d from now.
func (e *Engine) After(d Time, fn func()) Canceler {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.Schedule(e.now+d, fn)
}

// Step executes the next event. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*event)
		if *ev.canceled {
			continue
		}
		e.now = ev.at
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time <= deadline; the clock then advances
// to the deadline (if it hasn't passed it already).
func (e *Engine) RunUntil(deadline Time) {
	for len(e.queue) > 0 {
		// Peek.
		next := e.queue[0]
		if *next.canceled {
			heap.Pop(&e.queue)
			continue
		}
		if next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RNG returns the deterministic random stream for the given name, creating
// it on first use. Streams with different names are independent; the same
// name always yields the same sequence for a given engine seed.
func (e *Engine) RNG(name string) *rand.Rand {
	if r, ok := e.rngs[name]; ok {
		return r
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	r := rand.New(rand.NewSource(e.seed ^ int64(h.Sum64())))
	e.rngs[name] = r
	return r
}
