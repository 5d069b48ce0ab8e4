package sim

import (
	"container/heap"
	"math/rand/v2"
	"testing"
)

// refEvent and refQueue are the container/heap event queue the typed
// heap replaced, kept as the ordering oracle.
type refEvent struct {
	at    Time
	seq   uint64
	id    int
	index int
	dead  bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	old[len(old)-1] = nil
	e.index = -1
	*q = old[:len(old)-1]
	return e
}

// TestTypedHeapMatchesContainerHeap drives the engine and the reference
// queue through the same random pushes, cancels and steps and requires
// the same firing order and the same Cancel results, including Cancel
// on events that already fired.
func TestTypedHeapMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewPCG(seed, 7))
		e := New()
		var ref refQueue
		var refNow Time
		var refSeq uint64
		var handles []Handle
		var refs []*refEvent
		var got, want []int
		for op := 0; op < 5000; op++ {
			switch k := r.IntN(10); {
			case k < 5: // push; small time range forces many ties
				id := len(handles)
				at := e.Now() + Time(r.IntN(8))
				handles = append(handles, e.At(at, func() { got = append(got, id) }))
				re := &refEvent{at: at, seq: refSeq, id: id}
				refSeq++
				heap.Push(&ref, re)
				refs = append(refs, re)
			case k < 7 && len(handles) > 0: // cancel anything, pending or not
				i := r.IntN(len(handles))
				re := refs[i]
				wantOK := !re.dead && re.index >= 0
				if wantOK {
					re.dead = true
				}
				if ok := handles[i].Cancel(); ok != wantOK {
					t.Fatalf("seed %d op %d: Cancel(%d) = %v, want %v", seed, op, i, ok, wantOK)
				}
			default: // step
				stepped := e.Step()
				refStepped := false
				for ref.Len() > 0 {
					re := heap.Pop(&ref).(*refEvent)
					if re.dead {
						continue
					}
					refNow = re.at
					want = append(want, re.id)
					refStepped = true
					break
				}
				if stepped != refStepped || e.Now() != refNow {
					t.Fatalf("seed %d op %d: Step = %v at %v, want %v at %v", seed, op, stepped, e.Now(), refStepped, refNow)
				}
			}
		}
		for e.Step() {
		}
		for ref.Len() > 0 {
			if re := heap.Pop(&ref).(*refEvent); !re.dead {
				want = append(want, re.id)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing order diverges at %d: %d, want %d", seed, i, got[i], want[i])
			}
		}
		for i, h := range handles {
			if h.Cancel() {
				t.Fatalf("seed %d: Cancel(%d) after the queue drained returned true", seed, i)
			}
		}
	}
}

// TestCancelInsideOwnCallback: an event that is running has fired, so
// cancelling it from its own callback reports false.
func TestCancelInsideOwnCallback(t *testing.T) {
	e := New()
	var h Handle
	var ok bool
	h = e.At(5, func() { ok = h.Cancel() })
	e.Run()
	if ok {
		t.Fatal("Cancel from the event's own callback returned true")
	}
}

// BenchmarkEngineStep measures one Step on a queue holding about 1024
// pending events: a pop, the callback, and the push of its successor.
func BenchmarkEngineStep(b *testing.B) {
	e := New()
	r := rand.New(rand.NewPCG(1, 2))
	delays := make([]Time, 4096)
	for i := range delays {
		delays[i] = Time(r.IntN(int(10 * Millisecond)))
	}
	n := 0
	var fn func()
	fn = func() {
		n++
		e.After(delays[n%len(delays)], fn)
	}
	for i := 0; i < 1024; i++ {
		e.After(delays[i], fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
