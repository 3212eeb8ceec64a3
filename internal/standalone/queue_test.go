package standalone

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// queuedRef is one packet of the plain-slice model of a spktQueue, with
// the index the queue holds it at.
type queuedRef struct {
	age int64
	key uint64
	dst uint8
	idx int
}

// runQueueOps applies ops to a fresh queue and to a slice of its live
// packets, checking the queue against the slice after every step, and
// returns how many pushes compacted. An even op pushes a packet unless
// the queue is full; an odd op removes the live packet at position op>>1
// modulo the queue's length, if any.
func runQueueOps(t testing.TB, capacity, window int, ops []byte) (compactions int) {
	t.Helper()
	n := queueLen(capacity)
	q := &spktQueue{
		age: make([]int64, n), key: make([]uint64, n), dst: make([]uint8, n),
		capacity: capacity, window: window,
	}
	var ref []queuedRef
	for step, op := range ops {
		where := fmt.Sprintf("cap %d window %d step %d op %d", capacity, window, step, op)
		switch {
		case op&1 == 0 && !q.full():
			p := queuedRef{age: int64(step), key: uint64(step)*7 + 1, dst: op | 1}
			atEnd := q.tail == n
			i, compacted := q.push(p.age, p.key, p.dst)
			if compacted != atEnd {
				t.Fatalf("%s: push compacted %v with tail at %d of %d", where, compacted, q.tail-1, n)
			}
			if compacted {
				// The live packets move to the front in order.
				compactions++
				for j := range ref {
					ref[j].idx = j
				}
			}
			p.idx = i
			ref = append(ref, p)
		case op&1 == 1 && len(ref) > 0:
			k := int(op>>1) % len(ref)
			want := -1
			if k < window && len(ref) > window {
				want = ref[window].idx
			}
			if got := q.remove(ref[k].idx); got != want {
				t.Fatalf("%s: removing position %d joined index %d, want %d", where, k, got, want)
			}
			ref = slices.Delete(ref, k, k+1)
		}
		checkQueue(t, q, ref, where)
	}
	return compactions
}

// checkQueue compares q with the slice of its live packets: their order,
// values and indexes, the count and full, the window holding the first
// window live packets, and head sitting on a live packet or at tail.
func checkQueue(t testing.TB, q *spktQueue, ref []queuedRef, where string) {
	t.Helper()
	if q.head < 0 || q.head > q.win || q.win > q.tail || q.tail > len(q.dst) {
		t.Fatalf("%s: head %d, win %d, tail %d out of order", where, q.head, q.win, q.tail)
	}
	if q.head != q.tail && q.dst[q.head] == 0 {
		t.Fatalf("%s: head %d sits on a hole", where, q.head)
	}
	var live []queuedRef
	inWindow := 0
	for i := q.head; i < q.tail; i++ {
		if q.dst[i] != 0 {
			live = append(live, queuedRef{q.age[i], q.key[i], q.dst[i], i})
			if i < q.win {
				inWindow++
			}
		}
	}
	if !slices.Equal(live, ref) {
		t.Fatalf("%s: live packets %v, want %v", where, live, ref)
	}
	if q.n != len(ref) || q.full() != (len(ref) == q.capacity) {
		t.Fatalf("%s: n %d full %v with %d of %d queued", where, q.n, q.full(), len(ref), q.capacity)
	}
	if want := min(len(ref), q.window); inWindow != want {
		t.Fatalf("%s: window holds %d live packets, want %d", where, inWindow, want)
	}
}

// TestStandaloneQueueMatchesSlice drives queues small enough to compact
// often through random pushes and removals, and through fixed sequences
// that leave holes behind and inside the window.
func TestStandaloneQueueMatchesSlice(t *testing.T) {
	fixed := [][]byte{
		// Fill, then remove behind the window, then inside it.
		{0, 0, 0, 0, 0, 0, 9, 7, 1, 1, 1, 1},
		// Remove the head repeatedly while pushing: head steps over holes.
		{0, 0, 0, 3, 1, 0, 0, 1, 1, 0, 0, 0, 1, 3, 5},
		// Empty the queue, then push again.
		{0, 0, 1, 1, 0, 1},
	}
	for _, capacity := range []int{1, 2, 3, 5, 8} {
		for _, window := range []int{1, 3, capacity} {
			t.Run(fmt.Sprintf("cap=%d/window=%d", capacity, window), func(t *testing.T) {
				for _, ops := range fixed {
					runQueueOps(t, capacity, window, ops)
				}
				rng := rand.New(rand.NewSource(int64(capacity*100 + window)))
				ops := make([]byte, 4000)
				for i := range ops {
					// Push three times in five, so the queue runs near full.
					if op := byte(rng.Intn(256)); rng.Intn(5) < 3 {
						ops[i] = op &^ 1
					} else {
						ops[i] = op | 1
					}
				}
				if compactions := runQueueOps(t, capacity, window, ops); capacity > 1 && compactions == 0 {
					t.Fatal("no push compacted")
				}
			})
		}
	}
}

// FuzzStandaloneQueue checks arbitrary sequences of pushes and removals
// against the slice model, with capacities 1 to 8 and windows of 1, 3 and
// the capacity.
func FuzzStandaloneQueue(f *testing.F) {
	f.Add(uint8(3), uint8(1), []byte{0, 0, 0, 0, 0, 9, 7, 1, 0, 0, 3, 1})
	f.Add(uint8(7), uint8(2), []byte{0, 2, 4, 6, 1, 3, 0, 0, 5, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, capacity, window uint8, ops []byte) {
		c := 1 + int(capacity%8)
		runQueueOps(t, c, []int{1, 3, c}[window%3], ops)
	})
}
