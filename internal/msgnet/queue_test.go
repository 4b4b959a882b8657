package msgnet

import (
	"testing"

	"leanconsensus/internal/xrand"
)

// refEvent and refHeap are the network's previous event queue, kept as
// the reference the key heap is checked against: a binary heap of whole
// events, ordered by (t, seq), swapped level by level.
type refEvent struct {
	t   float64
	seq int64
	msg Message
}

type refHeap []refEvent

func (h refHeap) less(a, b refEvent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (h *refHeap) push(ev refEvent) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *refHeap) pop() refEvent {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i, n := 0, last
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less((*h)[l], (*h)[small]) {
			small = l
		}
		if r < n && h.less((*h)[r], (*h)[small]) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

// checkQueue replays ops against a fresh eventQueue and the reference
// heap and fails on the first pop where they differ. A byte below 160
// pushes a message at one of 16 delivery times (so equal times are
// common and only the sequence number orders them); any other byte pops,
// when the queue is not empty. Both queues are drained at the end. The
// sequence runs twice, the second time on the same queue after reset, so
// the pooled slab and free list are exercised too.
func checkQueue(t *testing.T, ops []byte) {
	t.Helper()
	var q eventQueue
	for pass := 0; pass < 2; pass++ {
		q.reset(0)
		var ref refHeap
		var seq int64
		pop := func(step int) {
			gotT, gotMsg := q.pop()
			want := ref.pop()
			if gotT != want.t || gotMsg != want.msg {
				t.Fatalf("pass %d step %d: popped (t=%g, %+v), reference popped (t=%g, seq=%d, %+v)",
					pass, step, gotT, gotMsg, want.t, want.seq, want.msg)
			}
		}
		for step, b := range ops {
			if b < 160 {
				m := Message{From: int(b), To: step}
				tt := float64(b%16) / 4
				seq++
				q.push(tt, m)
				ref.push(refEvent{t: tt, seq: seq, msg: m})
			} else if len(ref) > 0 {
				pop(step)
			}
			if len(q.keys) != len(ref) {
				t.Fatalf("pass %d step %d: queue holds %d, reference %d", pass, step, len(q.keys), len(ref))
			}
		}
		for step := len(ops); len(ref) > 0; step++ {
			pop(step)
		}
		if len(q.keys) != 0 {
			t.Fatalf("pass %d: queue holds %d after the reference drained", pass, len(q.keys))
		}
	}
}

// TestEventQueueMatchesBinaryHeap drives the key heap and the reference
// binary heap through seeded random push/pop sequences with forced equal
// delivery times and requires the identical pop order.
func TestEventQueueMatchesBinaryHeap(t *testing.T) {
	for seed := uint64(0); seed < 2000; seed++ {
		rng := xrand.New(seed, 0x71)
		ops := make([]byte, 1+rng.Intn(600))
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		checkQueue(t, ops)
	}
}

// FuzzNetQueue is the same property as TestEventQueueMatchesBinaryHeap
// under the fuzzer; the seed corpus below runs in plain go test.
func FuzzNetQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{3, 19, 35, 51, 200, 3, 200, 200, 200})
	f.Add([]byte{15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 255, 255})
	f.Add([]byte{1, 17, 33, 49, 65, 81, 97, 113, 129, 145, 250, 1, 17, 250, 250, 33})
	f.Fuzz(checkQueue)
}
