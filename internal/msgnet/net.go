// Package msgnet answers the paper's Section 10 question "can a noisy
// scheduling assumption be used to solve consensus quickly in an
// asynchronous message-passing model?" constructively: it provides an
// asynchronous message-passing network with noisy delivery delays and
// crash failures, an ABD-style emulation of multi-writer multi-reader
// atomic registers over that network (Attiya-Bar-Noy-Dolev), and a driver
// that runs the unchanged lean-consensus state machines on top of the
// emulated registers.
//
// The network is a discrete-event simulation: each message is delivered
// at send time + link delay + noise, with noise drawn i.i.d. from a
// configurable distribution — the message-passing analogue of the noisy
// scheduling model. Crashed processes stop sending, receiving and
// stepping; the ABD emulation tolerates any minority of crashes.
package msgnet

import (
	"errors"
	"fmt"
	"math/rand"

	"leanconsensus/internal/dist"
	"leanconsensus/internal/xrand"
)

// Message is a payload in flight. Payloads are package-defined structs;
// the network treats them opaquely.
type Message struct {
	From, To int
	Payload  any
}

// Node is a participant in the network. Handlers return messages to send;
// the network assigns delivery times.
type Node interface {
	// Start is called once at the node's (dithered) start time.
	Start() []Message
	// Receive handles one delivered message.
	Receive(msg Message) []Message
	// Done reports whether the node has finished its work; the simulation
	// stops when every live node is done (or no messages remain).
	Done() bool
}

// Config describes a network simulation.
type Config struct {
	// Nodes are the participants; index = process id.
	Nodes []Node
	// Delay is the noise distribution on message delivery (required).
	Delay dist.Distribution
	// LinkDelay, when non-nil, adds a deterministic per-link delay
	// (adversary analogue of the Δ terms).
	LinkDelay func(from, to int) float64
	// CrashAt, when non-nil, holds the simulated time at which each
	// process crashes, indexed by process id (negative, or beyond the
	// slice = never). Crashed processes neither send nor receive after
	// that time.
	CrashAt []float64
	// Seed fixes all randomness.
	Seed uint64
	// MaxMessages aborts runaway simulations (0 = generous default).
	MaxMessages int64
	// DitherScale perturbs node start times (0 selects 1e-8).
	DitherScale float64
}

// Result summarizes a network run.
type Result struct {
	// Delivered counts delivered messages.
	Delivered int64
	// Dropped counts messages lost to crashed endpoints.
	Dropped int64
	// Time is the simulated time of the last event.
	Time float64
	// AllDone reports whether every live node finished.
	AllDone bool
}

// qkey is one pending delivery in the event queue: its delivery time,
// the sequence number that breaks ties between equal times, and the slab
// slot holding its message.
type qkey struct {
	t    float64
	seq  int64
	slot int32
}

// less orders deliveries by (t, seq). Sequence numbers are unique, so this
// is a total order and every correct priority queue pops the same
// sequence; two-point delays make exact time ties common, and seq alone
// decides them.
func (a qkey) less(b qkey) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// eventQueue holds the deliveries in flight: a 4-ary min-heap of small
// keys over a slab of messages recycled through a free list. Sifts move
// 24-byte keys into a hole instead of swapping whole messages, and a
// message is written once on push and read once on pop. seq counts pushes
// since reset; it stays 64-bit, so it cannot wrap before memory runs out.
type eventQueue struct {
	keys []qkey
	slab []Message
	free []int32
	seq  int64
}

// reset empties the queue, keeping its buffers, and makes room for
// capacity pending deliveries at once, so a fresh queue does not grow its
// three slices by doubling.
func (q *eventQueue) reset(capacity int) {
	if cap(q.keys) < capacity {
		q.keys = make([]qkey, 0, capacity)
		q.slab = make([]Message, 0, capacity)
		q.free = make([]int32, 0, capacity)
	}
	q.keys = q.keys[:0]
	q.slab = q.slab[:0]
	q.free = q.free[:0]
	q.seq = 0
}

// push schedules m for delivery at time t, after every pending delivery
// with the same time.
func (q *eventQueue) push(t float64, m Message) {
	var slot int32
	if k := len(q.free); k > 0 {
		slot = q.free[k-1]
		q.free = q.free[:k-1]
		q.slab[slot] = m
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, m)
	}
	q.seq++
	key := qkey{t: t, seq: q.seq, slot: slot}
	keys := append(q.keys, key)
	i := len(keys) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !key.less(keys[parent]) {
			break
		}
		keys[i] = keys[parent]
		i = parent
	}
	keys[i] = key
	q.keys = keys
}

// pop removes the earliest pending delivery and returns its time and
// message. The queue must not be empty.
func (q *eventQueue) pop() (float64, Message) {
	keys := q.keys
	top := keys[0]
	n := len(keys) - 1
	last := keys[n]
	keys = keys[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		small := first
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			if keys[c].less(keys[small]) {
				small = c
			}
		}
		if !keys[small].less(last) {
			break
		}
		keys[i] = keys[small]
		i = small
	}
	if n > 0 {
		keys[i] = last
	}
	q.keys = keys
	q.free = append(q.free, top.slot)
	return top.t, q.slab[top.slot]
}

// Network runs a message-passing simulation. A Network is reusable:
// Reset re-arms it for a new configuration while keeping the event queue
// and the per-process RNG streams pooled, so steady-state reruns (the
// engine's session path) allocate nothing here.
type Network struct {
	cfg   Config
	queue eventQueue
	srcs  []*xrand.Source
	rngs  []*rand.Rand
	now   float64
	stats Result
}

// ErrBadConfig reports an invalid Config.
var ErrBadConfig = errors.New("msgnet: invalid config")

// NewNetwork validates the configuration.
func NewNetwork(cfg Config) (*Network, error) {
	n := &Network{}
	if err := n.Reset(cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// Reset validates cfg and re-arms the network for a fresh run. The RNG
// streams are reseeded to exactly what NewNetwork would create, so a
// reset network replays bit-identically to a fresh one.
func (n *Network) Reset(cfg Config) error {
	if len(cfg.Nodes) == 0 {
		return fmt.Errorf("%w: need nodes", ErrBadConfig)
	}
	if cfg.Delay == nil {
		return fmt.Errorf("%w: Delay distribution required", ErrBadConfig)
	}
	n.cfg = cfg
	// About n² deliveries are in flight at once when every node's
	// broadcast is answered by every replica.
	n.queue.reset(len(cfg.Nodes) * (len(cfg.Nodes) + 1))
	n.now = 0
	n.stats = Result{}
	for i := 0; i < len(cfg.Nodes); i++ {
		if i < len(n.srcs) {
			n.srcs[i].Reset(cfg.Seed, 0x6d736e, uint64(i))
		} else {
			src := xrand.NewSource(cfg.Seed, 0x6d736e, uint64(i))
			n.srcs = append(n.srcs, src)
			n.rngs = append(n.rngs, rand.New(src))
		}
	}
	return nil
}

// crashed reports whether process i has crashed by time t.
func (n *Network) crashed(i int, t float64) bool {
	return i < len(n.cfg.CrashAt) && n.cfg.CrashAt[i] >= 0 && t >= n.cfg.CrashAt[i]
}

// send enqueues outgoing messages from process `from` at time t.
func (n *Network) send(from int, t float64, msgs []Message) {
	for _, m := range msgs {
		if m.To < 0 || m.To >= len(n.cfg.Nodes) {
			panic(fmt.Sprintf("msgnet: message to unknown process %d", m.To))
		}
		m.From = from
		d := n.cfg.Delay.Sample(n.rngs[from])
		if n.cfg.LinkDelay != nil {
			d += n.cfg.LinkDelay(from, m.To)
		}
		if d < 0 {
			panic("msgnet: negative delivery delay")
		}
		n.queue.push(t+d, m)
	}
}

// Run executes the simulation until quiescence.
func (n *Network) Run() (*Result, error) {
	maxMessages := n.cfg.MaxMessages
	if maxMessages == 0 {
		maxMessages = 10_000_000
	}
	dither := n.cfg.DitherScale
	if dither == 0 {
		dither = 1e-8
	}

	// Node starts.
	for i, node := range n.cfg.Nodes {
		t := xrand.Dither(n.rngs[i], dither)
		if n.crashed(i, t) {
			continue
		}
		n.send(i, t, node.Start())
	}

	for len(n.queue.keys) > 0 {
		t, msg := n.queue.pop()
		n.now = t
		n.stats.Time = t
		// Messages already in flight when the sender crashes are still
		// delivered (the network is not the failed component); only a
		// crashed receiver loses messages.
		to := msg.To
		if n.crashed(to, t) {
			n.stats.Dropped++
			continue
		}
		n.stats.Delivered++
		if n.stats.Delivered > maxMessages {
			return nil, fmt.Errorf("msgnet: more than %d messages; runaway protocol?", maxMessages)
		}
		out := n.cfg.Nodes[to].Receive(msg)
		n.send(to, t, out)
	}

	n.stats.AllDone = true
	for i, node := range n.cfg.Nodes {
		if !n.crashed(i, n.now) && !node.Done() {
			n.stats.AllDone = false
		}
	}
	out := n.stats
	return &out, nil
}
