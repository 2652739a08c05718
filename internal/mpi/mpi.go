// Package mpi implements a small message-passing interface layered on the
// multimethod communication core — the analogue of the MPICH-on-Nexus
// implementation the paper's case study runs on.
//
// The layering direction follows §2.2 of the paper: two-sided matched
// send/receive is built *on top of* the one-sided RSR primitive. Each rank
// owns one endpoint; Send performs an RSR carrying (communicator, source,
// tag, payload); the handler enqueues the message in the rank's inbox; Recv
// polls the rank's context until a matching message appears. Because
// delivery rides on ordinary startpoints, every communicator inherits the
// full multimethod machinery — partition-scoped fast methods inside a
// component, wide-area methods between components, skip_poll, forwarding —
// with no MPI-level code aware of any of it.
//
// The subset implemented: blocking and nonblocking point-to-point with tag
// and source matching (including wildcards), Sendrecv, Barrier, Bcast,
// Reduce, Allreduce, Gather, Allgather, Scatter, and communicator Split.
package mpi

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/cluster"
	"nexus/internal/core"
)

// Matching wildcards.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// DefaultTimeout bounds blocking receives so that deadlocked test programs
// fail instead of hanging.
const DefaultTimeout = 30 * time.Second

// ErrTimeout reports a blocking operation that found no matching message in
// time. It wraps the stack-wide deadline sentinel, so errors.Is matches it
// against core.ErrDeadline and context.DeadlineExceeded too.
var ErrTimeout = fmt.Errorf("mpi: receive timed out: %w", core.ErrDeadline)

const msgHandler = "mpi.msg"

// Message is a received message.
type Message struct {
	// Src is the sender's rank within the receiving communicator.
	Src int
	// Tag is the sender's tag.
	Tag int
	// Buf holds the payload, positioned at the start.
	Buf *buffer.Buffer
}

type pending struct {
	comm int32
	src  int32
	tag  int32
	data []byte
}

type inbox struct {
	mu   sync.Mutex
	msgs []pending
}

func (ib *inbox) put(p pending) {
	ib.mu.Lock()
	ib.msgs = append(ib.msgs, p)
	ib.mu.Unlock()
}

// take removes and returns the first message matching (comm, src, tag).
func (ib *inbox) take(comm int32, src, tag int) (pending, bool) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for i, m := range ib.msgs {
		if m.comm != comm {
			continue
		}
		if src != AnySource && m.src != int32(src) {
			continue
		}
		if tag != AnyTag && m.tag != int32(tag) {
			continue
		}
		ib.msgs = append(ib.msgs[:i], ib.msgs[i+1:]...)
		return m, true
	}
	return pending{}, false
}

func (ib *inbox) peek(comm int32, src, tag int) bool {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for _, m := range ib.msgs {
		if m.comm != comm {
			continue
		}
		if src != AnySource && m.src != int32(src) {
			continue
		}
		if tag != AnyTag && m.tag != int32(tag) {
			continue
		}
		return true
	}
	return false
}

// World is an MPI job spanning every rank of a machine.
type World struct {
	machine *cluster.Machine
	inboxes []*inbox
	sps     [][]*core.Startpoint // [from][to]
	comms   []*Comm
	timeout time.Duration

	mu      sync.Mutex
	nextID  int32
	splitID map[string]int32
}

// New builds an MPI world over the machine: one rank per machine context.
func New(m *cluster.Machine) (*World, error) {
	n := m.Size()
	w := &World{
		machine: m,
		inboxes: make([]*inbox, n),
		sps:     make([][]*core.Startpoint, n),
		timeout: DefaultTimeout,
		nextID:  1,
		splitID: make(map[string]int32),
	}
	eps := make([]*core.Endpoint, n)
	for r := 0; r < n; r++ {
		ib := &inbox{}
		w.inboxes[r] = ib
		ctx := m.Context(r)
		ctx.RegisterHandler(msgHandler, func(ep *core.Endpoint, b *buffer.Buffer) {
			p := pending{
				comm: b.Int32(),
				src:  b.Int32(),
				tag:  b.Int32(),
				data: b.BytesValue(),
			}
			if b.Err() != nil {
				return // malformed message; drop
			}
			ib.put(p)
		})
		eps[r] = ctx.NewEndpoint()
	}
	for from := 0; from < n; from++ {
		w.sps[from] = make([]*core.Startpoint, n)
		for to := 0; to < n; to++ {
			sp, err := core.TransferStartpoint(eps[to].NewStartpoint(), m.Context(from))
			if err != nil {
				return nil, fmt.Errorf("mpi: linking rank %d to %d: %w", from, to, err)
			}
			w.sps[from][to] = sp
		}
	}
	w.comms = make([]*Comm, n)
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	for r := 0; r < n; r++ {
		w.comms[r] = &Comm{world: w, id: 0, rank: r, group: group}
	}
	return w, nil
}

// SetTimeout adjusts the blocking-receive timeout for all ranks.
func (w *World) SetTimeout(d time.Duration) { w.timeout = d }

// Size reports the number of ranks.
func (w *World) Size() int { return len(w.comms) }

// Comm returns rank r's COMM_WORLD handle.
func (w *World) Comm(r int) *Comm { return w.comms[r] }

// allocSplitID returns the communicator id for a split, identical on every
// rank that presents the same key.
func (w *World) allocSplitID(key string) int32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if id, ok := w.splitID[key]; ok {
		return id
	}
	id := w.nextID
	w.nextID++
	w.splitID[key] = id
	return id
}

// Comm is one rank's handle on a communicator. Handles are not safe for
// concurrent use by multiple goroutines (like an MPI rank, each handle
// belongs to one thread of execution); different ranks' handles are
// independent.
type Comm struct {
	world   *World
	id      int32
	rank    int   // rank within this communicator
	group   []int // comm rank -> world rank
	collSeq int32 // collective sequence number, aligned across members
	splits  int32 // split sequence number
}

// Rank reports the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size reports the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// WorldRank reports the machine rank behind a communicator rank.
func (c *Comm) WorldRank(r int) int { return c.group[r] }

// Context returns the underlying multimethod context — the escape hatch for
// method control (skip_poll tuning, enquiry) from MPI programs, which is how
// the paper's case study adjusts polling without touching model code.
func (c *Comm) Context() *core.Context { return c.world.machine.Context(c.group[c.rank]) }

// Send sends the buffer's contents to dest with the given tag. Send is
// asynchronous (buffered in MPI terms): it returns once the message has been
// handed to the selected communication method. Tags must be non-negative;
// negative tags are reserved for collectives.
func (c *Comm) Send(dest, tag int, b *buffer.Buffer) error {
	if tag < 0 {
		return fmt.Errorf("mpi: negative tag %d is reserved", tag)
	}
	return c.send(dest, int32(tag), b)
}

func (c *Comm) send(dest int, tag int32, b *buffer.Buffer) error {
	if dest < 0 || dest >= len(c.group) {
		return fmt.Errorf("mpi: rank %d out of range [0,%d)", dest, len(c.group))
	}
	var payload []byte
	if b != nil {
		payload = b.Encode()
	} else {
		payload = buffer.New(0).Encode()
	}
	wrap := buffer.New(16 + len(payload))
	wrap.PutInt32(c.id)
	wrap.PutInt32(int32(c.rank))
	wrap.PutInt32(tag)
	wrap.PutBytes(payload)
	from := c.group[c.rank]
	to := c.group[dest]
	return c.world.sps[from][to].RSR(msgHandler, wrap)
}

// Recv blocks until a message matching (src, tag) arrives, polling the
// rank's context. Use AnySource / AnyTag as wildcards.
func (c *Comm) Recv(src, tag int) (*Message, error) {
	if tag < 0 && tag != AnyTag {
		return nil, fmt.Errorf("mpi: negative tag %d is reserved", tag)
	}
	return c.recv(src, tag)
}

// recv is the one receive loop behind Recv, Wait and the collectives; it
// accepts the negative tags collectives reserve.
func (c *Comm) recv(src, tag int) (*Message, error) {
	ib := c.world.inboxes[c.group[c.rank]]
	ctx := c.Context()
	deadline := time.Now().Add(c.world.timeout)
	for {
		if p, ok := ib.take(c.id, src, tag); ok {
			buf, err := buffer.FromBytes(p.data)
			if err != nil {
				return nil, fmt.Errorf("mpi: corrupt payload from %d: %w", p.src, err)
			}
			return &Message{Src: int(p.src), Tag: int(p.tag), Buf: buf}, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%w (src=%d tag=%d comm=%d rank=%d)", ErrTimeout, src, tag, c.id, c.rank)
		}
		if ctx.Poll() == 0 {
			runtime.Gosched() // single-core machines: let the sender run
		}
	}
}

// Probe reports whether a matching message is already queued, after one poll
// pass.
func (c *Comm) Probe(src, tag int) bool {
	c.Context().Poll()
	return c.world.inboxes[c.group[c.rank]].peek(c.id, src, tag)
}

// Sendrecv sends to dest and receives from src in one operation. Because
// Send never blocks, Sendrecv cannot deadlock on exchange patterns.
func (c *Comm) Sendrecv(dest, sendTag int, b *buffer.Buffer, src, recvTag int) (*Message, error) {
	if err := c.Send(dest, sendTag, b); err != nil {
		return nil, err
	}
	return c.Recv(src, recvTag)
}

// Request represents a nonblocking receive in flight.
type Request struct {
	comm *Comm
	src  int
	tag  int
	done *Message
}

// Irecv posts a nonblocking receive. The message is claimed when Wait is
// called; data transfer proceeds in the background regardless, since the
// transport pushes messages into the inbox as they arrive.
func (c *Comm) Irecv(src, tag int) *Request {
	return &Request{comm: c, src: src, tag: tag}
}

// Wait blocks until the request's message is available.
func (r *Request) Wait() (*Message, error) {
	if r.done != nil {
		return r.done, nil
	}
	m, err := r.comm.recv(r.src, r.tag)
	if err != nil {
		return nil, err
	}
	r.done = m
	return m, nil
}

// collTag returns a reserved tag for step `round` of the next collective.
// All members advance collSeq in lockstep because collectives are called in
// the same order on every rank.
func (c *Comm) collTag(round int32) int32 {
	return -(c.collSeq*64 + round + 2)
}

// Barrier blocks until every rank of the communicator has entered it
// (dissemination algorithm, ⌈log₂ n⌉ rounds).
func (c *Comm) Barrier() error {
	n := len(c.group)
	round := int32(0)
	for k := 1; k < n; k <<= 1 {
		tag := c.collTag(round)
		to := (c.rank + k) % n
		from := (c.rank - k + n) % n
		if err := c.send(to, tag, nil); err != nil {
			return err
		}
		if _, err := c.recv(from, int(tag)); err != nil {
			return err
		}
		round++
	}
	c.collSeq++
	return nil
}

// Bcast broadcasts the root's buffer to every rank, returning each rank's
// copy (the root gets its own buffer back, rewound).
func (c *Comm) Bcast(root int, b *buffer.Buffer) (*buffer.Buffer, error) {
	tag := c.collTag(0)
	defer func() { c.collSeq++ }()
	if c.rank == root {
		for r := range c.group {
			if r == root {
				continue
			}
			if err := c.send(r, tag, b); err != nil {
				return nil, err
			}
		}
		if b == nil {
			return buffer.New(0), nil
		}
		b.Rewind()
		return b, nil
	}
	m, err := c.recv(root, int(tag))
	if err != nil {
		return nil, err
	}
	return m.Buf, nil
}

// Op is a reduction operator over float64.
type Op func(a, b float64) float64

// Predefined reduction operators.
var (
	Sum Op = func(a, b float64) float64 { return a + b }
	Max Op = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	Min Op = func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
)

// Reduce combines equal-length vectors element-wise at the root; non-root
// ranks receive nil.
func (c *Comm) Reduce(root int, vals []float64, op Op) ([]float64, error) {
	tag := c.collTag(0)
	defer func() { c.collSeq++ }()
	if c.rank != root {
		b := buffer.New(8*len(vals) + 8)
		b.PutFloat64s(vals)
		return nil, c.send(root, tag, b)
	}
	acc := append([]float64(nil), vals...)
	for r := range c.group {
		if r == root {
			continue
		}
		m, err := c.recv(r, int(tag))
		if err != nil {
			return nil, err
		}
		v := m.Buf.Float64s()
		if err := m.Buf.Err(); err != nil {
			return nil, err
		}
		if len(v) != len(acc) {
			return nil, fmt.Errorf("mpi: Reduce length mismatch: %d vs %d", len(v), len(acc))
		}
		for i := range acc {
			acc[i] = op(acc[i], v[i])
		}
	}
	return acc, nil
}

// Allreduce combines vectors element-wise and returns the result on every
// rank.
func (c *Comm) Allreduce(vals []float64, op Op) ([]float64, error) {
	res, err := c.Reduce(0, vals, op)
	if err != nil {
		return nil, err
	}
	var b *buffer.Buffer
	if c.rank == 0 {
		b = buffer.New(8*len(res) + 8)
		b.PutFloat64s(res)
	}
	out, err := c.Bcast(0, b)
	if err != nil {
		return nil, err
	}
	v := out.Float64s()
	if err := out.Err(); err != nil {
		return nil, err
	}
	return v, nil
}

// Gather collects every rank's vector at the root (indexed by comm rank);
// non-root ranks receive nil.
func (c *Comm) Gather(root int, vals []float64) ([][]float64, error) {
	tag := c.collTag(0)
	defer func() { c.collSeq++ }()
	if c.rank != root {
		b := buffer.New(8*len(vals) + 8)
		b.PutFloat64s(vals)
		return nil, c.send(root, tag, b)
	}
	out := make([][]float64, len(c.group))
	out[root] = append([]float64(nil), vals...)
	for r := range c.group {
		if r == root {
			continue
		}
		m, err := c.recv(r, int(tag))
		if err != nil {
			return nil, err
		}
		out[r] = m.Buf.Float64s()
		if err := m.Buf.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Allgather collects every rank's vector on every rank.
func (c *Comm) Allgather(vals []float64) ([][]float64, error) {
	g, err := c.Gather(0, vals)
	if err != nil {
		return nil, err
	}
	var b *buffer.Buffer
	if c.rank == 0 {
		b = buffer.New(64)
		b.PutUint32(uint32(len(g)))
		for _, v := range g {
			b.PutFloat64s(v)
		}
	}
	out, err := c.Bcast(0, b)
	if err != nil {
		return nil, err
	}
	n := int(out.Uint32())
	res := make([][]float64, n)
	for i := 0; i < n; i++ {
		res[i] = out.Float64s()
	}
	if err := out.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// Scatter distributes parts[i] (on the root) to rank i, returning each
// rank's part.
func (c *Comm) Scatter(root int, parts [][]float64) ([]float64, error) {
	tag := c.collTag(0)
	defer func() { c.collSeq++ }()
	if c.rank == root {
		if len(parts) != len(c.group) {
			return nil, fmt.Errorf("mpi: Scatter needs %d parts, got %d", len(c.group), len(parts))
		}
		for r := range c.group {
			if r == root {
				continue
			}
			b := buffer.New(8*len(parts[r]) + 8)
			b.PutFloat64s(parts[r])
			if err := c.send(r, tag, b); err != nil {
				return nil, err
			}
		}
		return append([]float64(nil), parts[root]...), nil
	}
	m, err := c.recv(root, int(tag))
	if err != nil {
		return nil, err
	}
	v := m.Buf.Float64s()
	return v, m.Buf.Err()
}

// Alltoall exchanges parts[i] with rank i, returning the vector each rank
// contributed to the caller (out[i] = rank i's parts[myrank]). It is the
// transpose primitive of spectral codes.
func (c *Comm) Alltoall(parts [][]float64) ([][]float64, error) {
	if len(parts) != len(c.group) {
		return nil, fmt.Errorf("mpi: Alltoall needs %d parts, got %d", len(c.group), len(parts))
	}
	tag := c.collTag(0)
	defer func() { c.collSeq++ }()
	out := make([][]float64, len(c.group))
	out[c.rank] = append([]float64(nil), parts[c.rank]...)
	// All sends first (asynchronous), then the receives.
	for r := range c.group {
		if r == c.rank {
			continue
		}
		b := buffer.New(8*len(parts[r]) + 8)
		b.PutFloat64s(parts[r])
		if err := c.send(r, tag, b); err != nil {
			return nil, err
		}
	}
	for r := range c.group {
		if r == c.rank {
			continue
		}
		m, err := c.recv(r, int(tag))
		if err != nil {
			return nil, err
		}
		out[r] = m.Buf.Float64s()
		if err := m.Buf.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Split partitions the communicator: ranks presenting the same color form a
// new communicator, ordered by (key, parent rank). It returns the caller's
// handle on its new communicator.
func (c *Comm) Split(color, key int) (*Comm, error) {
	seq := c.splits
	c.splits++
	// Exchange (color, key) among members.
	all, err := c.Allgather([]float64{float64(color), float64(key)})
	if err != nil {
		return nil, err
	}
	type member struct{ color, key, parentRank int }
	var mine []member
	for r, ck := range all {
		if len(ck) != 2 {
			return nil, fmt.Errorf("mpi: Split exchange corrupt at rank %d", r)
		}
		if int(ck[0]) == color {
			mine = append(mine, member{color: int(ck[0]), key: int(ck[1]), parentRank: r})
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].key != mine[j].key {
			return mine[i].key < mine[j].key
		}
		return mine[i].parentRank < mine[j].parentRank
	})
	group := make([]int, len(mine))
	newRank := -1
	for i, mb := range mine {
		group[i] = c.group[mb.parentRank]
		if mb.parentRank == c.rank {
			newRank = i
		}
	}
	id := c.world.allocSplitID(fmt.Sprintf("%d/%d/%d", c.id, seq, color))
	return &Comm{world: c.world, id: id, rank: newRank, group: group}, nil
}
