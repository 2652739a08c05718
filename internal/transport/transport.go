// Package transport defines the communication-module interface of the
// multimethod communication architecture.
//
// A communication method (TCP, UDP, intra-process shared memory, a simulated
// MPL fabric, ...) is implemented by a Module. Each context instantiates its
// own module instances; a module advertises how the context can be reached by
// that method with a Descriptor, and descriptors are grouped into an ordered
// Table that travels with every startpoint. The Table is the paper's
// "communication descriptor table": a concise, easily communicated
// representation of information about communication methods, whose order
// encodes selection preference ("fastest first").
//
// In the original Nexus the module interface was a C function table; in Go it
// is simply an interface of the five calls the core makes (Init, Applicable,
// Dial, Poll, Close), with three optional capabilities discovered by
// interface assertion: readiness fds for the reactor (Reactive), batched
// sends (BatchSender) and poll-cost hints (CostHinter). Inbound detection
// always goes through Module.Poll; the caller decides when.
//
// Everything else a module states about itself travels in its descriptor or
// in the context's metrics set. A method's frame-size limit is the
// max_message attribute of the descriptor Init returns, the one place the
// local core and remote senders both read it. Queue levels and counters are
// gauges and counters a module creates in Env.Stats at Init.
package transport

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"nexus/internal/metrics"
)

// ContextID uniquely identifies a context (an address space / virtual
// processor) within a computation.
type ContextID uint64

// Descriptor describes how a specific context can be reached via a specific
// communication method. Attrs are method-specific: a TCP descriptor carries a
// listen address, an MPL descriptor a partition name and node number, and so
// on. Descriptors are value types and are safe to copy.
type Descriptor struct {
	// Method is the module name, e.g. "tcp".
	Method string
	// Context is the context the descriptor reaches.
	Context ContextID
	// Attrs holds method-specific reachability attributes.
	Attrs map[string]string
}

// Attr returns the named attribute, or "" if absent.
func (d Descriptor) Attr(key string) string { return d.Attrs[key] }

// AttrMaxMessage is the descriptor attribute advertising the largest frame
// the method accepts on this link, in bytes. Size-aware selection reads it to
// steer bulk sends toward methods that can carry them natively.
const AttrMaxMessage = "max_message"

// AttrRelay marks a mesh-installed relay route: the value is the decimal
// context id of the next-hop relay. Senders binding such a descriptor stamp
// the wire relay extension (hop budget + loop suppression), and forwarders
// skip route entries pointing back at the hop a frame just arrived from.
const AttrRelay = "relay"

// AttrCost advertises a rough per-message cost for the link in nanoseconds
// (latency plus detection), the static fallback cost-aware mesh routing uses
// for remote-to-remote edges it cannot observe directly.
const AttrCost = "cost_ns"

// Cost reports the descriptor's advertised cost estimate in nanoseconds
// (0 when absent or malformed).
func (d Descriptor) Cost() int64 { return d.nonNegative(AttrCost) }

// MaxMessage reports the descriptor's advertised frame-size limit in bytes
// (0 when absent or malformed, meaning "no advertised limit").
func (d Descriptor) MaxMessage() int { return int(d.nonNegative(AttrMaxMessage)) }

// nonNegative parses the named attribute as a non-negative integer (0 when
// absent, malformed or negative).
func (d Descriptor) nonNegative(key string) int64 {
	a := d.Attrs[key]
	if a == "" {
		return 0 // skip the parse, whose syntax error allocates
	}
	n, err := strconv.ParseInt(a, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// Clone returns a deep copy of the descriptor.
func (d Descriptor) Clone() Descriptor {
	c := Descriptor{Method: d.Method, Context: d.Context}
	if d.Attrs != nil {
		c.Attrs = make(map[string]string, len(d.Attrs))
		for k, v := range d.Attrs {
			c.Attrs[k] = v
		}
	}
	return c
}

// Equal reports whether two descriptors are identical.
func (d Descriptor) Equal(o Descriptor) bool {
	if d.Method != o.Method || d.Context != o.Context || len(d.Attrs) != len(o.Attrs) {
		return false
	}
	for k, v := range d.Attrs {
		if o.Attrs[k] != v {
			return false
		}
	}
	return true
}

func (d Descriptor) String() string {
	return fmt.Sprintf("%s->ctx%d%v", d.Method, d.Context, d.Attrs)
}

// Sink receives inbound frames delivered by a module. Frames are opaque to
// the transport layer; the core's wire format lives above it.
type Sink interface {
	// Deliver hands one inbound frame to the context. The implementation
	// borrows the slice for the duration of the call and must not retain it
	// afterwards: the delivering module may recycle the frame's storage
	// (bufpool) the moment Deliver returns. Deliver must be safe for
	// concurrent use: different modules are polled on different goroutines
	// (the polling loop, a blocking method's drain goroutine).
	Deliver(frame []byte)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(frame []byte)

// Deliver calls f(frame).
func (f SinkFunc) Deliver(frame []byte) { f(frame) }

// Env is the environment a module is initialized with: the identity of its
// context, topology attributes used by applicability rules, configuration
// parameters, and the sink inbound frames are delivered to.
type Env struct {
	// Context is the hosting context's id.
	Context ContextID
	// Process identifies the OS process instance; modules whose methods only
	// work within one process (inproc, local) compare it.
	Process string
	// Partition names the partition the context belongs to; partition-scoped
	// methods (the simulated MPL fabric) compare it.
	Partition string
	// Params holds module configuration (socket buffer sizes, loss rates...).
	Params Params
	// Sink receives inbound frames.
	Sink Sink
	// Stats is the hosting context's metrics set, the one the core fills in.
	// A module creates its counters and gauges here at Init, named with the
	// method as prefix ("tcp.pending.bytes"), and they appear in the
	// context's Observe snapshot and /debug/nexusz. Gauges are levels: a
	// module moves them back down as it releases what they count, so a
	// closed module contributes zero. Nil outside a core; metrics.Set hands
	// out unregistered counters then.
	Stats *metrics.Set
}

// Conn is an active connection — the paper's "communication object". A Conn
// is created by selecting a method and dialing its descriptor; it is shared
// among all startpoints in a context that reference the same remote context
// with the same method.
type Conn interface {
	// Send transmits one frame. Send must be safe for concurrent use.
	//
	// Send borrows the frame: the caller may reuse or recycle the slice as
	// soon as Send returns, so an implementation that queues frames
	// (in-process mailboxes, modelled links, retransmission windows) must
	// copy. This is what lets a multicast sender encode one frame and
	// re-address it in place per target, and return its scratch to the
	// pool unconditionally.
	Send(frame []byte) error
	// Close releases the connection.
	Close() error
}

// Module implements a communication method. A Module instance belongs to a
// single context and is not shared.
type Module interface {
	// Init binds the module to its context. The returned descriptor
	// advertises how other contexts reach this context by this method; a nil
	// descriptor (with nil error) means the context cannot receive by this
	// method, but may still dial out. A method whose connections bound the
	// frame size Conn.Send accepts states that bound, in bytes, as the
	// descriptor's max_message attribute; a Conn refusing a larger frame
	// returns an error matching ErrTooLarge.
	Init(env Env) (*Descriptor, error)
	// Applicable reports whether this module can be used to send to remote.
	// It is the method-specific half of the paper's selection rule: a method
	// is applicable if supported by both contexts and if module criteria
	// (same partition, same process, ...) hold.
	Applicable(remote Descriptor) bool
	// Dial opens a communication object to the remote context.
	Dial(remote Descriptor) (Conn, error)
	// Poll checks once for pending inbound communication, delivering any
	// complete frames to the environment's sink. It returns the number of
	// frames delivered; a module may additionally count inbound progress
	// that completed no frame (a stream mid-way through a large frame) as
	// one unit, so activity-driven pollers keep probing rather than treat
	// the pass as idle. Poll is called from the context's polling loop and
	// need not be safe for concurrent use with itself.
	Poll() (int, error)
	// Close shuts the module down and releases its resources.
	Close() error
}

// Readiness is the registration surface a readiness reactor offers a
// Reactive module: the module adds the file descriptors whose readability
// implies pending inbound work, and removes them as sockets come and go. A
// registered fd MUST be removed before it is closed — descriptor numbers are
// reused by the OS, and a stale registration would attribute a new socket's
// readiness to the old owner.
type Readiness interface {
	Add(fd int) error
	Remove(fd int)
}

// Reactive is an optional capability: a module whose inbound sockets can be
// watched by an OS readiness facility (epoll) instead of being probed on
// every poll pass. AttachReactor switches the module to readiness-driven
// detection: the module registers its current inbound fds with r and keeps
// the set current as connections are accepted and torn down. Registration is
// edge-triggered, which imposes one contract on the module's Poll: once
// attached, every Poll call must drain all pending inbound data — its final
// read must observe "would block" — because consumed edges are not
// re-announced. Poll remains callable at any time (spurious calls find
// nothing and return), so a module works identically whether or not the
// caller honors readiness.
//
// AttachReactor returns ErrNotReactive (or any error) when the module cannot
// export pollable fds in its current configuration — for example a wrapper
// whose inner method is memory-backed — and the caller keeps the module on
// the portable polling path. An attached module stays attached until Close,
// which removes its fds before closing its sockets.
type Reactive interface {
	AttachReactor(r Readiness) error
}

// BatchSender is an optional Conn capability: SendBatch transmits a sequence
// of frames in order, amortizing per-call overhead — one sendmmsg(2) system
// call per batch on Linux datagram sockets, against one sendto(2) per frame
// through Send. It returns the number of frames handed to the wire; when err
// is non-nil, frames[n] is the one that failed and frames beyond it were not
// attempted. Like Send, every frame is borrowed: the caller may reuse or
// recycle the slices as soon as SendBatch returns.
type BatchSender interface {
	SendBatch(frames [][]byte) (int, error)
}

// CostHinter is an optional capability: a module that advertises its
// approximate poll cost so the context can derive skip_poll defaults
// automatically (the paper's "adaptive adjustment" future work).
type CostHinter interface {
	PollCostHint() time.Duration
}

// Errors shared by module implementations.
var (
	// ErrNotApplicable reports a Dial on a descriptor the module cannot reach.
	ErrNotApplicable = errors.New("transport: descriptor not applicable to this module")
	// ErrClosed reports use of a closed module or connection.
	ErrClosed = errors.New("transport: closed")
	// ErrNotInitialized reports use of a module before Init.
	ErrNotInitialized = errors.New("transport: module not initialized")
	// ErrTooLarge reports a frame exceeding the method's message-size limit.
	// Method-specific too-large errors wrap it, so callers test any module's
	// rejection with errors.Is(err, transport.ErrTooLarge).
	ErrTooLarge = errors.New("transport: frame exceeds method message-size limit")
	// ErrNotReactive reports AttachReactor on a module that cannot use
	// readiness-driven detection in its current configuration; the caller
	// keeps the module poll-based.
	ErrNotReactive = errors.New("transport: module cannot use readiness detection")
)
