// Package names implements a small name service for communication links:
// startpoints registered under string names, resolvable from any context
// that can reach the server.
//
// The paper closes with "further work is also required on the
// representation, discovery, and use of configuration data". This package is
// that mechanism in its simplest useful form, and a demonstration of the
// architecture eating its own dog food: the service's protocol is nothing
// but RSRs, the names map to encoded startpoints (which carry their own
// descriptor tables), and a resolved startpoint works immediately in the
// resolving context because method selection re-runs there. Registering a
// name therefore publishes not just *where* an endpoint is but *every way to
// reach it*, and resolution composes with manual method control like any
// other received startpoint.
package names

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/core"
)

// Handler names used by the service protocol.
const (
	handlerRegister = "names.register"
	handlerResolve  = "names.resolve"
	handlerList     = "names.list"
)

// Reply status codes.
const (
	statusOK       = 0
	statusNotFound = 1
	statusExists   = 2
)

// Errors returned by client operations.
var (
	// ErrNotFound reports resolution of an unregistered name.
	ErrNotFound = errors.New("names: name not found")
	// ErrExists reports registration of an already-taken name.
	ErrExists = errors.New("names: name already registered")
	// ErrTimeout reports a request the server did not answer in time. It
	// wraps the stack-wide deadline sentinel, so errors.Is matches it
	// against core.ErrDeadline and context.DeadlineExceeded too.
	ErrTimeout = fmt.Errorf("names: request timed out: %w", core.ErrDeadline)
)

// Server is a name service hosted in a context.
type Server struct {
	ctx *core.Context
	ep  *core.Endpoint

	mu      sync.Mutex
	entries map[string][]byte // name -> encoded startpoint
}

// NewServer installs a name service in the context and returns it. The
// server answers requests whenever the hosting context polls.
func NewServer(ctx *core.Context) *Server {
	s := &Server{ctx: ctx, entries: make(map[string][]byte)}
	ctx.RegisterHandler(handlerRegister, s.onRegister)
	ctx.RegisterHandler(handlerResolve, s.onResolve)
	ctx.RegisterHandler(handlerList, s.onList)
	s.ep = ctx.NewEndpoint()
	return s
}

// Startpoint returns a startpoint for the service, to hand to clients.
func (s *Server) Startpoint() *core.Startpoint { return s.ep.NewStartpoint() }

// Len reports the number of registered names.
func (s *Server) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// onRegister: [name string][seq][encoded reply sp][encoded target sp]
func (s *Server) onRegister(ep *core.Endpoint, b *buffer.Buffer) {
	name := b.String()
	reply, seq, err := s.decodeReply(b)
	if err != nil {
		return
	}
	target := b.BytesValue()
	if b.Err() != nil || name == "" {
		s.respond(reply, seq, statusNotFound, nil)
		return
	}
	s.mu.Lock()
	_, dup := s.entries[name]
	if !dup {
		s.entries[name] = target
	}
	s.mu.Unlock()
	if dup {
		s.respond(reply, seq, statusExists, nil)
		return
	}
	s.respond(reply, seq, statusOK, nil)
}

// onResolve: [name string][seq][encoded reply sp]
func (s *Server) onResolve(ep *core.Endpoint, b *buffer.Buffer) {
	name := b.String()
	reply, seq, err := s.decodeReply(b)
	if err != nil {
		return
	}
	s.mu.Lock()
	enc, ok := s.entries[name]
	s.mu.Unlock()
	if !ok {
		s.respond(reply, seq, statusNotFound, nil)
		return
	}
	s.respond(reply, seq, statusOK, func(out *buffer.Buffer) {
		out.PutBytes(enc)
	})
}

// onList: [seq][encoded reply sp]
func (s *Server) onList(ep *core.Endpoint, b *buffer.Buffer) {
	reply, seq, err := s.decodeReply(b)
	if err != nil {
		return
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.entries))
	for n := range s.entries {
		names = append(names, n)
	}
	s.mu.Unlock()
	s.respond(reply, seq, statusOK, func(out *buffer.Buffer) {
		out.PutUint32(uint32(len(names)))
		for _, n := range names {
			out.PutString(n)
		}
	})
}

// decodeReply unpacks the request's sequence number and reply startpoint.
func (s *Server) decodeReply(b *buffer.Buffer) (*core.Startpoint, uint32, error) {
	seq := b.Uint32()
	sp, err := s.ctx.DecodeStartpoint(b)
	if err != nil {
		return nil, 0, err
	}
	return sp, seq, nil
}

func (s *Server) respond(reply *core.Startpoint, seq uint32, status byte, fill func(*buffer.Buffer)) {
	out := buffer.New(64)
	out.PutUint32(seq)
	out.PutByte(status)
	if fill != nil {
		fill(out)
	}
	_ = reply.RSR("", out) // the requesting client's reply endpoint
	reply.Close()
}

// Client talks to a name server from another context. Replies arrive at the
// client's own endpoint, so any number of clients can share a context.
type Client struct {
	ctx     *core.Context
	server  *core.Startpoint
	ep      *core.Endpoint // reply endpoint
	timeout time.Duration

	mu      sync.Mutex
	nextSeq uint32
	replies map[uint32]*buffer.Buffer
}

// NewClient builds a client in ctx for the server reachable via the given
// startpoint (typically obtained out of band or from a parent context).
func NewClient(ctx *core.Context, server *core.Startpoint) *Client {
	c := &Client{
		ctx:     ctx,
		server:  server,
		timeout: 10 * time.Second,
		replies: make(map[uint32]*buffer.Buffer),
	}
	c.ep = ctx.NewEndpoint(core.WithHandler(func(ep *core.Endpoint, b *buffer.Buffer) {
		seq := b.Uint32()
		if b.Err() != nil {
			return
		}
		c.mu.Lock()
		// The handler's buffer borrows the delivered frame, whose storage is
		// recycled after the handler returns; the parked reply must own its
		// bytes or a later send scribbles over it.
		c.replies[seq] = b.Clone()
		c.mu.Unlock()
	}))
	return c
}

// SetTimeout adjusts the per-request timeout.
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// Register publishes a startpoint under the given name.
func (c *Client) Register(name string, sp *core.Startpoint) error {
	enc := buffer.New(256)
	sp.Encode(enc)
	encoded := enc.Encode() // keep the format tag: the resolver re-decodes it
	reply, err := c.request(handlerRegister, func(b *buffer.Buffer) {
		b.PutString(name)
	}, func(b *buffer.Buffer) {
		b.PutBytes(encoded)
	})
	if err != nil {
		return err
	}
	switch status := reply.Byte(); status {
	case statusOK:
		return nil
	case statusExists:
		return fmt.Errorf("%w: %q", ErrExists, name)
	default:
		return fmt.Errorf("names: register %q failed (status %d)", name, status)
	}
}

// Resolve returns a startpoint for the named link, usable immediately in the
// client's context.
func (c *Client) Resolve(name string) (*core.Startpoint, error) {
	reply, err := c.request(handlerResolve, func(b *buffer.Buffer) {
		b.PutString(name)
	}, nil)
	if err != nil {
		return nil, err
	}
	if status := reply.Byte(); status != statusOK {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	enc := reply.BytesValue()
	if err := reply.Err(); err != nil {
		return nil, fmt.Errorf("names: corrupt resolve reply: %w", err)
	}
	dec, err := buffer.FromBytes(enc)
	if err != nil {
		return nil, fmt.Errorf("names: corrupt entry: %w", err)
	}
	return c.ctx.DecodeStartpoint(dec)
}

// List returns all registered names.
func (c *Client) List() ([]string, error) {
	reply, err := c.request(handlerList, nil, nil)
	if err != nil {
		return nil, err
	}
	if status := reply.Byte(); status != statusOK {
		return nil, fmt.Errorf("names: list failed (status %d)", status)
	}
	n := int(reply.Uint32())
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, reply.String())
	}
	if err := reply.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// request sends one RSR [pre][seq][reply sp][post] and polls for the reply.
func (c *Client) request(handler string, pre, post func(*buffer.Buffer)) (*buffer.Buffer, error) {
	c.mu.Lock()
	c.nextSeq++
	seq := c.nextSeq
	c.mu.Unlock()

	b := buffer.New(512)
	if pre != nil {
		pre(b)
	}
	b.PutUint32(seq)
	c.ep.NewStartpoint().Encode(b)
	if post != nil {
		post(b)
	}
	if err := c.server.RSR(handler, b); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(c.timeout)
	for {
		c.mu.Lock()
		reply, ok := c.replies[seq]
		if ok {
			delete(c.replies, seq)
		}
		c.mu.Unlock()
		if ok {
			return reply, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%w (%s)", ErrTimeout, handler)
		}
		c.ctx.Poll()
	}
}
