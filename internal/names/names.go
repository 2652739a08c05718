// Package names implements a small name service for communication links:
// startpoints registered under string names, resolvable from any context
// that can reach the server.
//
// The paper closes with "further work is also required on the
// representation, discovery, and use of configuration data". This package is
// that mechanism in its simplest useful form, and a demonstration of the
// architecture eating its own dog food: the service is three methods on the
// request/reply layer (internal/rpc), which itself is nothing but RSRs; the
// names map to encoded startpoints (which carry their own descriptor
// tables), and a resolved startpoint works immediately in the resolving
// context because method selection re-runs there. Registering a name
// therefore publishes not just *where* an endpoint is but *every way to
// reach it*, and resolution composes with manual method control like any
// other received startpoint.
package names

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/core"
	"nexus/internal/rpc"
)

// RPC method names used by the service protocol.
const (
	methodRegister = "names.register"
	methodResolve  = "names.resolve"
	methodList     = "names.list"
)

// Reply status codes: every reply starts with one.
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
	ep *core.Endpoint

	mu      sync.Mutex
	entries map[string][]byte // name -> encoded startpoint
}

// NewServer installs a name service in the context and returns it. The
// server answers requests whenever the hosting context polls.
func NewServer(ctx *core.Context) *Server {
	s := &Server{ep: ctx.NewEndpoint(), entries: make(map[string][]byte)}
	r := rpc.Enable(ctx, core.RPCConfig{})
	r.Register(methodRegister, s.onRegister)
	r.Register(methodResolve, s.onResolve)
	r.Register(methodList, s.onList)
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

// onRegister: [name string][encoded target sp] -> [status]
func (s *Server) onRegister(req *rpc.Request, r *rpc.Responder) {
	name := req.Payload.String()
	target := req.Payload.BytesValue()
	status := byte(statusNotFound)
	if req.Payload.Err() == nil && name != "" {
		s.mu.Lock()
		if _, dup := s.entries[name]; dup {
			status = statusExists
		} else {
			s.entries[name] = target
			status = statusOK
		}
		s.mu.Unlock()
	}
	respond(r, status, nil)
}

// onResolve: [name string] -> [status][encoded sp]
func (s *Server) onResolve(req *rpc.Request, r *rpc.Responder) {
	name := req.Payload.String()
	s.mu.Lock()
	enc, ok := s.entries[name]
	s.mu.Unlock()
	if !ok {
		respond(r, statusNotFound, nil)
		return
	}
	respond(r, statusOK, func(out *buffer.Buffer) { out.PutBytes(enc) })
}

// onList: [] -> [status][count][name...], names sorted
func (s *Server) onList(_ *rpc.Request, r *rpc.Responder) {
	s.mu.Lock()
	names := make([]string, 0, len(s.entries))
	for n := range s.entries {
		names = append(names, n)
	}
	s.mu.Unlock()
	sort.Strings(names)
	respond(r, statusOK, func(out *buffer.Buffer) {
		out.PutUint32(uint32(len(names)))
		for _, n := range names {
			out.PutString(n)
		}
	})
}

// respond completes a call with a status byte and an optional body.
func respond(r *rpc.Responder, status byte, fill func(*buffer.Buffer)) {
	out := buffer.New(64)
	out.PutByte(status)
	if fill != nil {
		fill(out)
	}
	_ = r.Reply(out)
}

// Client talks to a name server from another context. Requests are RPC
// calls through the context's RPC runtime, which correlates replies by call
// id, so any number of clients can share a context.
type Client struct {
	ctx     *core.Context
	server  *core.Startpoint
	timeout time.Duration
}

// NewClient builds a client in ctx for the server reachable via the given
// startpoint (typically obtained out of band or from a parent context).
func NewClient(ctx *core.Context, server *core.Startpoint) *Client {
	rpc.Enable(ctx, core.RPCConfig{})
	return &Client{ctx: ctx, server: server, timeout: 10 * time.Second}
}

// SetTimeout adjusts the per-request timeout.
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// Register publishes a startpoint under the given name.
func (c *Client) Register(name string, sp *core.Startpoint) error {
	enc := buffer.New(256)
	sp.Encode(enc)
	req := buffer.New(512)
	req.PutString(name)
	req.PutBytes(enc.Encode()) // keep the format tag: the resolver re-decodes it
	reply, err := c.request(methodRegister, req)
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
	req := buffer.New(len(name) + 8)
	req.PutString(name)
	reply, err := c.request(methodResolve, req)
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

// List returns all registered names in sorted order.
func (c *Client) List() ([]string, error) {
	reply, err := c.request(methodList, nil)
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

// request makes one call to the server and waits for its reply.
func (c *Client) request(method string, req *buffer.Buffer) (*buffer.Buffer, error) {
	f, err := rpc.Call(c.server, method, req, rpc.CallOptions{Timeout: c.timeout})
	if err != nil {
		return nil, err
	}
	reply, err := f.Await()
	if errors.Is(err, core.ErrDeadline) {
		return nil, fmt.Errorf("%w (%s)", ErrTimeout, method)
	}
	return reply, err
}
