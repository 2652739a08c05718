package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/transport"
	_ "nexus/internal/transport/secure"
	"nexus/internal/transport/shm"
)

// TestBlockingReactiveMethods runs blocking detection over every method the
// reactor can attach: each RSR is delivered by the method's drain goroutine
// with no Poll call, DisableMethod stops that goroutine, and Close leaves no
// goroutine behind.
func TestBlockingReactiveMethods(t *testing.T) {
	const count = 50
	methods := []MethodConfig{
		{Name: "tcp"},
		{Name: "udp"},
		{Name: "rudp"},
		{Name: "shm"},
		{Name: "secure", Params: transport.Params{"inner": "tcp", "key": strings.Repeat("ab", 32)}},
	}
	for _, mc := range methods {
		t.Run(mc.Name, func(t *testing.T) {
			if mc.Name == "shm" && !shm.Supported() {
				t.Skip("shm transport requires linux")
			}
			before := runtime.NumGoroutine()
			blocking := mc
			blocking.Blocking = true
			recv, err := NewContext(Options{Methods: []MethodConfig{blocking}})
			if err != nil {
				t.Fatal(err)
			}
			defer recv.Close()
			if !recv.ReactorActive() {
				t.Skip("no reactor on this platform")
			}
			send, err := NewContext(Options{Methods: []MethodConfig{mc}})
			if err != nil {
				t.Fatal(err)
			}
			defer send.Close()

			all := make(chan struct{})
			got := 0
			ep := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {
				if got++; got == count {
					close(all)
				}
			}))
			sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
			for i := 0; i < count; i++ {
				b := buffer.New(16)
				b.PutInt(i)
				if err := sp.RSR("", b); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case <-all:
			case <-time.After(10 * time.Second):
				t.Fatalf("delivered %d of %d RSRs without Poll", recv.Stats().Get("frames."+mc.Name), count)
			}
			if n := recv.Stats().Get("poll." + mc.Name); n != 0 {
				t.Errorf("blocking %s polled %d times", mc.Name, n)
			}
			for _, mi := range recv.Methods() {
				if mi.Name == mc.Name && !mi.Blocking {
					t.Errorf("Methods reports %s not blocking", mc.Name)
				}
			}

			d := recv.moduleFor(mc.Name).rd.drain.Load()
			if err := recv.DisableMethod(mc.Name); err != nil {
				t.Fatal(err)
			}
			select {
			case <-d.done:
			default:
				t.Error("DisableMethod left the drain goroutine running")
			}

			send.Close()
			recv.Close()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines after Close, %d before", n, before)
			}
		})
	}
}

// TestBlockingRefusedWithoutReactor: blocking detection needs readiness edges
// to block on, so memory-backed methods and any method on a context without
// a reactor are refused.
func TestBlockingRefusedWithoutReactor(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"inproc", Options{Methods: []MethodConfig{
			{Name: "inproc", Blocking: true, Params: transport.Params{"exchange": "blk-refused"}},
		}}},
		{"tcp/DisableReactor", Options{DisableReactor: true, Methods: []MethodConfig{
			{Name: "tcp", Blocking: true},
		}}},
		{"udp/DisableReactor", Options{DisableReactor: true, Methods: []MethodConfig{
			{Name: "udp", Blocking: true},
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewContext(tc.opts)
			if err == nil {
				c.Close()
				t.Fatal("blocking detection accepted without a reactor")
			}
			if !strings.Contains(err.Error(), "does not support blocking detection") {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
	c, err := NewContext(Options{DisableReactor: true, Methods: []MethodConfig{{Name: "tcp"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.StartBlocking("tcp"); err == nil {
		t.Error("StartBlocking accepted on a context without a reactor")
	}
}
