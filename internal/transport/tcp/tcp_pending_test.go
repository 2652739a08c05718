package tcp

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"nexus/internal/metrics"
	"nexus/internal/transport"
	"nexus/internal/wire"
)

// pendingFrame builds an encoded wire frame of the given class whose payload
// is n bytes of tag, so the receive side can identify frames by first byte.
func pendingFrame(cls wire.Class, tag byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = tag
	}
	return (&wire.Frame{Type: wire.TypeRSR, Flags: wire.ClassFlags(cls),
		DestContext: 1, DestEndpoint: 2, SrcContext: 3, Handler: "h", Payload: p}).Encode()
}

// TestPendingDataCapAndControlPriority drives one outConn over a synchronous
// net.Pipe — writes block until the far side reads, so queue states are
// deterministic — and checks the two outConn overload behaviors at once:
// a data sender that would overflow maxPending blocks before queueing, while
// a control-class frame both ignores the cap and drains ahead of the data
// backlog.
func TestPendingDataCapAndControlPriority(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	defer client.Close()
	stats := metrics.NewSet()
	oc := newOutConn(client, 64, stats.Gauge("tcp.pending.bytes"))

	frameA := pendingFrame(wire.ClassNormal, 'A', 20) // fast-path writer, blocks in the pipe
	frameB := pendingFrame(wire.ClassNormal, 'B', 20) // queues: 4+54 = 58 <= 64
	frameC := pendingFrame(wire.ClassNormal, 'C', 20) // would overflow: blocks pre-queue
	frameD := pendingFrame(wire.ClassControl, 'D', 20)

	results := make(map[byte]chan error)
	sendAsync := func(tag byte, frame []byte) {
		ch := make(chan error, 1)
		results[tag] = ch
		go func() { ch <- oc.Send(frame) }()
	}

	waitFor := func(desc string, pred func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !pred() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// A claims the socket and blocks mid-write (nothing reads the pipe yet).
	sendAsync('A', frameA)
	waitFor("A to claim the writer", func() bool {
		oc.mu.Lock()
		defer oc.mu.Unlock()
		return oc.writing
	})

	// B fits under the cap and queues behind the writer.
	sendAsync('B', frameB)
	waitFor("B to queue", func() bool {
		oc.mu.Lock()
		defer oc.mu.Unlock()
		return len(oc.pendingData) == 4+len(frameB)
	})

	// C would push pendingData past the cap: it must block WITHOUT queueing.
	sendAsync('C', frameC)
	time.Sleep(20 * time.Millisecond)
	oc.mu.Lock()
	if got := len(oc.pendingData); got != 4+len(frameB) {
		oc.mu.Unlock()
		t.Fatalf("pendingData grew to %d bytes; capped sender queued anyway", got)
	}
	oc.mu.Unlock()

	// D is control class: the cap does not apply, it queues immediately.
	sendAsync('D', frameD)
	waitFor("D to queue as control", func() bool {
		oc.mu.Lock()
		defer oc.mu.Unlock()
		return len(oc.pendingCtl) == 4+len(frameD)
	})
	if got := stats.Get("tcp.pending.bytes"); got != uint64(4+len(frameB)+4+len(frameD)) {
		t.Fatalf("tcp.pending.bytes = %d, want %d", got, 4+len(frameB)+4+len(frameD))
	}

	// Drain the pipe and record arrival order.
	var order []byte
	br := bufio.NewReader(server)
	for len(order) < 4 {
		frame, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("reading frame %d: %v", len(order), err)
		}
		f, err := wire.Decode(frame)
		if err != nil {
			t.Fatalf("decoding frame %d: %v", len(order), err)
		}
		order = append(order, f.Payload[0])
	}
	for tag, ch := range results {
		select {
		case err := <-ch:
			if err != nil {
				t.Errorf("sender %c: %v", tag, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("sender %c never returned", tag)
		}
	}
	// A was already on the socket; D (control) jumps the queued data; B was
	// queued before C was even admitted.
	want := []byte{'A', 'D', 'B', 'C'}
	if string(order) != string(want) {
		t.Fatalf("arrival order %q, want %q", order, want)
	}
	if got := stats.Get("tcp.pending.bytes"); got != 0 {
		t.Fatalf("tcp.pending.bytes = %d with every frame flushed, want 0", got)
	}
}

// TestCloseAbandonsPending closes an outConn while one frame is mid-write
// and another is queued behind it: the queued sender fails with ErrClosed
// and the pending gauge is back at zero when Close returns.
func TestCloseAbandonsPending(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	stats := metrics.NewSet()
	oc := newOutConn(client, 0, stats.Gauge("tcp.pending.bytes"))
	writer := make(chan error, 1)
	go func() { writer <- oc.Send(pendingFrame(wire.ClassNormal, 'A', 20)) }()
	queued := make(chan error, 1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		oc.mu.Lock()
		writing := oc.writing
		oc.mu.Unlock()
		if writing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for A to claim the writer")
		}
		time.Sleep(time.Millisecond)
	}
	go func() { queued <- oc.Send(pendingFrame(wire.ClassNormal, 'B', 20)) }()
	for stats.Get("tcp.pending.bytes") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for B to queue")
		}
		time.Sleep(time.Millisecond)
	}
	oc.Close()
	if got := stats.Get("tcp.pending.bytes"); got != 0 {
		t.Fatalf("tcp.pending.bytes = %d after Close, want 0", got)
	}
	if err := <-queued; !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("queued Send after Close = %v, want ErrClosed", err)
	}
	if err := <-writer; err == nil {
		t.Fatal("mid-write Send on a closed pipe succeeded")
	}
}

// TestTransportStatsReportsPending checks the module-level gauge in the
// context's metrics set: the key exists once the module is initialized and
// reads zero once the module is closed.
func TestTransportStatsReportsPending(t *testing.T) {
	_, d := initModule(t, nil, 1, &collect{})
	stats := metrics.NewSet()
	send := New(nil)
	if _, err := send.Init(transport.Env{Context: 2, Sink: &collect{}, Stats: stats}); err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	c, err := send.Dial(d)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(pendingFrame(wire.ClassNormal, 'x', 8)); err != nil {
		t.Fatal(err)
	}
	if _, ok := stats.Snapshot()["tcp.pending.bytes"]; !ok {
		t.Fatalf("metrics set missing tcp.pending.bytes: %v", stats.Snapshot())
	}
	send.Close()
	if got := stats.Get("tcp.pending.bytes"); got != 0 {
		t.Fatalf("tcp.pending.bytes = %d after Close, want 0", got)
	}
}
