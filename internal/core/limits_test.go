package core

import (
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/transport"
	"nexus/internal/transport/rudp"
	_ "nexus/internal/transport/secure"
	"nexus/internal/transport/shm"
	"nexus/internal/transport/udp"
	"nexus/internal/wire"
)

const (
	limitsTestKey = "000102030405060708090a0b0c0d0e0f"
	// sealOverhead is what secure adds to every frame: a 12-byte nonce and
	// a 16-byte GCM tag.
	sealOverhead = 12 + 16
)

// TestMethodInfoMaxMessage pins every method's frame limit as the core reads
// it from the descriptor Init returns: MethodInfo.MaxMessage reports the
// advertised bound (0 for unbounded methods) and the module's fragmentation
// threshold is that bound, or the wire format's cap when there is none.
func TestMethodInfoMaxMessage(t *testing.T) {
	cases := []struct {
		name string
		mc   MethodConfig
		want int
	}{
		{"tcp", MethodConfig{Name: "tcp"}, wire.MaxFrameLen},
		{"udp", MethodConfig{Name: "udp"}, udp.MaxDatagram},
		{"rudp", MethodConfig{Name: "rudp"}, rudp.MaxPayload},
		{"shm", MethodConfig{Name: "shm"}, shm.DefaultRingSize/2 - 8},
		{"secure/tcp", MethodConfig{Name: "secure", Params: transport.Params{"key": limitsTestKey, "inner": "tcp"}},
			wire.MaxFrameLen - sealOverhead},
		{"secure/udp", MethodConfig{Name: "secure", Params: transport.Params{"key": limitsTestKey, "inner": "udp"}},
			udp.MaxDatagram - sealOverhead},
		{"inproc", inprocCfg(), 0},
		{"local", MethodConfig{Name: "local"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.mc.Name == "shm" {
				if !shm.Supported() {
					t.Skip("shm transport requires linux")
				}
				tc.mc.Params = transport.Params{"dir": t.TempDir()}
			}
			c := newCtx(t, "limits-"+tc.name, "", tc.mc)
			var mi *MethodInfo
			for _, m := range c.Methods() {
				if m.Name == tc.mc.Name {
					mi = &m
					break
				}
			}
			if mi == nil {
				t.Fatalf("method %q not enabled", tc.mc.Name)
			}
			if mi.MaxMessage != tc.want {
				t.Errorf("MethodInfo.MaxMessage = %d, want %d", mi.MaxMessage, tc.want)
			}
			threshold := tc.want
			if threshold == 0 {
				threshold = wire.MaxFrameLen
			}
			if got := c.moduleFor(tc.mc.Name).maxMsg; got != threshold {
				t.Errorf("fragmentation threshold = %d, want %d", got, threshold)
			}
		})
	}
}

// TestSecureOverUDPFragmentsPastSealBound sends an RSR whose frame is one
// byte over secure-over-udp's bound: it fits a udp datagram but not once
// sealed, so the startpoint must fragment it rather than hand it whole to a
// connection that refuses it.
func TestSecureOverUDPFragmentsPastSealBound(t *testing.T) {
	mc := MethodConfig{Name: "secure", Params: transport.Params{"key": limitsTestKey, "inner": "udp"}}
	recv := newCtx(t, "limits-secure-udp", "", mc)
	send := newCtx(t, "limits-secure-udp", "", mc)
	bound := udp.MaxDatagram - sealOverhead
	hdr := wire.HeaderLenExt(0, 0)
	// PutBytes adds a 4-byte length and the buffer a 1-byte format tag.
	payload := bulkPayload(bound + 1 - hdr - 5)
	sink := &bulkSink{want: payload}
	ep := recv.NewEndpoint(WithHandler(sink.handler))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
	startPolling(t, recv)

	sendOnce := func() {
		b := buffer.New(len(payload) + 8)
		b.PutBytes(payload)
		if n := hdr + b.EncodedLen(); n != bound+1 {
			t.Fatalf("frame of %d bytes, want %d", n, bound+1)
		}
		if err := sp.RSR("", b); err != nil {
			t.Fatalf("RSR one byte over the secure bound: %v", err)
		}
	}
	// udp may drop a fragment even on loopback: resend until one lands.
	deadline := time.Now().Add(15 * time.Second)
	for sendOnce(); sink.good.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no complete delivery within deadline")
		}
		time.Sleep(100 * time.Millisecond)
		if sink.good.Load() == 0 {
			sendOnce()
		}
	}
	if n := sink.bad.Load(); n != 0 {
		t.Fatalf("%d corrupted/partial deliveries reached the handler", n)
	}
	if m := sp.Method(); m != "secure" {
		t.Errorf("selected %q, want secure", m)
	}
	if send.Stats().Get("frag.messages.sent") == 0 {
		t.Error("frame over the secure bound was not fragmented")
	}
}

// TestModuleGaugesInObserve reads a module's gauge through the context's
// snapshot: shm.segments counts the segment an RSR dialed and returns to 0
// once the method is disabled.
func TestModuleGaugesInObserve(t *testing.T) {
	if !shm.Supported() {
		t.Skip("shm transport requires linux")
	}
	mc := MethodConfig{Name: "shm", Params: transport.Params{"dir": t.TempDir()}}
	recv := newCtx(t, "gauges-shm", "", mc)
	send := newCtx(t, "gauges-shm", "", mc)
	var hits atomic.Int64
	ep := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) { hits.Add(1) }))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
	b := buffer.New(8)
	b.PutInt64(1)
	if err := sp.RSR("", b); err != nil {
		t.Fatal(err)
	}
	if !recv.PollUntil(func() bool { return hits.Load() == 1 }, 5*time.Second) {
		t.Fatal("RSR over shm not delivered")
	}
	if got := send.Observe().Counters["shm.segments"]; got != 1 {
		t.Fatalf("shm.segments = %d with one dialed segment, want 1", got)
	}
	if err := send.DisableMethod("shm"); err != nil {
		t.Fatal(err)
	}
	if got := send.Observe().Counters["shm.segments"]; got != 0 {
		t.Fatalf("shm.segments = %d after DisableMethod, want 0", got)
	}
}
