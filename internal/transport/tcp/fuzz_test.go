package tcp

import (
	"bytes"
	"errors"
	"testing"

	"nexus/internal/wire"
)

// FuzzExtract checks the peer-facing framer against the reference stream
// framer: one byte stream, cut into arbitrary chunks as reads would return
// them, must yield through inConn.extract exactly the frames wire.ReadFrame
// reads from it whole, and both must reject a length above wire.MaxFrameLen.
// cuts gives the chunk sizes (each byte plus one, reused cyclically).
func FuzzExtract(f *testing.F) {
	var good bytes.Buffer
	_ = wire.WriteFrame(&good, (&wire.Frame{Type: wire.TypeRSR, Handler: "h", Payload: []byte("abc")}).Encode())
	_ = wire.WriteFrame(&good, nil)
	_ = wire.WriteFrame(&good, bytes.Repeat([]byte{7}, 300))
	f.Add(good.Bytes(), []byte{0})
	f.Add(good.Bytes(), []byte{2, 200, 5})
	f.Add(append(good.Bytes()[:9:9], 0xFF, 0xFF, 0xFF, 0xFF, 1), []byte{3})
	f.Add([]byte{0, 0, 0, 0}, []byte(nil))
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		var want [][]byte
		r := bytes.NewReader(data)
		wantOversize := false
		for {
			frame, err := wire.ReadFrame(r)
			if err != nil {
				wantOversize = errors.Is(err, wire.ErrOversize)
				break
			}
			want = append(want, frame)
		}

		sink := &collect{}
		ic := &inConn{}
		for off, i := 0, 0; off < len(data) && !ic.isDead; i++ {
			n := len(data) - off
			if len(cuts) > 0 {
				n = min(n, int(cuts[i%len(cuts)])+1)
			}
			ic.buf = append(ic.buf, data[off:off+n]...)
			off += n
			ic.extract(sink)
		}

		got := sink.snapshot()
		if len(got) != len(want) {
			t.Fatalf("extract yielded %d frames, ReadFrame %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d: extract % x, ReadFrame % x", i, got[i], want[i])
			}
		}
		if ic.isDead != wantOversize {
			t.Fatalf("extract rejected=%v, ReadFrame oversize=%v", ic.isDead, wantOversize)
		}
	})
}
