package main

import (
	"bytes"
	"fmt"
	"time"

	"nexus"
	"nexus/internal/bufpool"
	"nexus/internal/frag"
	"nexus/internal/wire"
)

// Microloops: single library calls repeated on seeded inputs, each a phase
// of the traced run and never part of the end-to-end figures.

// layerSuite runs the microloops every traced run reports: wire header
// encode and decode on the workload's frames, frag reassembly of one bulk
// message, and the cost of stats on a local RSR.
func layerSuite(e *env) (*result, error) {
	res := newResult()
	frames := e.in.smallFrames()
	if e.workload == bulkRUDP.name {
		frames, _ = e.in.bulkFrames()
	}
	enc, dec, err := wireLoops(frames)
	if err != nil {
		return nil, err
	}
	res.set("wire.encode_ns", enc)
	res.set("wire.decode_ns", dec)
	addUs, msgs, err := fragLoop(e.in)
	res.attempted += msgs
	if err != nil {
		res.failed++
		return nil, err
	}
	res.set("frag.add_us", addUs)
	ratio, err := statsCostRatio(e.in)
	if err != nil {
		return nil, err
	}
	res.set("obsv.stats_cost_ratio", ratio)
	return res, nil
}

// blockCalls is how many calls one timed block of a microloop makes; the
// reported figure is the median over blocks of the mean per call.
const blockCalls = 4096

// timeBlocks runs fn in blocks of blockCalls calls for dur and returns the
// median per-call time in nanoseconds.
func timeBlocks(dur time.Duration, fn func(i int)) float64 {
	var per []float64
	i := 0
	for until := time.Now().Add(dur); time.Now().Before(until); {
		t0 := time.Now()
		for k := 0; k < blockCalls; k++ {
			fn(i)
			i++
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/blockCalls)
	}
	return median(per)
}

// keepLive holds microloop results so the timed calls are not optimised
// away.
var keepLive int

// wireLoops times wire.EncodeHeaderExt and wire.DecodeInto over frames.
func wireLoops(frames [][]byte) (encNs, decNs float64, err error) {
	decoded := make([]wire.Frame, len(frames))
	for i, f := range frames {
		if err := wire.DecodeInto(&decoded[i], f); err != nil {
			return 0, 0, fmt.Errorf("wire: seeded frame %d does not decode: %w", i, err)
		}
		if !bytes.Equal(decoded[i].Payload, f[len(f)-len(decoded[i].Payload):]) {
			return 0, 0, fmt.Errorf("wire: seeded frame %d payload mismatch", i)
		}
	}
	dst := make([]byte, wire.HeaderLenExt(wire.MaxHandlerLen, 0xff&^(1<<7)))
	encNs = timeBlocks(150*time.Millisecond, func(i int) {
		f := &decoded[i%len(decoded)]
		ext := wire.Ext{FragID: f.FragID, FragIndex: f.FragIndex, FragTotal: f.FragTotal}
		keepLive += wire.EncodeHeaderExt(dst, f.Type, f.Flags, f.DestContext, f.DestEndpoint, f.SrcContext, ext, f.Handler, len(f.Payload))
	})
	var fr wire.Frame
	decNs = timeBlocks(150*time.Millisecond, func(i int) {
		if wire.DecodeInto(&fr, frames[i%len(frames)]) == nil {
			keepLive += len(fr.Payload)
		}
	})
	return encNs, decNs, nil
}

// fragLoop feeds one bulk message's fragments to a standalone reassembler,
// message after message, and returns the p50 time per message in
// microseconds. The first reassembled message is compared with the input.
func fragLoop(in *inputs) (us float64, msgs int, err error) {
	_, chunks := in.bulkFrames()
	r := frag.New(frag.Config{MaxMessage: 16 << 20})
	lat := newLatencies(1 << 14)
	now := time.Now()
	for until := now.Add(300 * time.Millisecond); time.Now().Before(until); msgs++ {
		id := uint64(msgs + 1)
		var out []byte
		t0 := time.Now()
		for i, c := range chunks {
			p, res, _ := r.Add(1, id, uint32(i), uint32(len(chunks)), c, now)
			switch res {
			case frag.Complete:
				out = p
			case frag.Stored:
			default:
				return 0, msgs, fmt.Errorf("frag: fragment %d of message %d: %v", i, id, res)
			}
		}
		lat.add(time.Since(t0))
		if out == nil || (msgs == 0 && !bytes.Equal(out, in.bulkPayloads()[0])) {
			return 0, msgs, fmt.Errorf("frag: message %d reassembled wrong", id)
		}
		bufpool.Put(out)
	}
	return lat.p(50), msgs, nil
}

// statsCostRatio is a local Startpoint.RSR with the latency histograms on
// divided by the same RSR with them off, from alternating blocks.
func statsCostRatio(in *inputs) (float64, error) {
	c, err := nexus.NewContext(nexus.Options{})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	sp := c.NewEndpoint(nexus.WithHandler(func(*nexus.Endpoint, *nexus.Buffer) {})).NewStartpoint()
	req := nexus.NewBuffer(len(in.small[0]))
	req.PutRaw(in.small[0])
	var rsrErr error
	var ratios []float64
	for pair := 0; pair < 24; pair++ {
		var per [2]float64
		for side, on := range []bool{false, true} {
			if on {
				c.EnableStats()
			} else {
				c.DisableObservability()
			}
			per[side] = timeBlocks(5*time.Millisecond, func(int) {
				if err := sp.RSR("", req); err != nil && rsrErr == nil {
					rsrErr = err
				}
			})
		}
		ratios = append(ratios, per[1]/per[0])
	}
	if rsrErr != nil {
		return 0, fmt.Errorf("local rsr: %w", rsrErr)
	}
	return median(ratios), nil
}
