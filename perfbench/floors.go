package main

import (
	"bytes"
	"fmt"
	"time"

	"nexus/internal/transport"
	"nexus/internal/transport/rudp"
	"nexus/internal/transport/shm"
	"nexus/internal/transport/tcp"
)

// Module floors: a pair of transport modules driven directly with Dial,
// Conn.Send and Module.Poll from one goroutine, with no core above them, on
// the same seeded frames the workloads send. The gap between a workload's op
// time and its floor is what the core (and RPC) layers add.

// contextIDBase keeps module-only floor pairs' context ids clear of the ids
// the core hands out.
const contextIDBase = transport.ContextID(1 << 40)

// checkSink counts delivered frames and compares each with the next frame
// expected; frames arrive in send order on every floor link.
type checkSink struct {
	frames [][]byte
	n      int
	bad    int
}

func (s *checkSink) Deliver(f []byte) {
	if !bytes.Equal(f, s.frames[s.n%len(s.frames)]) {
		s.bad++
	}
	s.n++
}

// modulePair initialises two modules of one method and dials A→B and B→A.
type modulePair struct {
	a, b     transport.Module
	sa, sb   *checkSink
	toB, toA transport.Conn
}

func newModulePair(e *env, method string, frames [][]byte) (*modulePair, error) {
	mk := func() transport.Module {
		switch method {
		case "tcp":
			return tcp.New(nil)
		case "shm":
			return shm.New(transport.Params{"dir": e.shmDir})
		default:
			return rudp.New(nil)
		}
	}
	mp := &modulePair{a: mk(), b: mk(), sa: &checkSink{frames: frames}, sb: &checkSink{frames: frames}}
	da, err := mp.a.Init(transport.Env{Context: contextIDBase + 1, Process: "perfbench", Sink: mp.sa})
	if err != nil {
		return nil, err
	}
	db, err := mp.b.Init(transport.Env{Context: contextIDBase + 2, Process: "perfbench", Sink: mp.sb})
	if err == nil {
		mp.toB, err = mp.a.Dial(*db)
	}
	if err == nil {
		mp.toA, err = mp.b.Dial(*da)
	}
	if err != nil {
		mp.close()
		return nil, err
	}
	return mp, nil
}

func (mp *modulePair) close() {
	for _, c := range []transport.Conn{mp.toB, mp.toA} {
		if c != nil {
			c.Close()
		}
	}
	mp.a.Close()
	mp.b.Close()
}

// pollUntil polls m until sink has seen want frames, timing the polls that
// delivered when hits is non-nil.
func pollUntil(m transport.Module, s *checkSink, want int, hits *latencies) error {
	start := time.Now()
	for spins := 1; s.n < want; spins++ {
		var t0 time.Time
		if hits != nil {
			t0 = time.Now()
		}
		n, err := m.Poll()
		if err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		if n > 0 && hits != nil {
			hits.add(time.Since(t0))
		}
		if spins%4096 == 0 && time.Since(start) > opTimeout {
			return fmt.Errorf("floor: frame %d not delivered within %v", want, opTimeout)
		}
	}
	return nil
}

// pingPongFloor is a module-only round trip (Send A→B, poll B, Send B→A,
// poll A) for dur. For tcp it also times each Send and each poll that
// delivered.
func pingPongFloor(e *env, method string, frames [][]byte, dur time.Duration) (*result, error) {
	res := newResult()
	mp, err := newModulePair(e, method, frames)
	if err != nil {
		return nil, err
	}
	defer mp.close()
	var sends, hits *latencies
	if method == "tcp" {
		sends, hits = newLatencies(1<<17), newLatencies(1<<17)
	}
	rtt := newLatencies(1 << 18)
	rt := func(i int) error {
		f := frames[i%len(frames)]
		t0 := time.Now()
		if err := mp.toB.Send(f); err != nil {
			return err
		}
		if sends != nil {
			sends.add(time.Since(t0))
		}
		if err := pollUntil(mp.b, mp.sb, i+1, hits); err != nil {
			return err
		}
		if err := mp.toA.Send(f); err != nil {
			return err
		}
		if err := pollUntil(mp.a, mp.sa, i+1, hits); err != nil {
			return err
		}
		rtt.add(time.Since(t0))
		return nil
	}
	i := 0
	for warm := time.Now().Add(dur / 4); time.Now().Before(warm); i++ {
		if err := rt(i); err != nil {
			return nil, err
		}
	}
	rtt.ns = rtt.ns[:0]
	if sends != nil {
		sends.ns, hits.ns = sends.ns[:0], hits.ns[:0]
	}
	m0 := mallocs()
	first := i
	for until := time.Now().Add(dur); time.Now().Before(until); i++ {
		if err := rt(i); err != nil {
			return nil, err
		}
	}
	m1 := mallocs()
	n := i - first
	res.attempted = i
	res.failed = mp.sa.bad + mp.sb.bad
	res.set(method+".floor_rtt_us", rtt.p(50))
	res.set(method+".floor_allocs_per_rt", float64(m1-m0)/float64(n))
	if sends != nil {
		res.set("tcp.send_us", sends.p(50))
		res.set("tcp.poll_hit_us", hits.p(50))
	}
	res.note("%s floor: %d round trips, p50 %.3fus", method, n, rtt.p(50))
	return res, nil
}

// rudpBurst is how many frames the rudp floor sends before draining them;
// it stays below the module's default window of 32 so Send never waits
// for acknowledgements the same goroutine would have to poll for.
const rudpBurst = 16

// rudpFloor streams fragment-sized frames one way for dur and reports the
// delivered, verified megabytes per second and the allocations per frame.
func rudpFloor(e *env, frames [][]byte, dur time.Duration) (*result, error) {
	res := newResult()
	mp, err := newModulePair(e, "rudp", frames)
	if err != nil {
		return nil, err
	}
	defer mp.close()
	sent := 0
	var nbytes int64
	burst := func() error {
		for j := 0; j < rudpBurst; j++ {
			f := frames[sent%len(frames)]
			if err := mp.toB.Send(f); err != nil {
				return err
			}
			sent++
			nbytes += int64(len(f))
		}
		return pollUntil(mp.b, mp.sb, sent, nil)
	}
	for warm := time.Now().Add(dur / 4); time.Now().Before(warm); {
		if err := burst(); err != nil {
			return nil, err
		}
	}
	sent0, nbytes0 := sent, nbytes
	m0 := mallocs()
	t0 := time.Now()
	for until := t0.Add(dur); time.Now().Before(until); {
		if err := burst(); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(t0)
	m1 := mallocs()
	res.attempted = sent
	res.failed = mp.sb.bad
	res.set("rudp.floor_mbps", float64(nbytes-nbytes0)/elapsed.Seconds()/1e6)
	res.set("rudp.floor_allocs_per_frame", float64(m1-m0)/float64(sent-sent0))
	res.note("rudp floor: %d frames, %.1f MB/s", sent-sent0, float64(nbytes-nbytes0)/elapsed.Seconds()/1e6)
	return res, nil
}
