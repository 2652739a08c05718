package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"nexus"
)

// The three message workloads share one harness: a client context A and a
// peer context B in one process, both driven by the benchmark's one load
// goroutine. An op sends its request from A and then polls B and A in turn
// until the reply has arrived; handlers run inline inside Poll, and every
// reply is checked. Driving both sides from one goroutine keeps an op on
// one CPU. With a goroutine spinning on each side, another tenant's load on
// a 2-vCPU machine took 58–81% off throughput and more than doubled the
// allocations per op (empty polls allocate), so sets of runs taken at
// different times disagreed; from one goroutine the same load took 13–23%
// off throughput and left allocations per op unchanged.

// msgSpec describes one message workload.
type msgSpec struct {
	name     string
	methods  func(e *env) []nexus.MethodConfig
	method   string // the method selection must pick
	rpc      bool   // the op is a unary RPC (Call + Await) instead of an RSR echo
	stats    bool   // latency histograms on (Options.Observe.Stats)
	bulk     bool   // the op is a 1 MiB RSR answered by a one-byte verdict
	sliceOps int    // ops per slice of a measured run (see meter)
}

var (
	smallTCP = &msgSpec{
		name:     "small-tcp",
		methods:  func(*env) []nexus.MethodConfig { return []nexus.MethodConfig{{Name: "tcp"}} },
		method:   "tcp",
		sliceOps: 1000,
	}
	rpcShm = &msgSpec{
		name: "rpc-shm",
		methods: func(e *env) []nexus.MethodConfig {
			return []nexus.MethodConfig{{Name: "shm", Params: nexus.Params{"dir": e.shmDir}}, {Name: "tcp"}}
		},
		method:   "shm",
		rpc:      true,
		stats:    true,
		sliceOps: 1000,
	}
	bulkRUDP = &msgSpec{
		name:     "bulk-rudp",
		methods:  func(*env) []nexus.MethodConfig { return []nexus.MethodConfig{{Name: "rudp"}} },
		method:   "rudp",
		bulk:     true,
		sliceOps: 100, // about a quarter of a second
	}
)

// opTimeout bounds one op; a lost frame fails the run instead of hanging it.
const opTimeout = 10 * time.Second

// errMismatch marks an op whose reply did not match its request.
var errMismatch = errors.New("output mismatch")

// pair is one client/peer context pair with its links and op state. Only
// the load goroutine touches it: the handlers run inside its Poll calls.
type pair struct {
	s        *msgSpec
	a, b     *nexus.Context
	toB      *nexus.Startpoint // A → B's echo endpoint (RSR echo and bulk ops)
	toA      *nexus.Startpoint // B → A's reply endpoint
	rpcB     *nexus.Startpoint // A → B for RPC calls (rpc workloads)
	payloads [][]byte
	reqs     []*nexus.Buffer  // one prebuilt request per payload
	acks     [2]*nexus.Buffer // bulk verdicts: [0] mismatch, [1] match

	cur     int64 // payload index of the op in flight
	got     bool  // the reply of the op in flight arrived
	bad     bool  // ... and did not match
	trace   *tracer
	root    int32 // span id of the op in flight
	opID    int64
	peerErr error // first error raised inside a peer handler
	idle    int   // poll passes over both contexts that delivered nothing
	poll    pollSpan
}

// open builds the pair: two contexts, and endpoints and startpoints in both
// directions. It does not run an op.
func (s *msgSpec) open(e *env) (*pair, error) {
	p := &pair{s: s, root: -1, payloads: e.in.small}
	if s.bulk {
		p.payloads = e.in.bulkPayloads()
	}
	opts := nexus.Options{
		Methods: s.methods(e),
		RPC:     nexus.RPCConfig{Enabled: s.rpc},
		Observe: nexus.ObserveConfig{Stats: s.stats},
	}
	var err error
	if p.a, err = nexus.NewContext(opts); err != nil {
		return nil, err
	}
	if p.b, err = nexus.NewContext(opts); err != nil {
		p.a.Close()
		return nil, err
	}
	epA := p.a.NewEndpoint(nexus.WithHandler(p.onReply))
	epB := p.b.NewEndpoint(nexus.WithHandler(p.onRequest))
	if p.toB, err = nexus.TransferStartpoint(epB.NewStartpoint(), p.a); err == nil {
		p.toA, err = nexus.TransferStartpoint(epA.NewStartpoint(), p.b)
	}
	if err == nil && s.rpc {
		err = nexus.RegisterRPC(p.b, "echo", p.onCall)
		if err == nil {
			p.rpcB, err = nexus.TransferStartpoint(p.b.NewEndpoint().NewStartpoint(), p.a)
		}
	}
	if err == nil {
		var m string
		if m, err = p.toB.SelectMethod(); err == nil && m != s.method {
			err = fmt.Errorf("selection picked %s, want %s", m, s.method)
		}
	}
	if err != nil {
		p.close()
		return nil, err
	}
	if s.bulk {
		for i, v := range []byte{0, 1} {
			p.acks[i] = nexus.NewBuffer(1)
			p.acks[i].PutByte(v)
		}
	}
	p.reqs = make([]*nexus.Buffer, len(p.payloads))
	for i, pl := range p.payloads {
		p.reqs[i] = nexus.NewBuffer(len(pl))
		p.reqs[i].PutRaw(pl)
	}
	return p, nil
}

func (p *pair) close() {
	p.a.Close()
	p.b.Close()
}

// onRequest is B's echo handler: small ops are echoed back byte for byte;
// bulk ops are compared in full here and answered with a verdict byte.
func (p *pair) onRequest(_ *nexus.Endpoint, b *nexus.Buffer) {
	tr, op := p.trace, p.opID
	h := tr.begin(spHandler, p.poll.parentID(), op)
	reply := b
	if p.s.bulk {
		reply = p.acks[0]
		if bytes.Equal(b.Bytes(), p.payloads[p.cur]) {
			reply = p.acks[1]
		}
	}
	r := tr.begin(spReplyRSR, h, op)
	err := p.toA.RSR("", reply)
	tr.end(r)
	tr.end(h)
	if err != nil && p.peerErr == nil {
		p.peerErr = fmt.Errorf("peer reply: %w", err)
	}
}

// onReply is A's handler: it checks the echo (or reads the verdict) of the
// op in flight.
func (p *pair) onReply(_ *nexus.Endpoint, b *nexus.Buffer) {
	h := p.trace.begin(spHandler, p.poll.parentID(), p.opID)
	if p.s.bulk {
		p.bad = b.Len() != 1 || b.Bytes()[0] != 1
	} else {
		p.bad = !bytes.Equal(b.Bytes(), p.payloads[p.cur])
	}
	p.got = true
	p.trace.end(h)
}

// onCall is B's RPC handler: it replies with the request payload.
func (p *pair) onCall(req *nexus.RPCRequest, r *nexus.Responder) {
	tr, op := p.trace, p.opID
	h := tr.begin(spHandler, p.poll.parentID(), op)
	rs := tr.begin(spReply, h, op)
	err := r.Reply(req.Payload)
	tr.end(rs)
	tr.end(h)
	if err != nil && p.peerErr == nil {
		p.peerErr = fmt.Errorf("rpc reply: %w", err)
	}
}

// op runs operation i of the workload (RPC or RSR echo per the spec) with
// tracing on when p.trace is non-nil. A reply that does not match is
// reported as errMismatch; any other error leaves the pair unusable.
func (p *pair) op(i int64) error {
	if p.s.rpc {
		return p.rpcOp(i)
	}
	return p.echoOp(i)
}

// begin publishes the op in flight to the handlers and opens its root span.
func (p *pair) begin(i int64) (idx int64, root int32) {
	idx = i % int64(len(p.reqs))
	p.cur, p.opID, p.got = idx, i, false
	p.root = p.trace.begin(spOp, -1, i)
	return idx, p.root
}

// await polls B and then A, again and again, until the op in flight is
// answered: the echo handler has run (f == nil) or the call's future is
// complete.
func (p *pair) await(i int64, f *nexus.Future) error {
	start := time.Now()
	for spins := 1; ; spins++ {
		if p.peerErr != nil {
			return p.peerErr
		}
		if (f == nil && p.got) || (f != nil && f.Done()) {
			return nil
		}
		n := 0
		for _, c := range [2]*nexus.Context{p.b, p.a} {
			p.poll.open(p.trace, p.root, i)
			k := c.Poll()
			p.poll.close(k)
			n += k
		}
		if n == 0 {
			p.idle++
			runtime.Gosched()
			if spins%1024 == 0 && time.Since(start) > opTimeout {
				return fmt.Errorf("op %d: no reply within %v", i, opTimeout)
			}
		}
	}
}

// echoOp sends request i over the RSR link and polls until the reply (echo
// or verdict) has been checked.
func (p *pair) echoOp(i int64) error {
	idx, root := p.begin(i)
	defer p.trace.end(root)
	rs := p.trace.begin(spRSR, root, i)
	err := p.toB.RSR("", p.reqs[idx])
	p.trace.end(rs)
	if err != nil {
		return fmt.Errorf("rsr: %w", err)
	}
	if err := p.await(i, nil); err != nil {
		return err
	}
	if p.bad {
		return errMismatch
	}
	return nil
}

// rpcOp is one unary call to B's echo method, compared byte for byte. The
// future is awaited once it is complete, so Await's span is the RPC layer's
// cost of handing over the result.
func (p *pair) rpcOp(i int64) error {
	idx, root := p.begin(i)
	defer p.trace.end(root)
	cs := p.trace.begin(spCall, root, i)
	f, err := nexus.Call(p.rpcB, "echo", p.reqs[idx], nexus.CallOptions{Timeout: opTimeout})
	p.trace.end(cs)
	if err != nil {
		return fmt.Errorf("call: %w", err)
	}
	if err := p.await(i, f); err != nil {
		return err
	}
	as := p.trace.begin(spAwait, root, i)
	res, err := f.Await()
	p.trace.end(as)
	if err != nil {
		return fmt.Errorf("await: %w", err)
	}
	if !bytes.Equal(res.Bytes(), p.payloads[idx]) {
		return errMismatch
	}
	return nil
}

// opBytes is the verified payload size of op i.
func (p *pair) opBytes(i int64) int { return len(p.payloads[i%int64(len(p.reqs))]) }

// block runs ops back to back from op number first until the deadline (or
// until the span log fills), traced when tr is non-nil, feeding each op to
// lat or m when they are non-nil. It returns the ops run and how many
// failed the output check.
func (p *pair) block(first int64, until time.Time, tr *tracer, lat *latencies, m *meter) (ops, bad int, err error) {
	p.trace = tr
	defer func() { p.trace = nil }()
	for i := first; ; i++ {
		t0 := time.Now()
		err := p.op(i)
		t1 := time.Now()
		ops++
		nbytes := 0
		switch {
		case errors.Is(err, errMismatch):
			bad++
		case err != nil:
			return ops, bad + 1, err
		default:
			nbytes = p.opBytes(i)
		}
		if lat != nil {
			lat.add(t1.Sub(t0))
		}
		if m != nil {
			m.op(t1.Sub(t0), nbytes, t1)
		}
		if !t1.Before(until) || (tr != nil && tr.full()) {
			return ops, bad, nil
		}
	}
}

// setupReps is how many times a run sets up its contexts; setup_s is the
// median (one set-up takes milliseconds and waits on the library's
// goroutines, so single ones vary several-fold), and the last pair carries
// the measured ops.
const setupReps = 101

// openTimed sets a pair up setupReps times, from nothing to the first
// completed op, and returns the last pair with the set-up times.
func (s *msgSpec) openTimed(e *env, res *result) (*pair, []time.Duration, error) {
	var times []time.Duration
	for rep := 0; ; rep++ {
		// Each set-up starts from a collected heap, so none of them pays for
		// a collection of the previous ones' garbage.
		runtime.GC()
		t0 := time.Now()
		p, err := s.open(e)
		if err != nil {
			return nil, nil, err
		}
		err = p.op(0)
		times = append(times, time.Since(t0))
		res.attempted++
		if err != nil {
			res.failed++
			p.close()
			return nil, nil, fmt.Errorf("first op: %w", err)
		}
		if rep == setupReps-1 {
			return p, times, nil
		}
		p.close()
	}
}

// warmUp runs untimed ops so lazy set-up (pools, connection buffers, the
// reactor's hot windows) is done before measuring.
const warmUp = 300 * time.Millisecond

// measureMsg is the untraced end-to-end run of a message workload.
func measureMsg(e *env, s *msgSpec) (*result, error) {
	res := newResult()
	if s.bulk {
		e.in.bulkPayloads()
	}
	m := newMeter(s.sliceOps)
	m.heap.base = heapBase()
	p, setups, err := s.openTimed(e, res)
	if err != nil {
		return nil, err
	}
	defer p.close()
	if _, _, err := p.block(1, time.Now().Add(warmUp), nil, nil, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	m.begin()
	t0 := time.Now()
	ops, bad, err := p.block(1<<40, t0.Add(e.seconds), nil, nil, m)
	elapsed := time.Since(t0)
	res.attempted += ops
	res.failed += bad
	if err != nil {
		return nil, err
	}
	m.set(res, time.Now())
	res.set("setup_s", medianDuration(setups))
	res.note("%s: %d ops in %.3fs, %d slices of %d ops, %d set-ups", s.name, ops, elapsed.Seconds(), len(m.rates), s.sliceOps, len(setups))
	return res, nil
}

// methodPolls sums Context.Methods() Polls over both contexts, by method.
func (p *pair) methodPolls() map[string]uint64 {
	out := map[string]uint64{}
	for _, c := range []*nexus.Context{p.a, p.b} {
		for _, m := range c.Methods() {
			out[m.Name] += m.Polls
		}
	}
	return out
}

// fragCounts are the frag.* counters of Context.Stats(), summed over both
// contexts.
type fragCounts struct {
	fragments, messages, assembled, wasted uint64
}

func (p *pair) fragCounters() fragCounts {
	sum := func(names ...string) uint64 {
		var n uint64
		for _, name := range names {
			n += p.a.Stats().Get(name) + p.b.Stats().Get(name)
		}
		return n
	}
	return fragCounts{
		fragments: sum("frag.fragments.sent"),
		messages:  sum("frag.messages.sent"),
		assembled: sum("frag.assembled"),
		wasted:    sum("frag.expired", "frag.duplicates"),
	}
}

// profileMsg is the traced path of a message workload. Untraced and traced
// blocks alternate, so the tracing overhead is measured against the same
// pair; counters and allocations are read over the untraced blocks. The
// workload's module floor runs afterwards in the same process, so the
// remainder (op time the transport does not explain) is a paired figure.
func profileMsg(e *env, s *msgSpec, full bool) (*result, error) {
	res := newResult()
	budget, blockLen, capacity, path := e.seconds, 50*time.Millisecond, fullSpans, s.name
	if !full {
		budget, blockLen, capacity, path = 400*time.Millisecond, 20*time.Millisecond, miniSpans, s.name+"(mini)"
	}
	tr := newTracer(e, path, capacity)
	p, err := s.open(e)
	if err != nil {
		return nil, err
	}
	defer func() {
		if p != nil {
			p.close()
		}
	}()
	if _, _, err := p.block(0, time.Now().Add(warmUp/2), nil, nil, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	latU, latT := newLatencies(1<<18), newLatencies(1<<18)
	var opsU, idleU int
	var allocU uint64
	var cpuU0, cpuU1 cpuClock
	pollsU := map[string]uint64{}
	frags0 := p.fragCounters()
	next := int64(1 << 40)
	start := time.Now()
	for traced := false; time.Since(start) < budget && !tr.full(); traced = !traced {
		until := time.Now().Add(blockLen)
		if traced {
			ops, bad, err := p.block(next, until, tr, latT, nil)
			next += int64(ops)
			res.attempted += ops
			res.failed += bad
			if err != nil {
				return nil, err
			}
			continue
		}
		polls0, idle0 := p.methodPolls(), p.idle
		m0, c0 := mallocs(), readCPU()
		ops, bad, err := p.block(next, until, nil, latU, nil)
		c1, m1 := readCPU(), mallocs()
		idle1, polls1 := p.idle, p.methodPolls()
		next += int64(ops)
		res.attempted += ops
		res.failed += bad
		if err != nil {
			return nil, err
		}
		opsU += ops
		idleU += idle1 - idle0
		allocU += m1 - m0
		cpuU0.gc, cpuU0.used = cpuU0.gc+c0.gc, cpuU0.used+c0.used
		cpuU1.gc, cpuU1.used = cpuU1.gc+c1.gc, cpuU1.used+c1.used
		for m, v := range polls1 {
			pollsU[m] += v - polls0[m]
		}
	}
	opsAll := next - 1<<40
	frags := p.fragCounters()
	st := tr.summarize()
	noteSpans(res, tr, st)
	if len(latU.ns) == 0 || len(latT.ns) == 0 {
		return nil, fmt.Errorf("%s: no ops completed in the profile window", s.name)
	}
	opU := latU.p(50)
	res.set("trace.overhead_frac", latT.p(50)/opU-1)
	res.set("runtime.gc_cpu_frac", gcFrac(cpuU0, cpuU1))
	allocsPerOp := float64(allocU) / float64(opsU)
	if v, ok := p50us(st[spRSR].dur); ok {
		res.set("core.rsr_us", v)
	}
	if v, ok := p50us(st[spPoll].dur); ok {
		res.set("core.poll_hit_us", v)
		self, _ := p50us(st[spPoll].self)
		res.set("core.poll_hit_self_us", self)
	}
	res.set("core.idle_polls_per_op", float64(idleU)/float64(opsU))
	res.set("core.idle_poll_ns", p.emptyPollNs())
	for _, m := range []string{"local", "tcp", "shm", "rudp", "mpl"} {
		res.set("core.method_polls_per_op."+m, float64(pollsU[m])/float64(opsU))
	}
	if s.rpc {
		for name, sp := range map[string]int{"rpc.call_us": spCall, "rpc.await_us": spAwait, "rpc.reply_us": spReply} {
			if v, ok := p50us(st[sp].dur); ok {
				res.set(name, v)
			}
		}
		ratio, ops, err := p.overRSR(full)
		res.attempted += ops
		if err != nil {
			return nil, err
		}
		res.set("rpc.over_rsr_ratio", ratio)
		// After the pairing, so the RSR echoes there fill the handler stage
		// (RPC requests are timed as rpc_serve instead).
		observeStages(res, p)
	}
	if s.bulk {
		res.set("frag.fragments_per_op", float64(frags.fragments-frags0.fragments)/float64(opsAll))
		if sent := frags.messages - frags0.messages; sent > 0 {
			res.set("frag.assembled_ratio", float64(frags.assembled-frags0.assembled)/float64(sent))
		}
		res.set("frag.wasted_per_op", float64(frags.wasted-frags0.wasted)/float64(opsAll))
	}
	p.close()
	p = nil

	// The module floor under this workload, and what the core adds on top.
	floorLen := 600 * time.Millisecond
	if !full {
		floorLen = 200 * time.Millisecond
	}
	var floor *result
	if s.bulk {
		frames, _ := e.in.bulkFrames()
		floor, err = rudpFloor(e, frames, floorLen)
		if err == nil {
			// The floor moves 1 MiB in bulkBytes/rate and allocates per frame.
			res.set("core.remainder_us", opU-float64(bulkBytes)/floor.values["rudp.floor_mbps"])
			res.set("core.allocs_remainder_per_op", allocsPerOp-res.values["frag.fragments_per_op"]*floor.values["rudp.floor_allocs_per_frame"])
		}
	} else {
		floor, err = pingPongFloor(e, s.method, e.in.smallFrames(), floorLen)
		if err == nil {
			res.set("core.remainder_us", opU-floor.values[s.method+".floor_rtt_us"])
			res.set("core.allocs_remainder_per_op", allocsPerOp-floor.values[s.method+".floor_allocs_per_rt"])
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s floor: %w", s.method, err)
	}
	res.absorb(floor)
	res.note("%s profile: %d ops (%d untraced), op p50 untraced %.3fus traced %.3fus", path, opsAll, opsU, opU, latT.p(50))
	return res, nil
}

// emptyPollNs is the mean time of a Context.Poll pass over the peer context
// with nothing in flight: what every empty pass costs, the idle methods'
// share included.
func (p *pair) emptyPollNs() float64 {
	return timeBlocks(100*time.Millisecond, func(int) { keepLive += p.b.Poll() })
}

// observeStages reads the per-stage latency histograms from both contexts'
// Context.Observe() snapshots and reports, per stage, the count-weighted mean
// over the carrying method and the RPC method. The idle tcp rows are left
// out: they time polls that find nothing. Means, not the snapshot's p50s:
// those are power-of-two bucket bounds, too coarse to show a change.
func observeStages(res *result, p *pair) {
	type acc struct {
		sum, n float64
	}
	stages := map[string]*acc{}
	for _, c := range []*nexus.Context{p.a, p.b} {
		for _, l := range c.Observe().Latencies {
			if l.Method != p.s.method && l.Method != "rpc:echo" {
				continue
			}
			a := stages[l.Stage]
			if a == nil {
				a = &acc{}
				stages[l.Stage] = a
			}
			a.sum += float64(l.Count) * float64(l.Mean.Nanoseconds()) / 1e3
			a.n += float64(l.Count)
		}
	}
	for _, st := range []string{"send", "poll", "handler", "rpc_call", "rpc_serve"} {
		if a := stages[st]; a != nil && a.n > 0 {
			res.set("obsv.stage_mean_us."+st, a.sum/a.n)
		}
	}
}

// overRSR alternates blocks of RPC calls and RSR echoes over the same pair
// and returns the median of the per-block-pair ratio of their p50s.
func (p *pair) overRSR(full bool) (ratio float64, ops int, err error) {
	pairs, blockOps := 40, 200
	if !full {
		pairs = 8
	}
	var ratios []float64
	lat := newLatencies(blockOps)
	i := int64(1 << 50)
	for k := 0; k < pairs; k++ {
		var p50 [2]float64
		for side, rpcSide := range []bool{true, false} {
			lat.ns = lat.ns[:0]
			for j := 0; j < blockOps; j++ {
				t0 := time.Now()
				if rpcSide {
					err = p.rpcOp(i)
				} else {
					err = p.echoOp(i)
				}
				lat.add(time.Since(t0))
				i++
				ops++
				if err != nil {
					return 0, ops, fmt.Errorf("rpc/rsr pairing: %w", err)
				}
			}
			p50[side] = lat.p(50)
		}
		ratios = append(ratios, p50[0]/p50[1])
	}
	return median(ratios), ops, nil
}

// Workload entry points.

func measureSmallTCP(e *env) (*result, error) { return measureMsg(e, smallTCP) }
func measureRPCShm(e *env) (*result, error)   { return measureMsg(e, rpcShm) }
func measureBulkRUDP(e *env) (*result, error) { return measureMsg(e, bulkRUDP) }

func profileSmallTCP(e *env, full bool) (*result, error) { return profileMsg(e, smallTCP, full) }
func profileRPCShm(e *env, full bool) (*result, error)   { return profileMsg(e, rpcShm, full) }
func profileBulkRUDP(e *env, full bool) (*result, error) { return profileMsg(e, bulkRUDP, full) }
