package main

import (
	"fmt"
	"runtime"
	"time"

	"nexus/internal/cluster"
	"nexus/internal/core"
	"nexus/internal/metrics"
	"nexus/internal/simnet"
	"nexus/internal/transport"
)

// gossip-churn: N contexts on a zero-latency simnet fabric, each with a
// default cluster.NodeConfig (auto-register on) seeded from the plan. All
// join through rank 0; then K leave, K crash and K fresh contexts join; then
// the fabric is split into even and odd ranks and healed. Rounds are driven
// from this goroutine with Node.Step and Context.Poll sweeps. An op is one
// gossip round.

const (
	gossipN        = 128
	gossipK        = 3 // about N/50, as the cluster package's own scale harness churns
	gossipMiniN    = 48
	gossipMiniK    = 1
	gossipRoundCap = 200 // a phase that needs more rounds has failed
	// partitionRounds is how long the halves stay split before the heal:
	// three times the failure detector's dead-after factor, so each half
	// tombstones the other (the cluster scale harness uses the same).
	partitionRounds = 9
	// drainWaves bounds the poll sweeps of one round (digest, delta and
	// push each ripen at once on a zero-latency fabric).
	drainWaves   = 10
	gossipSetups = 7
)

var gossipPhases = [3]string{"join", "churn", "heal"}

// gossipRun is one scenario's state and measurements.
type gossipRun struct {
	plan  gossipPlan
	tag   string
	ctxs  []*core.Context
	nodes []*cluster.Node
	stats []*metrics.Set // every context ever created, for counter sums
	seedT *transport.Table
	seedE uint64
	tr    *tracer
	heap  *heapProbe
	op    int64

	lat        *latencies // per round, the three phases only
	rounds     [3]int     // rounds to agreement per phase
	phaseTime  [3]time.Duration
	drainTotal time.Duration
	idle       int   // polls that delivered nothing
	idleNs     int64 // ... their total time (traced runs)
	counters   map[string]uint64
	goneIDs    []transport.ContextID // context ids of the leavers and crashed contexts
	fpRounds   [3]int                // rounds until the fingerprints first agreed, per phase
	misviewed  [3]int                // misviewedMembers at each phase's end
	allocs     uint64                // heap allocations during the phases
}

var gossipSeq int

func methodsFor(tag string) []core.MethodConfig {
	return []core.MethodConfig{{
		Name:   "mpl",
		Params: transport.Params{"fabric": tag, "latency": "0s", "poll_cost": "0s", "bandwidth": "0"},
	}}
}

// addContext boots one context with its gossip agent.
func (g *gossipRun) addContext(rank int) error {
	ctx, err := core.NewContext(core.Options{Partition: "perfbench", Methods: methodsFor(g.tag)})
	if err != nil {
		return err
	}
	g.ctxs = append(g.ctxs, ctx)
	g.nodes = append(g.nodes, cluster.Attach(ctx, cluster.NodeConfig{Seed: g.plan.seeds[rank]}))
	g.stats = append(g.stats, ctx.Stats())
	return nil
}

// setupGossip boots, attaches and joins the plan's N contexts: the set-up
// the scenario's first round starts from.
func setupGossip(plan gossipPlan) (*gossipRun, error) {
	gossipSeq++
	g := &gossipRun{plan: plan, tag: fmt.Sprintf("perfbench-gossip-%d", gossipSeq), counters: map[string]uint64{}}
	for i := 0; i < plan.n; i++ {
		if err := g.addContext(i); err != nil {
			g.close()
			return nil, err
		}
	}
	g.seedT, g.seedE = g.nodes[0].Bootstrap()
	for i := 1; i < plan.n; i++ {
		if err := g.nodes[i].Join(g.seedT, g.seedE); err != nil {
			g.close()
			return nil, fmt.Errorf("join %d: %w", i, err)
		}
	}
	return g, nil
}

func (g *gossipRun) close() {
	for _, c := range g.ctxs {
		if c != nil {
			c.Close()
		}
	}
}

// live is the number of agents still in the cluster.
func (g *gossipRun) live() int {
	n := 0
	for _, nd := range g.nodes {
		if nd != nil && !nd.Closed() {
			n++
		}
	}
	return n
}

// round runs one gossip round: a Step on every live agent, then poll sweeps
// until a sweep delivers nothing.
func (g *gossipRun) round() {
	tr, op := g.tr, g.op
	g.op++
	root := tr.begin(spRound, -1, op)
	for _, n := range g.nodes {
		if n != nil && !n.Closed() {
			s := tr.begin(spStep, root, op)
			n.Step()
			tr.end(s)
		}
	}
	d0 := time.Now()
	var ps pollSpan
	for w := 0; w < drainWaves; w++ {
		total := 0
		for _, c := range g.ctxs {
			if c == nil {
				continue
			}
			ps.open(tr, root, op)
			k := c.Poll()
			d := ps.close(k)
			total += k
			if k == 0 {
				g.idle++
				g.idleNs += d
			}
		}
		if total == 0 {
			break
		}
	}
	g.drainTotal += time.Since(d0)
	tr.end(root)
}

// counterSum adds the named counters over every context ever created.
func (g *gossipRun) counterSum(names ...string) uint64 {
	var s uint64
	for _, st := range g.stats {
		for _, n := range names {
			s += st.Get(n)
		}
	}
	return s
}

// gossipCounters are read at each phase's start and end; their deltas are
// the phase traffic.
var gossipCounters = []string{"bytes.recv", "cluster.merged", "cluster.digest.tx", "cluster.delta.tx", "cluster.push.tx"}

// settle runs rounds until every live agent holds the same registry and
// that registry is the scenario's ground truth, plus one more round that
// folds the final records into the peer tables (as cluster.Settle does). It
// reports whether the phase ended there: agreement (cluster.Converged) on a
// registry that lists exactly wantLive live members, none of them a context
// that left or crashed.
func (g *gossipRun) settle(phase int, wantLive int) bool {
	before := map[string]uint64{}
	for _, n := range gossipCounters {
		before[n] = g.counterSum(n)
	}
	m0 := mallocs()
	start := time.Now()
	agreed := func() bool {
		if !cluster.Converged(g.nodes) {
			return false
		}
		if g.fpRounds[phase] == 0 {
			g.fpRounds[phase] = g.rounds[phase]
		}
		return g.misviewedMembers(wantLive) == 0
	}
	ok := false
	for r := 1; r <= gossipRoundCap && !ok; r++ {
		t0 := time.Now()
		g.round()
		g.rounds[phase] = r
		ok = agreed()
		g.lat.add(time.Since(t0))
		g.heap.observe()
	}
	if ok {
		t0 := time.Now()
		g.round()
		g.lat.add(time.Since(t0))
		g.heap.observe()
		ok = agreed()
	}
	g.phaseTime[phase] = time.Since(start)
	g.allocs += mallocs() - m0
	for _, n := range gossipCounters {
		g.counters[n] += g.counterSum(n) - before[n]
	}
	g.misviewed[phase] = g.misviewedMembers(wantLive)
	return ok
}

// misviewedMembers compares node 0's registry (every live agent holds the
// same one once Converged holds) with the scenario's ground truth. It counts
// the live agents the registry lists as departed or not at all, plus the
// contexts that left or crashed it still lists as live; with none of those,
// it is how far the registry's live record count is from wantLive.
func (g *gossipRun) misviewedMembers(wantLive int) int {
	reg := g.nodes[0].Registry()
	n := 0
	for _, nd := range g.nodes {
		if nd == nil || nd.Closed() {
			continue
		}
		if rec, ok := reg.Get(nd.Context().ID()); !ok || rec.Tombstone {
			n++
		}
	}
	for _, id := range g.goneIDs {
		if rec, ok := reg.Get(id); ok && !rec.Tombstone {
			n++
		}
	}
	if n > 0 {
		return n
	}
	live := 0
	for _, rec := range reg.Snapshot() {
		if !rec.Tombstone {
			live++
		}
	}
	return max(live-wantLive, wantLive-live)
}

// scenario runs the three phases on a set-up cluster. failedRounds counts
// the rounds of phases that did not reach the expected membership.
func (g *gossipRun) scenario() (failedRounds int, err error) {
	check := func(phase int, want int) {
		if !g.settle(phase, want) {
			failedRounds += g.rounds[phase] + 1
		}
	}
	p := g.plan
	check(0, p.n)
	for _, r := range p.leave {
		g.goneIDs = append(g.goneIDs, g.ctxs[r].ID())
		g.nodes[r].Leave()
	}
	for _, r := range p.crash {
		g.goneIDs = append(g.goneIDs, g.ctxs[r].ID())
		g.ctxs[r].Close()
		g.ctxs[r], g.nodes[r] = nil, nil
	}
	for i := 0; i < p.k; i++ {
		if err := g.addContext(p.n + i); err != nil {
			return failedRounds, err
		}
		if err := g.nodes[len(g.nodes)-1].Join(g.seedT, g.seedE); err != nil {
			return failedRounds, fmt.Errorf("fresh join: %w", err)
		}
	}
	check(1, p.n-p.k)
	faults := simnet.GetOrCreateFabric(g.tag + "/mpl").Faults()
	var even, odd []transport.ContextID
	for i, c := range g.ctxs {
		if c == nil {
			continue
		}
		if i%2 == 0 {
			even = append(even, c.ID())
		} else {
			odd = append(odd, c.ID())
		}
	}
	faults.Partition(even, odd)
	tr := g.tr
	g.tr = nil // the split rounds are not ops
	for r := 0; r < partitionRounds; r++ {
		g.round()
	}
	g.tr = tr
	faults.Heal()
	check(2, p.n-p.k)
	faults.Reset()
	return failedRounds, nil
}

// gossipOutcome is one measured scenario.
type gossipOutcome struct {
	g        *gossipRun
	setups   []time.Duration
	failed   int
	ops      int
	allocs   uint64
	cpu0     cpuClock
	cpu1     cpuClock
	converge time.Duration
}

// runGossipScenario sets up gossipSetups times (all but the last closed at
// once) and runs the scenario on the last cluster, with base the live heap
// to leave out of its heap samples. The caller closes the cluster.
func runGossipScenario(plan gossipPlan, tr *tracer, base uint64) (*gossipOutcome, error) {
	out := &gossipOutcome{}
	for rep := 0; rep < gossipSetups; rep++ {
		runtime.GC()
		t0 := time.Now()
		g, err := setupGossip(plan)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0))
		if rep < gossipSetups-1 {
			g.close()
			continue
		}
		out.g = g
	}
	g := out.g
	g.tr = tr
	g.lat = newLatencies(4 * gossipRoundCap)
	runtime.GC()
	g.heap = newHeapProbe(base)
	c0 := readCPU()
	failed, err := g.scenario()
	c1 := readCPU()
	if err != nil {
		g.close()
		return nil, err
	}
	out.failed = failed
	out.ops = len(g.lat.ns)
	out.allocs = g.allocs
	out.cpu0, out.cpu1 = c0, c1
	for _, d := range g.phaseTime {
		out.converge += d
	}
	return out, nil
}

// An untraced run measures whole scenarios, each on its own plan drawn from
// the seed, until their phases have taken --seconds (and at least
// minGossipScenarios). Round costs vary widely within a scenario and the
// heal phase's length varies between plans, so one scenario's median round
// is not a steady figure on its own.
const minGossipScenarios = 2

func measureGossip(e *env) (*result, error) {
	res := newResult()
	lat := newLatencies(1 << 12)
	heap := &heapProbe{}
	base := heapBase()
	var setups []time.Duration
	var rates, goodputs []float64
	var allocs uint64
	var converge time.Duration
	var rounds int
	for j := 0; j < minGossipScenarios || converge < e.seconds; j++ {
		o, err := runGossipScenario(newGossipPlan(e.seed, j, gossipN, gossipK), nil, base)
		if err != nil {
			return nil, err
		}
		g := o.g
		g.close()
		res.attempted += o.ops
		res.failed += o.failed
		lat.ns = append(lat.ns, g.lat.ns...)
		setups = append(setups, o.setups...)
		secs := o.converge.Seconds()
		rates = append(rates, float64(o.ops)/secs)
		goodputs = append(goodputs, float64(g.counters["bytes.recv"])/secs/1e6)
		allocs += o.allocs
		heap.peaks = append(heap.peaks, g.heap.peakMB())
		converge += o.converge
		r := g.rounds[0] + g.rounds[1] + g.rounds[2]
		rounds += r
		res.note("gossip-churn plan %d: converge_s %.6f s, converge_rounds %d (join %d, churn %d, heal %d), fingerprints first agreed at rounds %v, misviewed members at phase ends %v",
			j, secs, r, g.rounds[0], g.rounds[1], g.rounds[2], g.fpRounds, g.misviewed)
	}
	// Each scenario is one slice (see meter): throughput and goodput are
	// trimmed means over scenarios.
	res.set("op_p50_us", lat.p(50))
	res.set("op_p99_us", lat.p(99))
	res.set("ops_per_s", trimmedMean(rates))
	res.set("goodput_mbps", trimmedMean(goodputs))
	res.set("allocs_per_op", float64(allocs)/float64(res.attempted))
	res.set("setup_s", medianDuration(setups))
	res.set("peak_heap_mb", heap.peakMB())
	res.note("gossip-churn: converge_s %.6f s, converge_rounds %d over %d scenarios, %d round samples, %d set-ups",
		converge.Seconds(), rounds, len(rates), len(lat.ns), len(setups))
	return res, nil
}

// profileGossip is the traced path: for the full run an untraced scenario
// first (the baseline for the tracing overhead), then a traced one; a mini
// run is one traced scenario on a small cluster.
func profileGossip(e *env, full bool) (*result, error) {
	res := newResult()
	n, k, path, capacity := gossipN, gossipK, "gossip-churn", fullSpans
	if !full {
		n, k, path, capacity = gossipMiniN, gossipMiniK, "gossip-churn(mini)", miniSpans
	}
	plan := newGossipPlan(e.seed, 0, n, k)
	var baseP50 float64
	if full {
		o, err := runGossipScenario(plan, nil, 0)
		if err != nil {
			return nil, err
		}
		o.g.close()
		res.attempted += o.ops
		res.failed += o.failed
		baseP50 = o.g.lat.p(50)
		res.set("runtime.gc_cpu_frac", gcFrac(o.cpu0, o.cpu1))
	}
	tr := newTracer(e, path, capacity)
	o, err := runGossipScenario(plan, tr, 0)
	if err != nil {
		return nil, err
	}
	defer o.g.close()
	g := o.g
	res.attempted += o.ops
	res.failed += o.failed
	st := tr.summarize()
	noteSpans(res, tr, st)
	if full {
		res.set("trace.overhead_frac", g.lat.p(50)/baseP50-1)
	}
	rounds := float64(o.ops)
	if v, ok := p50us(st[spPoll].dur); ok {
		res.set("core.poll_hit_us", v)
		self, _ := p50us(st[spPoll].self)
		res.set("core.poll_hit_self_us", self)
	}
	// Empty polls and polls per method count every round driven, the split
	// rounds before the heal included.
	res.set("core.idle_polls_per_op", float64(g.idle)/float64(g.op))
	if g.idle > 0 {
		res.set("core.idle_poll_ns", float64(g.idleNs)/float64(g.idle))
	}
	polls := map[string]uint64{}
	for _, c := range g.ctxs {
		if c != nil {
			for _, m := range c.Methods() {
				polls[m.Name] += m.Polls
			}
		}
	}
	for _, m := range []string{"local", "tcp", "shm", "rudp", "mpl"} {
		res.set("core.method_polls_per_op."+m, float64(polls[m])/float64(g.op))
	}

	var stepNs int64
	for _, d := range st[spStep].dur {
		stepNs += d
	}
	if len(st[spStep].dur) > 0 {
		res.set("cluster.step_us_per_node", float64(stepNs)/float64(len(st[spStep].dur))/1e3)
	}
	res.set("cluster.drain_ms_per_round", float64(g.drainTotal.Nanoseconds())/1e6/float64(int(g.op)))
	res.set("cluster.msgs_per_round", float64(g.counters["cluster.digest.tx"]+g.counters["cluster.delta.tx"]+g.counters["cluster.push.tx"])/rounds)
	res.set("names.merges_per_round", float64(g.counters["cluster.merged"])/rounds)
	for i, name := range gossipPhases {
		res.set("cluster.rounds."+name, float64(g.rounds[i]))
		res.set("cluster.phase_s."+name, g.phaseTime[i].Seconds())
	}
	digest, snap := namesLoops(g.nodes[0])
	res.set("names.digest_us", digest)
	res.set("names.snapshot_us", snap)
	res.note("%s profile: %d rounds, converge %.3fs, live %d", path, o.ops, o.converge.Seconds(), g.live())
	return res, nil
}

// namesLoops times Registry.Digest(0, 512) and Registry.Snapshot() on a
// converged registry and returns their p50s in microseconds.
func namesLoops(n *cluster.Node) (digestUs, snapshotUs float64) {
	reg := n.Registry()
	d, s := newLatencies(4096), newLatencies(4096)
	for until := time.Now().Add(200 * time.Millisecond); time.Now().Before(until); {
		t0 := time.Now()
		dg, _ := reg.Digest(0, 512)
		t1 := time.Now()
		recs := reg.Snapshot()
		t2 := time.Now()
		d.add(t1.Sub(t0))
		s.add(t2.Sub(t1))
		keepLive += len(dg.Entries) + len(recs)
	}
	return d.p(50), s.p(50)
}
