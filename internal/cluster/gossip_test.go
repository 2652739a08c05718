package cluster

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"nexus/internal/buffer"
	"nexus/internal/core"
	"nexus/internal/names"
	"nexus/internal/transport"
)

// dynMachine boots a dynamic (gossip-membership) machine and settles it.
func dynMachine(t *testing.T, cfg Config, maxRounds int) *Machine {
	t.Helper()
	if cfg.Dynamic == nil {
		cfg.Dynamic = &NodeConfig{Fanout: 8}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if rounds, ok := m.Settle(maxRounds); !ok {
		t.Fatalf("machine did not converge in %d rounds", rounds)
	}
	return m
}

func TestDynamicMachineBootstrap(t *testing.T) {
	// No wire(): every table must arrive by gossip through the single seed.
	m := dynMachine(t, Config{Nodes: []NodeSpec{
		{Partition: "p", Methods: []core.MethodConfig{fastMPL()}},
		{Partition: "p", Methods: []core.MethodConfig{fastMPL()}},
		{Partition: "p", Methods: []core.MethodConfig{fastMPL()}},
		{Partition: "p", Methods: []core.MethodConfig{fastMPL()}},
	}}, 40)

	// Every node holds 4 live records.
	for r := 0; r < m.Size(); r++ {
		if got := len(m.Node(r).Registry().Live()); got != 4 {
			t.Fatalf("rank %d sees %d live members, want 4", r, got)
		}
	}
	// A lightweight startpoint resolves on every node without any manual
	// RegisterPeerTable: gossip installed the peer tables.
	delivered := 0
	ep := m.Context(0).NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) { delivered++ }))
	for r := 1; r < m.Size(); r++ {
		b := buffer.New(64)
		ep.NewStartpoint().EncodeLite(b)
		dec, err := buffer.FromBytes(b.Encode())
		if err != nil {
			t.Fatal(err)
		}
		sp, err := m.Context(r).DecodeStartpoint(dec)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.RSR("", nil); err != nil {
			t.Fatalf("rank %d lite RSR: %v", r, err)
		}
	}
	for w := 0; w < 10 && delivered < m.Size()-1; w++ {
		m.Context(0).Poll()
	}
	if delivered != m.Size()-1 {
		t.Fatalf("delivered %d lite RSRs, want %d", delivered, m.Size()-1)
	}
	// Observability: the membership view is wired into snapshots.
	snap := m.Context(0).Observe()
	if len(snap.Cluster) != 4 {
		t.Fatalf("snapshot cluster view has %d rows, want 4", len(snap.Cluster))
	}
}

func TestRuntimeMethodChangePropagates(t *testing.T) {
	// Nodes advertise mpl+inproc; the receiver then withdraws mpl at runtime.
	// Peers must re-select to inproc on their next send — no restarts.
	mc := []core.MethodConfig{fastMPL(), inprocCfg()}
	m := dynMachine(t, Config{Nodes: []NodeSpec{
		{Partition: "p", Methods: mc},
		{Partition: "p", Methods: mc},
	}}, 40)

	hits := 0
	ep := m.Context(0).NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) { hits++ }))
	b := buffer.New(64)
	ep.NewStartpoint().EncodeLite(b)
	dec, err := buffer.FromBytes(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := m.Context(1).DecodeStartpoint(dec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if got := sp.MethodFor(m.Context(0).ID()); got != "mpl" {
		t.Fatalf("initial method = %q, want mpl", got)
	}

	// Withdraw mpl from rank 0's advertised table (runtime remove).
	table := m.Context(0).AdvertisedTable()
	kept := table.Entries[:0]
	for _, e := range table.Entries {
		if e.Method != "mpl" {
			kept = append(kept, e)
		}
	}
	table.Entries = kept
	m.Context(0).SetAdvertisedTable(table)
	if rounds, ok := m.Settle(40); !ok {
		t.Fatalf("did not reconverge after method withdrawal (%d rounds)", rounds)
	}

	// The next send from the same live startpoint re-selects inproc.
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if got := sp.MethodFor(m.Context(0).ID()); got != "inproc" {
		t.Fatalf("method after withdrawal = %q, want inproc", got)
	}
	for w := 0; w < 10 && hits < 2; w++ {
		m.Context(0).Poll()
	}
	if hits != 2 {
		t.Fatalf("delivered %d RSRs, want 2", hits)
	}
}

func TestNoStaleSendsAfterLeave(t *testing.T) {
	m := dynMachine(t, Config{Nodes: []NodeSpec{
		{Partition: "p", Methods: []core.MethodConfig{fastMPL()}},
		{Partition: "p", Methods: []core.MethodConfig{fastMPL()}},
		{Partition: "p", Methods: []core.MethodConfig{fastMPL()}},
	}}, 40)

	// A live lightweight link from rank 2 to rank 1.
	ep := m.Context(1).NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) {}))
	b := buffer.New(64)
	ep.NewStartpoint().EncodeLite(b)
	dec, err := buffer.FromBytes(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := m.Context(2).DecodeStartpoint(dec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}

	// Rank 1 leaves gracefully; the tombstone spreads and auto-registration
	// removes its peer table everywhere.
	m.Node(1).Leave()
	if rounds, ok := m.Settle(40); !ok {
		t.Fatalf("did not reconverge after leave (%d rounds)", rounds)
	}
	if rec, okRec := m.Node(2).Registry().Get(m.Context(1).ID()); !okRec || !rec.Tombstone {
		t.Fatalf("rank 2 registry record for departed peer: %+v ok=%v", rec, okRec)
	}

	// Zero stale-descriptor sends: the cached link must fail fast with
	// ErrNoTable, not transmit to the departed context.
	sent := m.Context(2).Stats().Get("rsr.sent")
	if err := sp.RSR("", nil); !errors.Is(err, core.ErrNoTable) {
		t.Fatalf("send after leave: err=%v, want ErrNoTable", err)
	}
	if got := m.Context(2).Stats().Get("rsr.sent"); got != sent {
		t.Fatalf("rsr.sent moved %d -> %d after leave", sent, got)
	}
}

func TestRejoinAfterTombstone(t *testing.T) {
	m := dynMachine(t, Config{Nodes: []NodeSpec{
		{Partition: "p", Methods: []core.MethodConfig{fastMPL()}},
		{Partition: "p", Methods: []core.MethodConfig{fastMPL()}},
	}}, 40)
	n1 := m.Node(1)

	// Rank 0 wrongly declares rank 1 dead (third-party tombstone).
	rec, _ := m.Node(0).Registry().Get(m.Context(1).ID())
	m.Node(0).Registry().Merge(tombstoneOf(rec))
	if rounds, ok := m.Settle(40); !ok {
		t.Fatalf("no reconvergence after tombstone (%d rounds)", rounds)
	}
	// Rank 1 must have readopted its record above the tombstone and be live
	// everywhere again.
	got, _ := m.Node(0).Registry().Get(m.Context(1).ID())
	if got.Tombstone {
		t.Fatalf("rank 1 still tombstoned at rank 0: %+v", got)
	}
	if got.Seq <= rec.Seq {
		t.Fatalf("rejoined seq %d not above tombstone base %d", got.Seq, rec.Seq)
	}
	if n1.Closed() {
		t.Fatal("live node believes it left")
	}
}

func tombstoneOf(rec names.Record) names.Record {
	rec.Seq++
	rec.Tombstone = true
	rec.Table = nil
	return rec
}

// referenceSample is Step's peer draw written out in full: copy the live
// records other than self, sort them by origin, shuffle the copy with the
// node's rng and keep the first fanout.
func referenceSample(live []names.Record, self transport.ContextID, fanout int, rng *rand.Rand) []transport.ContextID {
	var peers []transport.ContextID
	for _, rec := range live {
		if rec.Origin != self {
			peers = append(peers, rec.Origin)
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	if len(peers) > fanout {
		peers = peers[:fanout]
	}
	return peers
}

// TestStepSamplingMatchesShuffle pins Step's peer sampling to the reference
// draw for fixed seeds: the peers its digests reach, the order they are
// drawn in, and how much of the rng stream the draw consumes. A change here
// would silently change every convergence round count.
func TestStepSamplingMatchesShuffle(t *testing.T) {
	specs := make([]NodeSpec, 9)
	for i := range specs {
		specs[i] = NodeSpec{Partition: "p", Methods: []core.MethodConfig{fastMPL()}}
	}
	m := dynMachine(t, Config{Nodes: specs, Dynamic: &NodeConfig{}}, 60)
	// Two departures leave tombstones, so the live list is not the table.
	m.Node(2).Leave()
	m.Node(6).Leave()
	if rounds, ok := m.Settle(60); !ok {
		t.Fatalf("did not reconverge after leaves (%d rounds)", rounds)
	}
	digestsAt := func() []uint64 {
		out := make([]uint64, m.Size())
		for r := range out {
			out[r] = m.Context(r).Stats().Get("cluster.digest.rx")
		}
		return out
	}
	for seed := int64(1); seed <= 5; seed++ {
		for r := 0; r < m.Size(); r++ {
			nd := m.Node(r)
			if nd.Closed() {
				continue
			}
			ref := rand.New(rand.NewSource(seed))
			want := referenceSample(nd.Registry().Live(), nd.Context().ID(), nd.cfg.Fanout, ref)
			refNext := ref.Int63()

			before := digestsAt()
			nd.mu.Lock()
			nd.rng = rand.New(rand.NewSource(seed))
			nd.probeTick = 0 // the next Step sends no resurrection probe
			nd.mu.Unlock()
			nd.Step()
			drain(m.contexts)
			var reached []transport.ContextID
			for peer, n := range digestsAt() {
				if n != before[peer] {
					reached = append(reached, m.Context(peer).ID())
				}
			}
			slices.Sort(reached)
			nd.mu.Lock()
			next := nd.rng.Int63()
			nd.rng = rand.New(rand.NewSource(seed))
			var drawn []transport.ContextID
			for _, rec := range nd.samplePeersLocked(nd.cfg.Fanout) {
				drawn = append(drawn, rec.Origin)
			}
			nd.mu.Unlock()

			sorted := slices.Clone(want)
			slices.Sort(sorted)
			if !slices.Equal(reached, sorted) {
				t.Errorf("seed %d rank %d: Step reached %v, reference draws %v", seed, r, reached, want)
			}
			if !slices.Equal(drawn, want) {
				t.Errorf("seed %d rank %d: drew %v, reference draws %v", seed, r, drawn, want)
			}
			if next != refNext {
				t.Errorf("seed %d rank %d: Step consumed a different share of the rng stream", seed, r)
			}
		}
	}
}
