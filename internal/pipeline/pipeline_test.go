package pipeline

import (
	"math"
	"sync"
	"testing"
	"time"

	"nexus/internal/cluster"
	"nexus/internal/core"
	"nexus/internal/transport"
)

func fastParams() transport.Params {
	return transport.Params{"latency": "0", "poll_cost": "0", "bandwidth": "0"}
}

// boot builds a machine, installs workers on ranks 1..n-1, and starts their
// pollers.
func boot(t *testing.T, mcfg cluster.Config, pcfg Config) *cluster.Machine {
	t.Helper()
	m, err := cluster.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	for r := 1; r < m.Size(); r++ {
		InstallWorker(m.Context(r), pcfg)
		stop := m.Context(r).StartPoller(0)
		t.Cleanup(stop)
	}
	return m
}

func TestPipelineMatchesLocalGroundTruth(t *testing.T) {
	cfg := Config{Workers: 3, Tiles: 12, TileW: 16, TileH: 16, FilterIters: 3, Timeout: 30 * time.Second}
	m := boot(t, cluster.Uniform(4, "p", core.MethodConfig{Name: "inproc"}), cfg)
	st, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tiles != cfg.Tiles {
		t.Errorf("Tiles = %d", st.Tiles)
	}
	want := Expected(cfg)
	if math.Abs(st.Checksum-want) > 1e-9*math.Abs(want) {
		t.Errorf("checksum = %v, ground truth %v", st.Checksum, want)
	}
	if st.Retries != 0 {
		t.Errorf("unexpected retries: %d", st.Retries)
	}
	total := 0
	for _, n := range st.PerWorker {
		total += n
	}
	if total != cfg.Tiles {
		t.Errorf("PerWorker sums to %d", total)
	}
}

// TestChecksumIndependentOfWorkerCount is the pipeline's determinism
// invariant: more parallelism changes timing, never output.
func TestChecksumIndependentOfWorkerCount(t *testing.T) {
	base := Config{Tiles: 10, TileW: 12, TileH: 12, FilterIters: 2, Timeout: 30 * time.Second}
	var sums []float64
	for _, workers := range []int{1, 2, 4} {
		cfg := base
		cfg.Workers = workers
		m := boot(t, cluster.Uniform(workers+1, "p", core.MethodConfig{Name: "inproc"}), cfg)
		st, err := Run(m, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sums = append(sums, st.Checksum)
	}
	for i := 1; i < len(sums); i++ {
		if sums[i] != sums[0] {
			t.Errorf("checksums differ across worker counts: %v", sums)
		}
	}
	if want := Expected(base.withDefaults()); sums[0] != want {
		// withDefaults fills Workers, which Expected ignores; compare value.
		if math.Abs(sums[0]-want) > 1e-9*math.Abs(want) {
			t.Errorf("checksum %v != ground truth %v", sums[0], want)
		}
	}
}

// TestPipelineAcrossPartitions runs the source in one partition and the farm
// in another: tiles travel over the wide-area method both ways.
func TestPipelineAcrossPartitions(t *testing.T) {
	cfg := Config{Workers: 2, Tiles: 8, TileW: 8, TileH: 8, Timeout: 30 * time.Second}
	mcfg := cluster.TwoPartition(1, "instrument", 2, "farm",
		core.MethodConfig{Name: "mpl", Params: fastParams()},
		core.MethodConfig{Name: "wan", Params: fastParams()},
	)
	m := boot(t, mcfg, cfg)
	st, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := Expected(cfg)
	if math.Abs(st.Checksum-want) > 1e-9*math.Abs(want) {
		t.Errorf("cross-partition checksum = %v, want %v", st.Checksum, want)
	}
	// The tiles really crossed the wide area.
	if m.Context(0).Stats().Get("frames.wan") == 0 {
		t.Error("no wan frames at the source")
	}
}

// TestWorkerCrashRecovered kills one worker mid-run; tile reassignment must
// still deliver every tile with the correct checksum.
func TestWorkerCrashRecovered(t *testing.T) {
	cfg := Config{
		Workers: 2, Tiles: 10, TileW: 8, TileH: 8,
		Window: 1, RetryAfter: 100 * time.Millisecond, Timeout: 30 * time.Second,
	}
	m, err := cluster.New(cluster.Uniform(3, "p", core.MethodConfig{Name: "inproc"}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	InstallWorker(m.Context(1), cfg)
	InstallWorker(m.Context(2), cfg)
	stop1 := m.Context(1).StartPoller(0)
	defer stop1()
	// Worker 2 never polls: every tile assigned to it times out and is
	// reassigned — the "crashed worker" case.
	st, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Retries == 0 {
		t.Error("expected retries with a dead worker")
	}
	want := Expected(cfg)
	if math.Abs(st.Checksum-want) > 1e-9*math.Abs(want) {
		t.Errorf("checksum after recovery = %v, want %v", st.Checksum, want)
	}
	if st.PerWorker[1] != cfg.Tiles {
		t.Errorf("live worker processed %d/%d tiles", st.PerWorker[1], cfg.Tiles)
	}
}

// TestSlowWorkerCountedOnce: workers that answer, but only after
// RetryAfter, get their first tiles cancelled and reassigned while the
// original calls are still queued. When they start polling they answer the
// cancelled calls too; those late replies must be dropped, every tile
// counted exactly once, and the checksum stay exact.
func TestSlowWorkerCountedOnce(t *testing.T) {
	cfg := Config{
		Workers: 2, Tiles: 10, TileW: 8, TileH: 8,
		Window: 1, RetryAfter: 100 * time.Millisecond, Timeout: 30 * time.Second,
	}
	m, err := cluster.New(cluster.Uniform(3, "p", core.MethodConfig{Name: "inproc"}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	done := make(chan struct{})
	var polling sync.WaitGroup
	for r := 1; r <= cfg.Workers; r++ {
		InstallWorker(m.Context(r), cfg)
		polling.Add(1)
		go func(ctx *core.Context) {
			defer polling.Done()
			select {
			case <-time.After(5 * cfg.RetryAfter / 2):
			case <-done:
				return
			}
			stop := ctx.StartPoller(0)
			<-done
			stop()
		}(m.Context(r))
	}
	defer func() { close(done); polling.Wait() }()

	st, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tiles != cfg.Tiles {
		t.Errorf("Tiles = %d, want %d", st.Tiles, cfg.Tiles)
	}
	if st.Retries < cfg.Workers {
		t.Errorf("Retries = %d: the first tile on each worker cannot be answered before RetryAfter", st.Retries)
	}
	if late := m.Context(0).Stats().Get("rpc.replies.duplicate"); late == 0 {
		t.Error("no late reply to a cancelled tile reached the source")
	}
	want := Expected(cfg)
	if math.Abs(st.Checksum-want) > 1e-9*math.Abs(want) {
		t.Errorf("checksum with slow workers = %v, want %v", st.Checksum, want)
	}
	total := 0
	for _, n := range st.PerWorker {
		total += n
	}
	if total != cfg.Tiles {
		t.Errorf("PerWorker %v sums to %d, want %d", st.PerWorker, total, cfg.Tiles)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := Config{Workers: 5, Tiles: 1}
	m, err := cluster.New(cluster.Uniform(2, "p", core.MethodConfig{Name: "inproc"}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := Run(m, cfg); err == nil {
		t.Error("oversubscribed worker count accepted")
	}
}

func TestExpectedDeterministic(t *testing.T) {
	cfg := Config{Tiles: 5, TileW: 8, TileH: 8, FilterIters: 2}
	a, b := Expected(cfg), Expected(cfg)
	if a != b || a == 0 {
		t.Errorf("Expected not deterministic: %v vs %v", a, b)
	}
}
