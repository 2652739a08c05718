// Package pipeline implements a near-real-time image-processing pipeline —
// the paper's second application family (§1, §2 and reference [20]:
// satellite image processing as a metacomputing application): a data source
// streams image tiles to a farm of processing contexts, and results flow to
// a collector, with the communication methods chosen per link by the usual
// table-driven selection.
//
// The pipeline is built on the request/reply layer (internal/rpc, no MPI
// layer): each tile is one call to a worker's pipeline.tile method, whose
// reply carries the processed pixels, and flow control is a per-worker
// window of outstanding calls. The source also implements tile-level
// recovery: a call unanswered past a deadline is cancelled and the tile
// reassigned to the next worker, so a crashed worker delays but never loses
// output — the "switch in the event of error" behaviour of §2 at the
// application level, on top of the startpoint-level failover the core
// provides.
package pipeline

import (
	"fmt"
	"math"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/cluster"
	"nexus/internal/core"
	"nexus/internal/rpc"
)

// methodTile is the RPC method a worker serves: [pixels] -> [pixels].
const methodTile = "pipeline.tile"

// Config parameterises a pipeline run on a machine of 1 + Workers contexts:
// rank 0 is the source and collector; ranks 1..Workers process tiles.
type Config struct {
	// Workers is the number of processing contexts (machine size - 1).
	Workers int
	// Tiles is the number of image tiles to process.
	Tiles int
	// TileW and TileH are the tile dimensions.
	TileW, TileH int
	// FilterIters applies the smoothing filter this many times per tile.
	FilterIters int
	// Window bounds outstanding tiles per worker (default 2).
	Window int
	// RetryAfter cancels and reassigns a tile not answered within this
	// duration (default 2s).
	RetryAfter time.Duration
	// Timeout bounds the whole run (default 60s).
	Timeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.TileW == 0 {
		c.TileW = 32
	}
	if c.TileH == 0 {
		c.TileH = 32
	}
	if c.Tiles == 0 {
		c.Tiles = 16
	}
	if c.FilterIters == 0 {
		c.FilterIters = 2
	}
	if c.Window == 0 {
		c.Window = 2
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	return c
}

// Stats summarises a pipeline run.
type Stats struct {
	// Tiles is the number of distinct tiles collected.
	Tiles int
	// Checksum is the order-independent sum of all processed pixels;
	// deterministic for a Config regardless of worker count, scheduling,
	// or communication methods.
	Checksum float64
	// PerWorker counts tiles processed by each worker (1-indexed rank).
	PerWorker []int
	// Retries counts tile reassignments (0 unless workers failed).
	Retries int
	// Elapsed is the wall-clock duration.
	Elapsed time.Duration
}

// sourceTile generates the synthetic instrument data for one tile.
func sourceTile(cfg Config, id int) []float64 {
	px := make([]float64, cfg.TileW*cfg.TileH)
	for y := 0; y < cfg.TileH; y++ {
		for x := 0; x < cfg.TileW; x++ {
			px[y*cfg.TileW+x] = float64((x*31+y*17+id*7)%64) / 64.0
		}
	}
	return px
}

// processTile applies the smoothing filter: the per-tile "science".
func processTile(cfg Config, px []float64) []float64 {
	w, h := cfg.TileW, cfg.TileH
	cur := px
	next := make([]float64, len(px))
	for it := 0; it < cfg.FilterIters; it++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				sum, n := 0.0, 0
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						nx, ny := x+dx, y+dy
						if nx < 0 || nx >= w || ny < 0 || ny >= h {
							continue
						}
						sum += cur[ny*w+nx]
						n++
					}
				}
				next[y*w+x] = sum / float64(n)
			}
		}
		cur, next = next, cur
	}
	out := make([]float64, len(cur))
	copy(out, cur)
	return out
}

// Expected computes the checksum Run must produce for a Config, by
// processing every tile locally — the ground truth for tests.
func Expected(cfg Config) float64 {
	cfg = cfg.withDefaults()
	sum := 0.0
	for id := 0; id < cfg.Tiles; id++ {
		for _, v := range processTile(cfg, sourceTile(cfg, id)) {
			sum += v
		}
	}
	return sum
}

// InstallWorker registers the tile-processing method on the worker
// context's RPC runtime (attaching one if needed). The worker answers each
// tile call with the processed pixels whenever its context polls.
func InstallWorker(ctx *core.Context, cfg Config) {
	cfg = cfg.withDefaults()
	rpc.Enable(ctx, core.RPCConfig{}).Register(methodTile, func(req *rpc.Request, r *rpc.Responder) {
		px := req.Payload.Float64s()
		if err := req.Payload.Err(); err != nil {
			_ = r.Error(err)
			return
		}
		out := processTile(cfg, px)
		res := buffer.New(8*len(out) + 16)
		res.PutFloat64s(out)
		_ = r.Reply(res)
	})
}

// Run drives the pipeline from rank 0 of the machine: ranks 1..Workers must
// already have InstallWorker'd and be polling (their own loop or a machine
// poller).
func Run(m *cluster.Machine, cfg Config) (Stats, error) {
	cfg = cfg.withDefaults()
	if cfg.Workers < 1 || cfg.Workers > m.Size()-1 {
		return Stats{}, fmt.Errorf("pipeline: %d workers on a machine of %d", cfg.Workers, m.Size())
	}
	src := m.Context(0)
	r := rpc.Enable(src, core.RPCConfig{})
	start := time.Now()
	deadline := start.Add(cfg.Timeout)

	// Startpoints to each worker's context, via lightweight encoding (peer
	// tables were exchanged at machine boot).
	workerSP := make([]*core.Startpoint, cfg.Workers+1)
	for wr := 1; wr <= cfg.Workers; wr++ {
		ep := m.Context(wr).NewEndpoint() // calls name the method, not the endpoint
		sp, err := core.TransferStartpoint(ep.NewStartpoint(), src)
		if err != nil {
			return Stats{}, fmt.Errorf("pipeline: linking worker %d: %w", wr, err)
		}
		workerSP[wr] = sp
		defer sp.Close()
	}

	// One call per outstanding tile, keyed by tile id.
	type assignment struct {
		worker int
		at     time.Time
		f      *rpc.Future
	}
	outstanding := make(map[int]assignment)
	defer func() { // on an early return, release the calls still pending
		for _, a := range outstanding {
			a.f.Cancel()
		}
	}()
	inFlight := make([]int, cfg.Workers+1) // per-worker outstanding count
	sums := make([]float64, cfg.Tiles)
	doneBy := make([]int, cfg.Tiles) // worker whose reply was collected; 0 while pending
	collected := 0
	nextTile := 0
	retries := 0
	rr := 0 // round-robin cursor

	// sendTile assigns a tile to the next worker with window room and
	// reports whether one had room.
	sendTile := func(id int) (bool, error) {
		for try := 0; try < cfg.Workers; try++ {
			rr = rr%cfg.Workers + 1
			if inFlight[rr] < cfg.Window {
				b := buffer.New(8*cfg.TileW*cfg.TileH + 16)
				b.PutFloat64s(sourceTile(cfg, id))
				f, err := r.Call(workerSP[rr], methodTile, b, rpc.CallOptions{Deadline: deadline})
				if err != nil {
					return false, err
				}
				outstanding[id] = assignment{worker: rr, at: time.Now(), f: f}
				inFlight[rr]++
				return true, nil
			}
		}
		return false, nil // no window room anywhere; caller retries after polling
	}
	anyDone := func() bool {
		for _, a := range outstanding {
			if a.f.Done() {
				return true
			}
		}
		return false
	}

	for collected < cfg.Tiles {
		if time.Now().After(deadline) {
			return Stats{}, fmt.Errorf("pipeline: timeout with %d/%d tiles", collected, cfg.Tiles)
		}
		// Feed new tiles while windows allow.
		for nextTile < cfg.Tiles {
			sent, err := sendTile(nextTile)
			if err != nil {
				return Stats{}, err
			}
			if !sent {
				break // all windows full
			}
			nextTile++
		}
		// Poll until a tile is answered or the oldest one is due a retry.
		wake := deadline
		for _, a := range outstanding {
			if at := a.at.Add(cfg.RetryAfter); at.Before(wake) {
				wake = at
			}
		}
		src.PollUntil(anyDone, time.Until(wake))
		// Collect answered tiles; cancel and reassign those stuck past
		// RetryAfter (dead or slow worker), steering away from that worker
		// when there is another.
		now := time.Now()
		for id, a := range outstanding {
			if a.f.Done() {
				res, err := a.f.Await()
				if err != nil {
					return Stats{}, fmt.Errorf("pipeline: tile %d on worker %d: %w", id, a.worker, err)
				}
				for _, v := range res.Float64s() {
					sums[id] += v
				}
				if err := res.Err(); err != nil {
					return Stats{}, fmt.Errorf("pipeline: tile %d: corrupt result: %w", id, err)
				}
				doneBy[id] = a.worker
				collected++
				inFlight[a.worker]--
				delete(outstanding, id)
				continue
			}
			if now.Sub(a.at) < cfg.RetryAfter {
				continue
			}
			a.f.Cancel()
			inFlight[a.worker]--
			delete(outstanding, id)
			retries++
			if cfg.Workers > 1 {
				rr = a.worker % cfg.Workers // next rr increment skips it
			}
			if _, err := sendTile(id); err != nil {
				return Stats{}, err
			}
		}
	}

	st := Stats{
		Tiles:     collected,
		PerWorker: make([]int, cfg.Workers+1),
		Retries:   retries,
		Elapsed:   time.Since(start),
	}
	// Order-independent checksum: sum over tile ids.
	for id := 0; id < cfg.Tiles; id++ {
		st.Checksum += sums[id]
		st.PerWorker[doneBy[id]]++
	}
	if math.IsNaN(st.Checksum) {
		return Stats{}, fmt.Errorf("pipeline: NaN checksum")
	}
	return st, nil
}
