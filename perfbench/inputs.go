package main

import (
	"math/rand"

	"nexus/internal/wire"
)

// Input sizes. Every byte the library receives is generated from --seed
// before timing starts.
const (
	smallMaxBytes = 1024    // small payloads are uniform in [0, smallMaxBytes]
	smallCount    = 1024    // distinct small payloads, cycled through by the ops
	bulkBytes     = 1 << 20 // one bulk message
	bulkCount     = 4       // distinct bulk messages, cycled through by the ops
	fragFrameMax  = 60 << 10
)

// inputs holds the generated payloads. Separate random streams per input
// kind keep one kind's inputs unchanged when another kind changes.
type inputs struct {
	seed  int64
	small [][]byte
	bulk  [][]byte // made on first use by bulkPayloads
}

func newInputs(seed int64) *inputs {
	in := &inputs{seed: seed}
	rs := rand.New(rand.NewSource(seed))
	in.small = make([][]byte, smallCount)
	for i := range in.small {
		p := make([]byte, rs.Intn(smallMaxBytes+1))
		rs.Read(p)
		in.small[i] = p
	}
	return in
}

// bulkPayloads returns the 1 MiB messages, generating them on first use:
// only the bulk workload and the frag microloop need them, and an untraced
// run of any other workload should not carry 4 MiB of inputs in its heap.
func (in *inputs) bulkPayloads() [][]byte {
	if in.bulk != nil {
		return in.bulk
	}
	rb := rand.New(rand.NewSource(in.seed ^ 0x5bd1e995))
	in.bulk = make([][]byte, bulkCount)
	for i := range in.bulk {
		p := make([]byte, bulkBytes)
		rb.Read(p)
		in.bulk[i] = p
	}
	return in.bulk
}

// gossipPlan is the seeded script of one gossip-churn scenario.
type gossipPlan struct {
	n, k  int     // contexts at start; leaves = crashes = fresh joins = k
	seeds []int64 // NodeConfig.Seed for each of the n+k contexts
	leave []int   // ranks that leave gracefully
	crash []int   // ranks that are closed without a tombstone
}

// newGossipPlan picks node seeds and the leaving and crashing ranks for
// scenario j of a run. Rank 0 is the join seed and always stays.
func newGossipPlan(seed int64, j, n, k int) gossipPlan {
	r := rand.New(rand.NewSource(int64(splitmix64(uint64(seed)^0x2545f491<<32+uint64(j)) >> 1)))
	p := gossipPlan{n: n, k: k, seeds: make([]int64, n+k)}
	for i := range p.seeds {
		p.seeds[i] = r.Int63() | 1 // NodeConfig treats 0 as "derive from the id"
	}
	perm := r.Perm(n - 1)
	for i := 0; i < k; i++ {
		p.leave = append(p.leave, perm[i]+1)
		p.crash = append(p.crash, perm[k+i]+1)
	}
	return p
}

// splitmix64 scrambles x so that nearby inputs give unrelated outputs
// (math/rand reduces a source seed modulo 2³¹−1, so seeds built by
// adding small offsets would collide).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// smallFrames encodes each small payload as the RSR frame the core would
// send for it, for the module floors and the wire microloop.
func (in *inputs) smallFrames() [][]byte {
	out := make([][]byte, len(in.small))
	for i, p := range in.small {
		f := make([]byte, wire.HeaderLen(0)+len(p))
		off := wire.EncodeHeader(f, wire.TypeRSR, 2, 1, 1, "", len(p))
		copy(f[off:], p)
		out[i] = f
	}
	return out
}

// bulkFrames splits the first bulk payload into fragment frames of at most
// fragFrameMax encoded bytes, the way the core fragments a bulk RSR for a
// datagram method.
func (in *inputs) bulkFrames() (frames [][]byte, chunks [][]byte) {
	payload := in.bulkPayloads()[0]
	hdr := wire.HeaderLenExt(0, wire.FlagFrag)
	chunk := fragFrameMax - hdr
	total := (len(payload) + chunk - 1) / chunk
	for i := 0; i < total; i++ {
		c := payload[i*chunk : min((i+1)*chunk, len(payload))]
		f := make([]byte, hdr+len(c))
		ext := wire.Ext{FragID: 1, FragIndex: uint32(i), FragTotal: uint32(total)}
		off := wire.EncodeHeaderExt(f, wire.TypeRSR, wire.FlagFrag, 2, 1, 1, ext, "", len(c))
		copy(f[off:], c)
		frames = append(frames, f)
		chunks = append(chunks, c)
	}
	return frames, chunks
}
